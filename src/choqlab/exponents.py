"""Exact rational bookkeeping for the exponent tuple (N, alpha, p, q).

Criticality of the nonlinearity, the bootstrap ledgers that track how far a
regularity or decay exponent can be pushed per iteration, and the rate
transfer rules for the two integral operators are all decided by comparisons
that are rational in (N, alpha, p, q).  Everything in this module therefore
runs on `fractions.Fraction`; floats are rejected at the door so binary
rounding can never flip a boundary case.  The only floating point lives in
`k_threshold`, whose outputs are generically irrational.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

Rational = Union[int, str, Fraction]


def as_fraction(value: Rational) -> Fraction:
    """Coerce to Fraction, rejecting floats.

    Floats carry binary rounding (Fraction(0.3) is not 3/10), which would
    silently move the criticality boundaries, so they are not accepted.
    Strings may be given as "a/b" or as exact decimals ("1.5").
    """
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(
            f"{value!r} is not accepted here; pass an int, a Fraction, or a "
            f"string like '5/2' so the arithmetic stays exact")
    return Fraction(value)


# ---------------------------------------------------------------------------
# problem exponents and criticality


@dataclass(frozen=True)
class ProblemExponents:
    """Admissible exponent tuple: N >= 3, 0 < alpha < N, p > 0, q >= 1."""

    N: int
    alpha: Fraction
    p: Fraction
    q: Fraction

    def __post_init__(self):
        if isinstance(self.N, bool) or not isinstance(self.N, int):
            raise TypeError(f"N must be an integer, got {self.N!r}")
        if self.N < 3:
            raise ValueError(f"N must be >= 3, got {self.N}")
        object.__setattr__(self, "alpha", as_fraction(self.alpha))
        object.__setattr__(self, "p", as_fraction(self.p))
        object.__setattr__(self, "q", as_fraction(self.q))
        if not (0 < self.alpha < self.N):
            raise ValueError(f"alpha must lie in (0, N), got {self.alpha}")
        if self.p <= 0:
            raise ValueError(f"p must be positive, got {self.p}")
        if self.q < 1:
            raise ValueError(f"q must be >= 1, got {self.q}")

    @property
    def sum_threshold(self) -> Fraction:
        """(N + alpha)/(N - 2), the threshold for p + q."""
        return (self.N + self.alpha) / Fraction(self.N - 2)

    @property
    def single_threshold(self) -> Fraction:
        """N/(N - 2), the threshold for p and for q separately."""
        return Fraction(self.N, self.N - 2)


class Criticality(enum.Enum):
    SUBCRITICAL = "subcritical"
    SUPERCRITICAL = "supercritical"


@dataclass(frozen=True)
class CriticalityReport:
    criticality: Criticality
    triggers: tuple[str, ...]
    sum_threshold: Fraction
    single_threshold: Fraction

    @property
    def is_supercritical(self) -> bool:
        return self.criticality is Criticality.SUPERCRITICAL


def classify(e: ProblemExponents) -> CriticalityReport:
    """Supercritical iff p+q >= (N+alpha)/(N-2) or p >= N/(N-2) or q >= N/(N-2).

    All three comparisons are non-strict: equality is supercritical.  The
    triggers tuple names every inequality that fired ("p+q", "p", "q"), in
    that fixed order, and is empty exactly when the tuple is subcritical.
    """
    triggers = []
    if e.p + e.q >= e.sum_threshold:
        triggers.append("p+q")
    if e.p >= e.single_threshold:
        triggers.append("p")
    if e.q >= e.single_threshold:
        triggers.append("q")
    crit = Criticality.SUPERCRITICAL if triggers else Criticality.SUBCRITICAL
    return CriticalityReport(crit, tuple(triggers),
                             e.sum_threshold, e.single_threshold)


# ---------------------------------------------------------------------------
# singularity rates and their transfer through the two operators


@dataclass(frozen=True)
class SingularityRate:
    """Upper-bound class for the blow-up of a radial function at the origin.

    kind is one of "bounded", "log", "power"; a power rate carries its
    strictly positive exponent tau, meaning the function is O(r^{-tau}).
    Construct via the bounded()/log()/power() classmethods: power() with a
    nonpositive exponent normalizes to bounded, so rate arithmetic never
    produces a "power" that is actually bounded.
    """

    kind: str
    exponent: Optional[Fraction] = None

    _KINDS = ("bounded", "log", "power")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown rate kind {self.kind!r}")
        if self.kind == "power":
            if self.exponent is None or self.exponent <= 0:
                raise ValueError("power rate requires a positive exponent; "
                                 "use SingularityRate.power() to normalize")
        elif self.exponent is not None:
            raise ValueError(f"{self.kind} rate carries no exponent")

    @classmethod
    def bounded(cls) -> "SingularityRate":
        return cls("bounded")

    @classmethod
    def log(cls) -> "SingularityRate":
        return cls("log")

    @classmethod
    def power(cls, exponent: Rational) -> "SingularityRate":
        exponent = as_fraction(exponent)
        if exponent <= 0:
            return cls.bounded()
        return cls("power", exponent)

    def __str__(self):
        if self.kind == "power":
            return f"O(r^-{self.exponent})"
        return {"bounded": "O(1)", "log": "O(log 1/r)"}[self.kind]


def _check_rate_window(rate: SingularityRate, N: int) -> None:
    if rate.kind == "power" and rate.exponent >= N:
        raise ValueError(
            f"power rate tau = {rate.exponent} is not locally integrable in "
            f"dimension N = {N}; rate transfer requires tau in (0, N)")


def riesz_rate(rate: SingularityRate, N: int, alpha: Rational) -> SingularityRate:
    """Origin rate of the order-alpha potential of an O(r^-tau) density.

    Gains alpha powers: tau > alpha maps to tau - alpha, equality to a log,
    and tau < alpha to bounded.  Requires tau < N for local integrability.
    The Green operator of -Laplacian + 1 is alpha = 2: near the origin it
    gains two powers, as the Newtonian potential does.
    """
    alpha = as_fraction(alpha)
    if not 0 < alpha:
        raise ValueError(f"alpha must be positive, got {alpha}")
    _check_rate_window(rate, N)
    if rate.kind != "power":
        return SingularityRate.bounded()
    tau = rate.exponent
    if tau > alpha:
        return SingularityRate.power(tau - alpha)
    if tau == alpha:
        return SingularityRate.log()
    return SingularityRate.bounded()


# ---------------------------------------------------------------------------
# bootstrap ledger


class BootstrapCase(enum.Enum):
    P_BELOW_ALPHA_CRITICAL = "p_below_alpha_critical"
    P_AT_ALPHA_CRITICAL = "p_at_alpha_critical"
    P_ABOVE_ALPHA_CRITICAL = "p_above_alpha_critical"


def bootstrap_case(e: ProblemExponents) -> BootstrapCase:
    """Position of p(N-2) relative to alpha, which decides whether the
    splitting exponent t1 exists."""
    lhs = e.p * (e.N - 2)
    if lhs > e.alpha:
        return BootstrapCase.P_ABOVE_ALPHA_CRITICAL
    if lhs == e.alpha:
        return BootstrapCase.P_AT_ALPHA_CRITICAL
    return BootstrapCase.P_BELOW_ALPHA_CRITICAL


def bootstrap_t1(e: ProblemExponents) -> tuple[Optional[Fraction], BootstrapCase]:
    """Canonical splitting exponent t1 = ((p+q)(N-2) - alpha)/(p(N-2) - alpha).

    Only defined in the p-above case; returns (None, case) otherwise.
    Supercritical tuples are rejected: the ledger machinery presumes the
    subcritical window.
    """
    report = classify(e)
    if report.is_supercritical:
        raise ValueError(
            "bootstrap ledger requires subcritical exponents; triggers: "
            + ", ".join(report.triggers))
    case = bootstrap_case(e)
    if case is not BootstrapCase.P_ABOVE_ALPHA_CRITICAL:
        return None, case
    # t1 > 1 balances the two Young shares, spending exactly the available
    # integrability: (1/t1) N/(p(N-2)-alpha) = ((t1-1)/t1)(1/q) N/(N-2)
    t1 = ((e.p + e.q) * (e.N - 2) - e.alpha) / (e.p * (e.N - 2) - e.alpha)
    return t1, case


# steps after which s_sequence gives up; the growth factor exceeds 1, so a
# terminating run needs far fewer
_S_SEQUENCE_MAX_STEPS = 10000


def s_sequence(e: ProblemExponents,
               s1: Optional[Rational] = None) -> list[Fraction]:
    """Integrability bootstrap s_n, run in exact arithmetic.

    s_{n+1} = N s_n / ((p+q)(N - 2 s_n) - alpha s_n), starting from an s1 in
    the admissible window (defaults to its midpoint).  Terminates when the
    sequence exceeds N/2 or when p(N - 2 s) - alpha s <= 0 (the potential
    term has become bounded and no further splitting is needed).  An exact
    N/2 hit is perturbed down by a hundredth of the last gap so the
    iteration can continue through the removable boundary.  Supercritical
    tuples are rejected by bootstrap_t1.
    """
    t1, case = bootstrap_t1(e)
    if t1 is None:
        raise ValueError(
            f"s-sequence needs the p-above case (p(N-2) > alpha); "
            f"got {case.value}")

    upper_growth = Fraction(e.N) / ((e.p + e.q) * (e.N - 2) - e.alpha)
    upper_positive = (e.p + e.q) * e.N / (2 * (e.p + e.q) + e.alpha)
    upper = min(upper_growth, upper_positive)
    if s1 is None:
        s1 = (1 + upper) / 2
    else:
        s1 = as_fraction(s1)
    if not s1 > 1:
        raise ValueError(f"s1 must exceed 1, got {s1}")
    if not s1 < upper_growth:
        raise ValueError(
            f"s1 must stay below N/((p+q)(N-2)-alpha) = {upper_growth}, "
            f"got {s1}")
    if (e.p + e.q) * (e.N - 2 * s1) - e.alpha * s1 <= 0:
        raise ValueError(
            f"s1 = {s1} makes the denominator (p+q)(N-2s)-alpha s "
            f"nonpositive; it must stay below {upper_positive}")

    half_n = Fraction(e.N, 2)
    seq = [s1]
    for step in range(_S_SEQUENCE_MAX_STEPS):
        s = seq[-1]
        if s > half_n:
            break
        # the bounded-branch termination applies to elements the recursion
        # produced; from s1 itself one step is always taken (the admissible
        # window only guarantees the (p+q)-denominator there)
        if step > 0 and e.p * (e.N - 2 * s) - e.alpha * s <= 0:
            break
        s_next = e.N * s / ((e.p + e.q) * (e.N - 2 * s) - e.alpha * s)
        if s_next == half_n:
            # removable boundary: back off by a sliver and keep going
            gap = s_next - s
            s_next = s_next - gap / 100
        seq.append(s_next)
    else:
        raise RuntimeError("s-sequence failed to terminate; growth factor "
                           "should be > 1 in the p-above subcritical window")
    return seq


def T_sequence(e: ProblemExponents) -> tuple[list[Fraction], int]:
    """Decay ledger T_n and the first index n0 with T_{n0} > 0.

    T_0 = 2 - N, T_1 = 2 + alpha - (p+q)(N-2), and thereafter
    T_{n+1} = 2 + (q t1/(t1-1)) T_n.  In the p-above subcritical case the
    multiplier q t1/(t1-1) equals ((p+q)(N-2) - alpha)/(N-2) and exceeds 1,
    so the sequence escapes to +infinity and n0 is finite.
    """
    t1, case = bootstrap_t1(e)
    if t1 is None:
        raise ValueError(
            f"T-sequence needs the p-above case (p(N-2) > alpha); "
            f"got {case.value}")
    ratio = e.q * t1 / (t1 - 1)
    T0 = Fraction(2 - e.N)
    T1 = 2 + e.alpha - (e.p + e.q) * (e.N - 2)
    seq = [T0, T1]
    while seq[-1] <= 0:
        seq.append(2 + ratio * seq[-1])
    return seq, len(seq) - 1


@dataclass(frozen=True)
class BootstrapLedger:
    """Everything the bootstrap knows about one exponent tuple."""

    exponents: ProblemExponents
    case: BootstrapCase
    t1: Optional[Fraction]
    s_seq: tuple[Fraction, ...]
    T_seq: tuple[Fraction, ...]
    n0: Optional[int]
    n1: Optional[int]


def bootstrap_ledger(e: ProblemExponents) -> BootstrapLedger:
    """Assemble the full ledger; sequences are empty outside the p-above case.

    The s-run starts from the midpoint of the admissible window.  n0 indexes
    the first positive T, n1 the first s beyond N/2 (None when the s-run
    ends on the bounded branch instead).
    """
    t1, case = bootstrap_t1(e)
    if t1 is None:
        return BootstrapLedger(e, case, None, (), (), None, None)
    s_seq = s_sequence(e)
    T_seq, n0 = T_sequence(e)
    n1 = len(s_seq) - 1 if s_seq[-1] > Fraction(e.N, 2) else None
    return BootstrapLedger(e, case, t1, tuple(s_seq), tuple(T_seq), n0, n1)


# ---------------------------------------------------------------------------
# smallness threshold for the source strength


def k_threshold(c: float, p: float, q: float) -> tuple[float, float]:
    """Largest k for which the barrier tangency argument closes, with its t.

    For s = p + q > 1 and a domination constant c > 0,
    k_q = (1/(c s))^{1/(s-1)} (s-1)/s and t_q = (s/(s-1))^s; at (k_q, t_q)
    the admissibility inequality (c t k^{s-1} + 1)^s <= t holds with equality.
    """
    if not c > 0:
        raise ValueError(f"domination constant c must be positive, got {c}")
    s = float(p) + float(q)
    if not s > 1:
        raise ValueError(f"p + q must exceed 1, got {s}")
    k_q = (1.0 / (c * s)) ** (1.0 / (s - 1.0)) * (s - 1.0) / s
    t_q = (s / (s - 1.0)) ** s
    return k_q, t_q
