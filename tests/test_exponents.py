"""Exact-arithmetic tests for the exponent calculus.

Everything here is either a frozen exact value (recomputed by hand before
being frozen) or an algebraic identity run over random rational tuples.
"""

import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from choqlab.exponents import (
    BootstrapCase,
    Criticality,
    ProblemExponents,
    SingularityRate,
    SupercriticalError,
    as_fraction,
    bootstrap_case,
    bootstrap_ledger,
    bootstrap_t1,
    classify,
    k_threshold,
    riesz_rate,
    s_sequence,
    T_sequence,
)


# ---------------------------------------------------------------------------
# strategies


def rationals(lo, hi, max_den=40):
    """Exact rationals in (lo, hi], as Fractions."""
    lo, hi = F(lo), F(hi)

    def build(num_den):
        num, den = num_den
        return lo + (hi - lo) * F(num, den)

    return st.tuples(st.integers(1, 1000), st.just(1000)).map(
        lambda nd: build(nd)).map(lambda x: x.limit_denominator(max_den * 25))


def exponent_tuples(subcritical=None):
    """Random valid exponent tuples, optionally filtered by class."""

    def build(args):
        N, alpha, p, q = args
        return ProblemExponents(N, alpha, p, q)

    base = st.tuples(
        st.integers(3, 7),
        rationals(0, 3).filter(lambda a: a > 0),
        rationals(0, 4).filter(lambda p: p > 0),
        rationals(1, 4),
    ).filter(lambda t: t[1] < t[0]).map(build)
    if subcritical is None:
        return base
    return base.filter(
        lambda e: (classify(e).criticality is Criticality.SUBCRITICAL)
        == subcritical)


# ---------------------------------------------------------------------------
# construction and coercion


def test_as_fraction_rejects_floats():
    with pytest.raises(TypeError):
        as_fraction(0.3)
    assert as_fraction("0.3") == F(3, 10)
    assert as_fraction("5/2") == F(5, 2)
    assert as_fraction(7) == F(7)


def test_invalid_tuples_rejected():
    with pytest.raises(ValueError):
        ProblemExponents(2, F(1), F(1), F(1))
    with pytest.raises(ValueError):
        ProblemExponents(3, F(3), F(1), F(1))   # alpha = N
    with pytest.raises(ValueError):
        ProblemExponents(3, F(2), F(0), F(1))
    with pytest.raises(ValueError):
        ProblemExponents(3, F(2), F(1), F(1, 2))  # q < 1
    with pytest.raises(TypeError):
        ProblemExponents(3, 2.0, F(1), F(1))


# ---------------------------------------------------------------------------
# criticality classification: frozen 12-tuple table


# (N, alpha, p, q, class, triggers); three boundary equalities included
CLASSIFICATION_TABLE = [
    (3, F(2), F(2), F(1), Criticality.SUBCRITICAL, ()),
    (3, F(2), F(5, 2), F(1), Criticality.SUBCRITICAL, ()),
    (4, F(1), F(6, 5), F(1), Criticality.SUBCRITICAL, ()),
    (5, F(3), F(1), F(1, 1), Criticality.SUBCRITICAL, ()),
    (6, F(4), F(1), F(1), Criticality.SUBCRITICAL, ()),
    # boundary equalities, all supercritical (non-strict)
    (3, F(2), F(3), F(1), Criticality.SUPERCRITICAL, ("p",)),        # p = N/(N-2)
    (5, F(1), F(1), F(1), Criticality.SUPERCRITICAL, ("p+q",)),      # p+q = (N+a)/(N-2)
    (3, F(2), F(1), F(3), Criticality.SUPERCRITICAL, ("q",)),        # q = N/(N-2)
    # strict supercritical
    (3, F(2), F(2), F(3), Criticality.SUPERCRITICAL, ("p+q", "q")),
    (3, F(2), F(4), F(1), Criticality.SUPERCRITICAL, ("p+q", "p")),
    (5, F(2), F(2), F(1), Criticality.SUPERCRITICAL, ("p+q", "p")),
    (4, F(3), F(3), F(2), Criticality.SUPERCRITICAL, ("p+q", "p", "q")),
]


def test_classification_table():
    for N, alpha, p, q, crit, triggers in CLASSIFICATION_TABLE:
        rep = classify(ProblemExponents(N, alpha, p, q))
        assert rep.criticality is crit, (N, alpha, p, q)
        assert rep.triggers == triggers, (N, alpha, p, q)


def test_classification_thresholds_exact():
    rep = classify(ProblemExponents(3, F(2), F(2), F(1)))
    assert rep.sum_threshold == F(5)
    assert rep.single_threshold == F(3)


@given(exponent_tuples())
@settings(max_examples=300, deadline=None)
def test_classify_exhaustive_exclusive(e):
    rep = classify(e)
    sub = (e.p + e.q < rep.sum_threshold and e.p < rep.single_threshold
           and e.q < rep.single_threshold)
    assert rep.is_supercritical == (not sub)
    assert bool(rep.triggers) == rep.is_supercritical


# ---------------------------------------------------------------------------
# rate algebra


def rate_order(rate):
    """Sort key of the rates from mildest to worst: bounded, log, then
    powers by exponent."""
    return (("bounded", "log", "power").index(rate.kind),
            rate.exponent or F(0))


def test_rate_normalization_and_order():
    assert SingularityRate.power(F(0)) == SingularityRate.bounded()
    assert SingularityRate.power(F(-1)) == SingularityRate.bounded()
    b, l, p1, p2 = map(rate_order, (
        SingularityRate.bounded(), SingularityRate.log(),
        SingularityRate.power(F(1)), SingularityRate.power(F(2))))
    assert b < l < p1 < p2


def test_green_riesz_rate_branches():
    P = SingularityRate.power
    # alpha = 2 is also the Green operator's rule
    assert riesz_rate(P(F(3, 2)), 5, F(2)) == SingularityRate.bounded()
    assert riesz_rate(P(F(1)), 5, F(2)) == SingularityRate.bounded()
    assert riesz_rate(P(F(3)), 5, F(2)) == P(F(1))
    assert riesz_rate(P(F(2)), 5, F(2)) == SingularityRate.log()
    with pytest.raises(ValueError):
        riesz_rate(P(F(5)), 5, F(2))
    with pytest.raises(ValueError):
        riesz_rate(P(F(6)), 5, F(2))


@given(rationals(0, 4).filter(lambda t: 0 < t < 4),
       rationals(0, 4).filter(lambda t: 0 < t < 4))
@settings(max_examples=200, deadline=None)
def test_rate_transfer_monotone(t1, t2):
    # monotone in tau under the rate partial order, N = 5, alpha = 2 (the
    # Green operator's rule) and 3/2
    lo, hi = min(t1, t2), max(t1, t2)
    P = SingularityRate.power
    assert rate_order(riesz_rate(P(lo), 5, F(2))) \
        <= rate_order(riesz_rate(P(hi), 5, F(2)))
    assert rate_order(riesz_rate(P(lo), 5, F(3, 2))) \
        <= rate_order(riesz_rate(P(hi), 5, F(3, 2)))


# ---------------------------------------------------------------------------
# bootstrap ledger: frozen exact values


def test_bootstrap_t1_cases():
    t1, case = bootstrap_t1(ProblemExponents(3, F(2), F(5, 2), F(1)))
    assert t1 == F(3) and case is BootstrapCase.P_ABOVE_ALPHA_CRITICAL
    t1, case = bootstrap_t1(ProblemExponents(3, F(2), F(2), F(1)))
    assert t1 is None and case is BootstrapCase.P_AT_ALPHA_CRITICAL
    t1, case = bootstrap_t1(ProblemExponents(3, F(2), F(3, 2), F(1)))
    assert t1 is None and case is BootstrapCase.P_BELOW_ALPHA_CRITICAL
    with pytest.raises(ValueError):
        bootstrap_t1(ProblemExponents(5, F(2), F(2), F(1)))  # supercritical


def test_bootstrap_t1_refuses_supercritical_exponents():
    # the one supercritical refusal, carrying the triggers it names
    with pytest.raises(SupercriticalError) as exc:
        bootstrap_t1(ProblemExponents(3, F(2), F(3), F(1)))
    assert exc.value.report.triggers == ("p",)
    assert str(exc.value).startswith("supercritical exponents (triggers: p);")


def test_ledger_4_1_65_1():
    e = ProblemExponents(4, F(1), F(6, 5), F(1))
    led = bootstrap_ledger(e)
    assert led.t1 == F(17, 7)
    assert led.case is BootstrapCase.P_ABOVE_ALPHA_CRITICAL
    assert list(led.T_seq) == [F(-2), F(-7, 5), F(-19, 50), F(677, 500)]
    assert led.n0 == 3
    # first-difference law with ratio q t1/(t1-1) = 17/10
    ratio = F(17, 10)
    diffs = [led.T_seq[i + 1] - led.T_seq[i] for i in range(len(led.T_seq) - 1)]
    for n, d in enumerate(diffs):
        assert d == ratio ** n * (led.T_seq[1] - led.T_seq[0])


def test_s_sequence_frozen():
    e = ProblemExponents(3, F(2), F(5, 2), F(1))
    assert s_sequence(e, F(11, 10)) == [F(11, 10), F(11, 2)]
    e4 = ProblemExponents(4, F(1), F(6, 5), F(1))
    assert s_sequence(e4, F(21, 20)) == [F(21, 20), F(420, 313), F(525, 152)]


def test_s_sequence_window_errors():
    e = ProblemExponents(3, F(2), F(5, 2), F(1))
    with pytest.raises(ValueError, match="nonpositive"):
        s_sequence(e, F(3, 2))
    with pytest.raises(ValueError, match="exceed 1"):
        s_sequence(e, F(1))
    with pytest.raises(ValueError, match="p-above"):
        s_sequence(ProblemExponents(3, F(2), F(2), F(1)))


def test_ledger_empty_outside_p_above():
    led = bootstrap_ledger(ProblemExponents(3, F(2), F(2), F(1)))
    assert led.case is BootstrapCase.P_AT_ALPHA_CRITICAL
    assert led.t1 is None and led.s_seq == () and led.T_seq == ()
    assert led.n0 is None and led.n1 is None


def assert_bootstrap_identities(e):
    """The rational identities bootstrap_t1 and T_sequence rest on."""
    t1, _ = bootstrap_t1(e)
    lhs = F(e.N) / (e.p * (e.N - 2) - e.alpha) / t1
    rhs = (t1 - 1) / t1 / e.q * F(e.N, e.N - 2)
    assert lhs == rhs, "balance identity"
    assert t1 > 1
    ratio = e.q * t1 / (t1 - 1)
    assert ratio == ((e.p + e.q) * (e.N - 2) - e.alpha) / F(e.N - 2)
    assert ratio > 1
    T, _ = T_sequence(e)
    assert T[0] == 2 - e.N
    assert T[1] == 2 + e.alpha - (e.p + e.q) * (e.N - 2)
    assert T[1] == 2 + ratio * T[0], "closed form of T_1 is the recursion"
    assert T[1] > T[0]


def test_bootstrap_identities_over_classification_table():
    p_above = [ProblemExponents(N, alpha, p, q)
               for N, alpha, p, q, crit, _ in CLASSIFICATION_TABLE
               if crit is Criticality.SUBCRITICAL]
    p_above = [e for e in p_above if bootstrap_case(e)
               is BootstrapCase.P_ABOVE_ALPHA_CRITICAL]
    assert len(p_above) == 2
    for e in p_above:
        assert_bootstrap_identities(e)


@given(exponent_tuples(subcritical=True))
@settings(max_examples=200, deadline=None)
def test_balance_identity(e):
    if bootstrap_case(e) is BootstrapCase.P_ABOVE_ALPHA_CRITICAL:
        assert_bootstrap_identities(e)


@given(exponent_tuples(subcritical=True))
@settings(max_examples=150, deadline=None)
def test_T_difference_law_and_growth(e):
    if bootstrap_case(e) is not BootstrapCase.P_ABOVE_ALPHA_CRITICAL:
        return
    t1, _ = bootstrap_t1(e)
    T, n0 = T_sequence(e)
    ratio = e.q * t1 / (t1 - 1)
    assert ratio > 1
    for n in range(1, len(T)):
        assert T[n] - T[n - 1] == ratio ** (n - 1) * (T[1] - T[0])
        assert T[n] > T[n - 1]
    assert T[n0] > 0
    assert all(x <= 0 for x in T[:n0])


@given(exponent_tuples(subcritical=True))
@settings(max_examples=150, deadline=None)
def test_s_sequence_growth(e):
    if bootstrap_case(e) is not BootstrapCase.P_ABOVE_ALPHA_CRITICAL:
        return
    seq = s_sequence(e)
    factor = F(e.N) / ((e.p + e.q) * (e.N - 2) - e.alpha)
    assert factor > 1
    for a, b in zip(seq, seq[1:]):
        assert b / a >= factor
        assert b > a


# ---------------------------------------------------------------------------
# smallness threshold


def test_k_threshold_frozen():
    k_q, t_q = k_threshold(1.0, 1.0, 1.0)
    assert math.isclose(k_q, 0.25, rel_tol=1e-14)
    assert math.isclose(t_q, 4.0, rel_tol=1e-14)
    k_q, t_q = k_threshold(2.0, 2.0, 1.0)
    assert math.isclose(k_q, math.sqrt(1.0 / 6.0) * (2.0 / 3.0), rel_tol=1e-14)
    assert math.isclose(t_q, 27.0 / 8.0, rel_tol=1e-14)
    with pytest.raises(ValueError):
        k_threshold(1.0, 0.5, 0.4)
    with pytest.raises(ValueError):
        k_threshold(0.0, 1.0, 1.0)


def test_k_threshold_vanishes_as_sum_to_one():
    # k_q ~ eps/e as p+q = 1+eps approaches 1 from above
    prev = None
    for eps in [1e-1, 1e-2, 1e-3, 1e-4]:
        k_q, _ = k_threshold(1.0, 1.0, eps)
        if prev is not None:
            assert k_q < prev
        prev = k_q
        assert math.isclose(k_q, eps / math.e, rel_tol=0.2)
    assert prev < 1e-3


def test_tangency_examples():
    ok, t = oracles.tangency_admissible(1.0, 0.25, 1.0, 1.0)
    assert ok and math.isclose(t, 4.0)
    ok, t = oracles.tangency_admissible(1.0, 0.3, 1.0, 1.0)
    assert not ok and t is None
    ok, t = oracles.tangency_admissible(1.0, 0.1, 1.0, 1.0)
    assert ok
    # the witness satisfies the domination inequality itself
    assert (1.0 * t * 0.1 ** 1 + 1.0) ** 2 <= t


@given(st.floats(0.1, 10.0), st.floats(0.2, 3.0), st.floats(1.0, 3.0))
@settings(max_examples=200, deadline=None)
def test_tangency_equality_at_threshold(c, p, q):
    k_q, t_q = k_threshold(c, p, q)
    s = p + q
    # the barrier inequality holds with equality at (k_q, t_q)
    lhs = (c * t_q * k_q ** (s - 1.0) + 1.0) ** s
    assert abs(lhs - t_q) <= 1e-9 * t_q
    ok, t = oracles.tangency_admissible(c, k_q, p, q)
    assert ok and math.isclose(t, t_q)
    ok, _ = oracles.tangency_admissible(c, k_q * 1.01, p, q)
    assert not ok
