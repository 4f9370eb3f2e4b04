"""Command line front end for classification, solving, sweeps, and reports.

Exit codes are frozen for scripting: 0 success, 1 failed verification
suite, 2 invalid input, 3 supercritical exponents (refused before any
computation), 4 divergent iteration, 5 verdict undetermined within budget.
Validation runs before any output file is opened, so exits 2 and 3 leave
the filesystem untouched.  All files go through serialize.py and are
byte-identical across repeated runs of the same configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from fractions import Fraction
from typing import Optional

from .asymptotics import (
    check_lower_bound,
    fit_decay,
    fit_origin,
    integrability_probe,
    origin_correction_exponent,
)
from .exponents import (
    ProblemExponents,
    bootstrap_ledger,
    classify,
    k_threshold,
)
from .kernels import c_N, gamma0
from .operators import build_grid
from .serialize import dumps_canonical, read_profile, write_csv, \
    write_json, write_profile
from .solver import (
    BarrierEstimateError,
    BracketEndpointError,
    ProblemInstance,
    SolveVerdict,
    SupercriticalError,
    estimate_barrier_constant,
    estimate_kstar,
    require_subcritical,
    solve_minimal,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_SUITE_FAILED = 1
EXIT_INVALID = 2
EXIT_SUPERCRITICAL = 3
EXIT_DIVERGED = 4
EXIT_UNDETERMINED = 5

# the keys of verify.SUITES, named here so that only `verify` itself loads
# that module
VERIFY_SUITES = ("bootstrap", "kernels", "operators", "rates")

_VERDICT_EXIT = {
    SolveVerdict.CONVERGED: EXIT_OK,
    SolveVerdict.DIVERGED: EXIT_DIVERGED,
    SolveVerdict.MAX_ITERATIONS: EXIT_UNDETERMINED,
}


class CommandError(Exception):
    """Carries the exit code the failure maps to."""

    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


def parse_rational(text: str) -> Fraction:
    """Exact rational from 'a/b' or a decimal string; floats never appear."""
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a rational (use 'a/b' or a decimal string)"
        ) from exc


def _rational_from_config(value, name: str) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise CommandError(
            EXIT_INVALID,
            f"config field {name} must be a string or integer, not "
            f"{type(value).__name__}: rationals are parsed exactly")
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError) as exc:
        raise CommandError(EXIT_INVALID,
                           f"config field {name}: {exc}") from exc


def _int_from_config(value, name: str) -> int:
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise CommandError(
            EXIT_INVALID,
            f"config field {name} must be an integer or an integer string, "
            f"not {type(value).__name__}")
    try:
        return int(value)
    except ValueError as exc:
        raise CommandError(EXIT_INVALID,
                           f"config field {name}: {exc}") from exc


# ---------------------------------------------------------------------------
# configuration assembly


_GRID_DEFAULTS = {"r_min": 1e-4, "r_max": 30.0, "points_per_decade": 40}
# the stopping policy a solve accepts; its defaults are the solver's own
_SOLVER_DEFAULTS = {f.name: f.default
                    for f in dataclasses.fields(ProblemInstance)
                    if f.name in ("max_iter", "conv_tol")}


def _load_config_file(path: Optional[str]) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise CommandError(EXIT_INVALID, f"cannot read config: {exc}")
    except json.JSONDecodeError as exc:
        raise CommandError(EXIT_INVALID, f"config is not valid JSON: {exc}")
    if not isinstance(config, dict):
        raise CommandError(EXIT_INVALID, "config must be a JSON object")
    return config


def _config_section(config: dict, section: str) -> dict:
    value = config.get(section, {})
    if not isinstance(value, dict):
        raise CommandError(EXIT_INVALID, f"config {section} must be an object")
    return value


def _resolve_exponents(args, config: dict) -> ProblemExponents:
    section = _config_section(config, "exponents")
    fields = {}
    for name in ("N", "alpha", "p", "q"):
        flag = getattr(args, name)
        if flag is not None:
            fields[name] = flag
        elif name in section:
            parse = _int_from_config if name == "N" else _rational_from_config
            fields[name] = parse(section[name], f"exponents.{name}")
        else:
            raise CommandError(EXIT_INVALID,
                               f"missing exponent {name} (flag --{name} "
                               f"or config exponents.{name})")
    try:
        return ProblemExponents(**fields)
    except (TypeError, ValueError) as exc:
        raise CommandError(EXIT_INVALID, str(exc)) from exc


def _merged_section(args, config: dict, section: str, defaults: dict) -> dict:
    merged = dict(defaults)
    file_section = _config_section(config, section)
    # a key nothing reads is refused, so that a typo or a setting that was
    # removed cannot pass for one that took effect
    unknown = sorted(set(file_section) - set(defaults))
    if unknown:
        raise CommandError(EXIT_INVALID,
                           f"unknown config {section} keys {unknown}; "
                           f"known: {list(defaults)}")
    for key in merged:
        if key in file_section:
            merged[key] = file_section[key]
        flag = getattr(args, key)
        if flag is not None:
            merged[key] = flag
    return merged


def _build_instance(args, config: dict, exponents: ProblemExponents,
                    k) -> ProblemInstance:
    grid_cfg = _merged_section(args, config, "grid", _GRID_DEFAULTS)
    solver_cfg = _merged_section(args, config, "solver", _SOLVER_DEFAULTS)
    if k is None:
        raise CommandError(EXIT_INVALID, "missing source strength k "
                                         "(flag --k or config k)")
    try:
        grid = build_grid(float(grid_cfg["r_min"]), float(grid_cfg["r_max"]),
                          int(grid_cfg["points_per_decade"]))
        return ProblemInstance(exponents, k=float(k), grid=grid,
                               max_iter=int(solver_cfg["max_iter"]),
                               conv_tol=float(solver_cfg["conv_tol"]))
    except (TypeError, ValueError) as exc:
        raise CommandError(EXIT_INVALID, str(exc)) from exc


def _resolve_output(args, config: dict, name: str) -> Optional[str]:
    flag = getattr(args, name)
    if flag is not None:
        return flag
    value = _config_section(config, "outputs").get(name)
    return None if value is None else str(value)


def _require_writable(paths) -> None:
    for path in paths:
        if path is None:
            continue
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
            raise CommandError(EXIT_INVALID,
                               f"output directory not writable: {parent}")


# ---------------------------------------------------------------------------
# JSON fragments shared by solve/report


def _exponents_dict(e: ProblemExponents) -> dict:
    return {"N": e.N, "alpha": str(e.alpha), "p": str(e.p), "q": str(e.q)}


def _singularity_dict(profile, e: ProblemExponents, k: float) -> dict:
    fit = fit_origin(profile, e.N, beta=origin_correction_exponent(e))
    target = c_N(e.N) * k
    return {
        "limit": fit.limit_estimate,
        "c_N_times_k": target,
        "rel_err": abs(fit.limit_estimate - target) / target,
        "correction_exponent": fit.correction_exponent,
        "window": list(fit.window),
        "residual": fit.residual,
        "accepted": fit.accepted,
    }


def _decay_dict(profile) -> dict:
    fit = fit_decay(profile)
    return {"rate": fit.rate, "power": fit.algebraic_power,
            "window": list(fit.window), "residual": fit.residual}


def _probe_dict(e: ProblemExponents) -> dict:
    report = integrability_probe(e)
    return {
        "exponents": _exponents_dict(e),
        "growth_class": report.growth_class.value,
        "power_rate": report.power_rate,
        "epsilons": list(report.epsilons),
        "partial_integrals": list(report.partial_integrals),
    }


def _analysis_report(profile, e: ProblemExponents, k: float) -> dict:
    return {
        "singularity": _singularity_dict(profile, e, k),
        "decay": _decay_dict(profile),
        "lower_bound_violation": check_lower_bound(profile, k, e.N),
        "probes": [_probe_dict(e)],
    }


# ---------------------------------------------------------------------------
# subcommands


def cmd_classify(args) -> int:
    config = _load_config_file(args.config)
    e = _resolve_exponents(args, config)
    report = classify(e)
    out = {
        "class": report.criticality.value,
        "triggers": list(report.triggers),
        "thresholds": {"p_plus_q": report.sum_threshold,
                       "p_or_q": report.single_threshold},
    }
    if not report.is_supercritical:
        ledger = bootstrap_ledger(e)
        out["bootstrap"] = {
            "case": ledger.case.value,
            "t1": ledger.t1,
            "s_seq": list(ledger.s_seq),
            "T_seq": list(ledger.T_seq),
            "n0": ledger.n0,
            "n1": ledger.n1,
        }
    sys.stdout.write(dumps_canonical(out))
    return EXIT_OK


def cmd_solve(args) -> int:
    config = _load_config_file(args.config)
    e = _resolve_exponents(args, config)
    inst = _build_instance(args, config, e,
                           args.k if args.k is not None else config.get("k"))
    profile_csv = _resolve_output(args, config, "profile_csv")
    trace_json = _resolve_output(args, config, "trace_json")
    report_json = _resolve_output(args, config, "report_json")
    _require_writable([profile_csv, trace_json, report_json])
    require_subcritical(e)

    try:
        outcome = solve_minimal(inst)
    except (BarrierEstimateError, ValueError) as exc:
        raise CommandError(EXIT_INVALID, str(exc))
    summary = {
        "verdict": outcome.verdict.value,
        "iterations": outcome.iterations,
        "k": inst.k,
        "barrier_constant": outcome.barrier_constant,
        "k_threshold_estimate": outcome.k_threshold_estimate,
        "barrier_active": outcome.barrier_active,
        "fixed_point_residual": outcome.fixed_point_residual,
        "stop_reason": outcome.stop_reason,
        "annotation_warning": outcome.annotation_warning,
    }
    # the analyses can still reject the profile; do that before any file
    # is written, so exit 2 leaves the filesystem untouched
    if report_json is not None:
        report = {"verdict": outcome.verdict.value, **summary}
        if outcome.profile is not None:
            try:
                report.update(_analysis_report(outcome.profile, e, inst.k))
            except ValueError as exc:
                raise CommandError(EXIT_INVALID, str(exc))
        else:
            report.update({"singularity": None, "decay": None,
                           "lower_bound_violation": None, "probes": []})

    if profile_csv is not None and outcome.profile is not None:
        write_profile(profile_csv, outcome.profile)
        summary["profile_csv"] = profile_csv
    if trace_json is not None:
        write_json(trace_json, {
            "verdict": outcome.verdict.value,
            "iterations": outcome.iterations,
            "stop_reason": outcome.stop_reason,
            **dataclasses.asdict(outcome.trace),
        })
        summary["trace_json"] = trace_json
    if report_json is not None:
        write_json(report_json, report)
        summary["report_json"] = report_json

    sys.stdout.write(dumps_canonical(summary))
    return _VERDICT_EXIT[outcome.verdict]


def cmd_sweep_k(args) -> int:
    config = _load_config_file(args.config)
    e = _resolve_exponents(args, config)
    # k on the template is a placeholder; every run replaces it
    inst = _build_instance(args, config, e, 1.0)
    if "k" in config:
        raise CommandError(EXIT_INVALID, "sweep-k reads no config k")
    _require_writable([args.output])

    # refuses supercritical e; c_hat and every solve share one discretization
    try:
        c_hat = estimate_barrier_constant(e, inst.grid)
    except BarrierEstimateError as exc:
        raise CommandError(EXIT_INVALID, str(exc))
    khat_q, t_q = k_threshold(c_hat, float(e.p), float(e.q))
    k_lo = args.k_lo if args.k_lo is not None else 0.5 * khat_q
    k_hi = args.k_hi if args.k_hi is not None else 50.0 * khat_q

    try:
        bracket = estimate_kstar(inst, k_lo, k_hi, args.steps)
    except BracketEndpointError as exc:
        raise CommandError(
            EXIT_INVALID,
            f"{exc}; widen the bracket so k_lo converges and k_hi diverges")
    except ValueError as exc:
        raise CommandError(EXIT_INVALID, str(exc))

    out = {
        "chat": c_hat,
        "khat_q": khat_q,
        "t_q": t_q,
        "k_conv": bracket.k_conv,
        "k_div": bracket.k_div,
        "halted_undetermined": bracket.halted_undetermined,
        "evaluations": [{"k": k, "verdict": vd.value}
                        for k, vd in bracket.evaluations],
    }
    sys.stdout.write(dumps_canonical(out))
    if args.output is not None:
        write_json(args.output, out)
    return EXIT_UNDETERMINED if bracket.halted_undetermined else EXIT_OK


def cmd_report(args) -> int:
    e = _resolve_exponents(args, _load_config_file(args.config))
    if not (math.isfinite(args.k) and args.k > 0):
        raise CommandError(EXIT_INVALID,
                           f"k must be positive, got {args.k}")
    _require_writable([args.report_json, args.plot_csv])
    require_subcritical(e)
    try:
        profile = read_profile(args.profile_csv)
    except (OSError, ValueError, KeyError) as exc:
        raise CommandError(EXIT_INVALID, f"cannot load profile: {exc}")

    try:
        report = {"annotation_warning": profile.annotation_warning,
                  **_analysis_report(profile, e, args.k)}
    except ValueError as exc:
        raise CommandError(EXIT_INVALID, str(exc))
    write_json(args.report_json, report)
    if args.plot_csv is not None:
        nodes = profile.grid.nodes
        scaled = profile.values * nodes ** (e.N - 2)
        floor = args.k * gamma0(e.N, nodes)
        write_csv(args.plot_csv, {"r": nodes, "u": profile.values,
                                  "u_r_scaled": scaled, "k_gamma0": floor})
    sys.stdout.write(dumps_canonical({"report_json": args.report_json,
                                      "plot_csv": args.plot_csv}))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.csv is not None and args.suite != "kernels":
        raise CommandError(EXIT_INVALID,
                           "--csv only applies to the kernels suite")
    _require_writable([args.csv])
    from .verify import run_suite
    ok = run_suite(args.suite, sys.stdout, csv_path=args.csv)
    return EXIT_OK if ok else EXIT_SUITE_FAILED


# ---------------------------------------------------------------------------
# parser


def _add_exponent_flags(sub) -> None:
    sub.add_argument("--N", type=int, help="dimension, N >= 3")
    sub.add_argument("--alpha", type=parse_rational,
                     help="potential order in (0, N), e.g. 2 or 5/2")
    sub.add_argument("--p", type=parse_rational)
    sub.add_argument("--q", type=parse_rational)
    sub.add_argument("--config", help="RunConfig JSON file")


def _add_instance_flags(sub) -> None:
    sub.add_argument("--r-min", dest="r_min", type=float)
    sub.add_argument("--r-max", dest="r_max", type=float)
    sub.add_argument("--points-per-decade", dest="points_per_decade",
                     type=int)
    sub.add_argument("--max-iter", dest="max_iter", type=int)
    sub.add_argument("--conv-tol", dest="conv_tol", type=float)


def build_parser() -> argparse.ArgumentParser:
    # no flag abbreviations: a prefix of a live flag, a retired one or a
    # misspelt one, must not pass for it
    parser = argparse.ArgumentParser(
        prog="choqlab", allow_abbrev=False,
        description="Radial laboratory for singular profiles of a "
                    "nonlocal elliptic equation with a point source")
    subs = parser.add_subparsers(dest="command", required=True)

    p_classify = subs.add_parser(
        "classify", allow_abbrev=False,
        help="criticality class and exact bootstrap ledgers")
    _add_exponent_flags(p_classify)
    p_classify.set_defaults(func=cmd_classify)

    p_solve = subs.add_parser(
        "solve", allow_abbrev=False,
        help="run the monotone iteration and write its artifacts")
    _add_exponent_flags(p_solve)
    p_solve.add_argument("--k", type=float, help="point-source strength")
    _add_instance_flags(p_solve)
    p_solve.add_argument("--profile-csv", dest="profile_csv")
    p_solve.add_argument("--trace-json", dest="trace_json")
    p_solve.add_argument("--report-json", dest="report_json")
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = subs.add_parser(
        "sweep-k", allow_abbrev=False,
        help="bisect the existence threshold in k")
    _add_exponent_flags(p_sweep)
    _add_instance_flags(p_sweep)
    p_sweep.add_argument("--k-lo", dest="k_lo", type=float,
                         help="convergent endpoint (default khat_q / 2)")
    p_sweep.add_argument("--k-hi", dest="k_hi", type=float,
                         help="divergent endpoint (default 50 khat_q)")
    p_sweep.add_argument("--steps", type=int, default=12)
    p_sweep.add_argument("--output", help="also write the bracket JSON here")
    p_sweep.set_defaults(func=cmd_sweep_k)

    p_report = subs.add_parser(
        "report", allow_abbrev=False,
        help="asymptotic analyses of a stored profile")
    _add_exponent_flags(p_report)
    p_report.add_argument("--k", type=float, required=True)
    p_report.add_argument("--profile-csv", dest="profile_csv", required=True)
    p_report.add_argument("--report-json", dest="report_json", required=True)
    p_report.add_argument("--plot-csv", dest="plot_csv")
    p_report.set_defaults(func=cmd_report)

    p_verify = subs.add_parser(
        "verify", allow_abbrev=False,
        help="self-audit suites with TAP output")
    p_verify.add_argument("suite", choices=VERIFY_SUITES)
    p_verify.add_argument("--csv", help="kernels suite: audit CSV path")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except SupercriticalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SUPERCRITICAL


if __name__ == "__main__":
    sys.exit(main())
