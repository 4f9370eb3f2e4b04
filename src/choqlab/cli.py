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
import contextlib
import dataclasses
import json
import math
import os
import sys
from fractions import Fraction
from typing import Callable, NamedTuple, Optional

# the numeric modules load on first use (see the package docstring), so they
# are reached through their module, never from-imported: `classify` needs
# exponents and serialize alone and runs without numpy
from . import asymptotics, kernels, operators, solver, verify
from .exponents import (
    ProblemExponents,
    bootstrap_ledger,
    classify,
    k_threshold,
)
from .serialize import dumps_canonical, read_profile, sidecar_path, \
    write_csv, write_json, write_profile

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

# keyed by solver.SolveVerdict value
_VERDICT_EXIT = {
    "converged": EXIT_OK,
    "diverged": EXIT_DIVERGED,
    "undetermined": EXIT_UNDETERMINED,
}


class CommandError(Exception):
    """Carries the exit code the failure maps to."""

    def __init__(self, exit_code: int, message: str):
        super().__init__(message)
        self.exit_code = exit_code


def _read(value, json_types: tuple, what: str, parse):
    """parse(value) for a flag's text or a JSON value of json_types; a bool,
    any other type and text that does not parse are refused."""
    if not isinstance(value, bool) and isinstance(value, (str, *json_types)):
        try:
            return parse(value)
        except (ValueError, ZeroDivisionError, OverflowError):
            pass
    raise argparse.ArgumentTypeError(f"{json.dumps(value)} is not {what}")


def read_integer(value) -> int:
    return _read(value, (int,), "an integer", int)


def read_number(value) -> float:
    return _read(value, (int, float), "a number", float)


def parse_rational(value) -> Fraction:
    """Exact rational from 'a/b', a decimal string or an integer."""
    return _read(value, (int,), "a rational given exactly ('a/b', a decimal "
                 "string or an integer)", Fraction)


def read_path(value) -> str:
    return _read(value, (), "a path string", str)


# ---------------------------------------------------------------------------
# configuration assembly


_REQUIRED = object()
# the key is passed on only when a flag or the config gives it, so the
# solver's own default applies
_SOLVER_DEFAULT = object()


class _Setting(NamedTuple):
    read: Callable  # also the argparse type of the key's flag
    default: object = _REQUIRED
    help: Optional[str] = None


# every key a config file may hold, by section (None: the top level, which
# also holds the other sections)
_SETTINGS = {
    None: {"k": _Setting(read_number, help="point-source strength")},
    "exponents": {
        "N": _Setting(read_integer, help="dimension, N >= 3"),
        "alpha": _Setting(parse_rational,
                          help="potential order in (0, N), e.g. 2 or 5/2"),
        "p": _Setting(parse_rational),
        "q": _Setting(parse_rational)},
    "grid": {"r_min": _Setting(read_number, 1e-4),
             "r_max": _Setting(read_number, 30.0),
             "points_per_decade": _Setting(read_integer, 40)},
    "solver": {"max_iter": _Setting(read_integer, _SOLVER_DEFAULT),
               "conv_tol": _Setting(read_number, _SOLVER_DEFAULT)},
    "outputs": {key: _Setting(read_path, None)
                for key in ("profile_csv", "trace_json", "report_json")},
}


def _load_config_file(path: Optional[str]) -> dict:
    """The config file's values by section (None: the top level), each read
    by its key's reader; a file that holds a key nothing reads, or a value
    its reader refuses, is invalid input for every subcommand."""
    config = {}
    if path is not None:
        try:
            with open(path) as fh:
                config = json.load(fh)
        except OSError as exc:
            raise CommandError(EXIT_INVALID, f"cannot read config: {exc}")
        except json.JSONDecodeError as exc:
            raise CommandError(EXIT_INVALID,
                               f"config is not valid JSON: {exc}")
        if not isinstance(config, dict):
            raise CommandError(EXIT_INVALID, "config must be a JSON object")
    typed = {}
    for section in _SETTINGS:
        values = config if section is None else config.get(section, {})
        if not isinstance(values, dict):
            raise CommandError(EXIT_INVALID,
                               f"config {section} must be an object")
        # refused, so that a typo or a removed setting cannot pass for one
        # that took effect
        known = list(_SETTINGS[section])
        if section is None:
            known += filter(None, _SETTINGS)
        unknown = sorted(set(values) - set(known))
        if unknown:
            where = f"config {section}" if section else "config"
            raise CommandError(EXIT_INVALID, f"unknown {where} keys "
                                             f"{unknown}; known: {known}")
        typed[section] = {}
        for key, setting in _SETTINGS[section].items():
            if key in values:
                try:
                    typed[section][key] = setting.read(values[key])
                except argparse.ArgumentTypeError as exc:
                    where = f"{section}.{key}" if section else key
                    raise CommandError(EXIT_INVALID,
                                       f"config field {where}: {exc}")
    return typed


def _resolve(args, config: dict, section: Optional[str]) -> dict:
    """Each key of the section: its flag's value, else its config value,
    else its default; a required key given neither way is invalid input,
    and a key the solver defaults is left out."""
    resolved = {}
    for key, setting in _SETTINGS[section].items():
        value = getattr(args, key)
        if value is None:
            value = config[section].get(key, setting.default)
        if value is _REQUIRED:
            noun = "exponent" if section else "source strength"
            where = f"{section}.{key}" if section else key
            flag = "--" + key.replace("_", "-")
            raise CommandError(EXIT_INVALID, f"missing {noun} {key} (flag "
                                             f"{flag} or config {where})")
        if value is not _SOLVER_DEFAULT:
            resolved[key] = value
    return resolved


def _resolve_exponents(args, config: dict) -> ProblemExponents:
    try:
        return ProblemExponents(**_resolve(args, config, "exponents"))
    except ValueError as exc:
        raise CommandError(EXIT_INVALID, str(exc)) from exc


def _build_instance(args, config: dict, exponents: ProblemExponents,
                    k: float) -> solver.ProblemInstance:
    try:
        grid = operators.build_grid(**_resolve(args, config, "grid"))
        return solver.ProblemInstance(exponents, k=k, grid=grid,
                                      **_resolve(args, config, "solver"))
    except ValueError as exc:
        raise CommandError(EXIT_INVALID, str(exc)) from exc


@contextlib.contextmanager
def _float_range(grid, k=None):
    """Runs a command's numerics with overflow, invalid values and division
    by zero raised, the policy the tests run under, and refuses them as
    invalid input in one line that names the grid and k (a span such as
    r_min = 1e-200 takes the kernels past the largest double)."""
    import numpy as np  # here, so that classify runs without numpy
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except FloatingPointError as exc:
        at = "" if k is None else f" at k = {k}"
        raise CommandError(EXIT_INVALID, f"the numerics leave the float "
                                         f"range{at} on the grid {grid} "
                                         f"({exc})")


def _require_writable(paths, inputs=()) -> None:
    """Refuses, before any file is opened, an empty path, an existing
    directory, a path whose directory cannot be written, and an output
    that resolves to the same file as another output or an input."""
    named = {os.path.realpath(path): path for path in inputs}
    for path in paths:
        if path is None:
            continue
        if path == "" or os.path.isdir(path):
            raise CommandError(EXIT_INVALID, f"not a file path: {path!r}")
        parent = os.path.dirname(path) or "."
        if not os.path.isdir(parent) or not os.access(parent, os.W_OK):
            raise CommandError(EXIT_INVALID,
                               f"output directory not writable: {parent}")
        real = os.path.realpath(path)
        if real in named:
            raise CommandError(EXIT_INVALID, f"{named[real]!r} and {path!r} "
                                             f"name one file")
        named[real] = path


# ---------------------------------------------------------------------------
# JSON fragments shared by solve/report


def _exponents_dict(e: ProblemExponents) -> dict:
    return {"N": e.N, "alpha": str(e.alpha), "p": str(e.p), "q": str(e.q)}


def _singularity_dict(profile, e: ProblemExponents, k: float) -> dict:
    fit = asymptotics.fit_origin(
        profile, e.N, beta=asymptotics.origin_correction_exponent(e))
    target = kernels.c_N(e.N) * k
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
    fit = asymptotics.fit_decay(profile)
    return {"rate": fit.rate, "power": fit.algebraic_power,
            "window": list(fit.window), "residual": fit.residual}


def _probe_dict(e: ProblemExponents) -> dict:
    report = asymptotics.integrability_probe(e)
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
        "lower_bound_violation": asymptotics.check_lower_bound(profile, k,
                                                               e.N),
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
    inst = _build_instance(args, config, e, _resolve(args, config, None)["k"])
    outputs = _resolve(args, config, "outputs")
    profile_csv, trace_json, report_json = outputs.values()
    _require_writable([profile_csv, profile_csv and sidecar_path(profile_csv),
                       trace_json, report_json])
    solver.require_subcritical(e)

    with _float_range(inst.grid, inst.k):
        try:
            outcome = solver.solve_minimal(inst)
        except (solver.BarrierEstimateError, ValueError) as exc:
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
        # the analyses can still reject the profile; do that before any
        # file is written, so exit 2 leaves the filesystem untouched
        if report_json is not None:
            report = dict(summary)
            if outcome.profile is not None:
                try:
                    report.update(_analysis_report(outcome.profile, e,
                                                   inst.k))
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
    return _VERDICT_EXIT[outcome.verdict.value]


def cmd_sweep_k(args) -> int:
    config = _load_config_file(args.config)
    e = _resolve_exponents(args, config)
    # k on the template is a placeholder; every run replaces it
    inst = _build_instance(args, config, e, 1.0)
    if "k" in config[None]:
        raise CommandError(EXIT_INVALID, "sweep-k reads no config k")
    _require_writable([args.output])
    # both refusals come before c_hat builds the discretization
    solver.require_subcritical(e)
    try:
        solver.require_bisection_steps(args.steps)
    except ValueError as exc:
        raise CommandError(EXIT_INVALID, str(exc))

    with _float_range(inst.grid):
        # c_hat and every solve share one discretization
        try:
            c_hat = solver.estimate_barrier_constant(e, inst.grid)
        except (solver.BarrierEstimateError, ValueError) as exc:
            raise CommandError(EXIT_INVALID, str(exc))
        khat_q, t_q = k_threshold(c_hat, float(e.p), float(e.q))
        k_lo = args.k_lo if args.k_lo is not None else 0.5 * khat_q
        k_hi = args.k_hi if args.k_hi is not None else 50.0 * khat_q

        try:
            bracket = solver.estimate_kstar(inst, k_lo, k_hi, args.steps)
        except solver.BracketEndpointError as exc:
            raise CommandError(
                EXIT_INVALID, f"{exc}; widen the bracket so k_lo converges "
                              f"and k_hi diverges")
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
    _require_writable([args.report_json, args.plot_csv],
                      [args.profile_csv, sidecar_path(args.profile_csv)])
    solver.require_subcritical(e)
    try:
        profile = read_profile(args.profile_csv)
    except (OSError, ValueError, KeyError) as exc:
        raise CommandError(EXIT_INVALID, f"cannot load profile: {exc}")

    # everything is computed before the first write, so exit 2 leaves the
    # filesystem untouched
    with _float_range(profile.grid, args.k):
        try:
            report = {"annotation_warning": profile.annotation_warning,
                      **_analysis_report(profile, e, args.k)}
        except ValueError as exc:
            raise CommandError(EXIT_INVALID, str(exc))
        if args.plot_csv is not None:
            nodes = profile.grid.nodes
            plot = {"r": nodes, "u": profile.values,
                    "u_r_scaled": profile.values * nodes ** (e.N - 2),
                    "k_gamma0": args.k * kernels.gamma0(e.N, nodes)}
    write_json(args.report_json, report)
    if args.plot_csv is not None:
        write_csv(args.plot_csv, plot)
    sys.stdout.write(dumps_canonical({"report_json": args.report_json,
                                      "plot_csv": args.plot_csv}))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.csv is not None and args.suite != "kernels":
        raise CommandError(EXIT_INVALID,
                           "--csv only applies to the kernels suite")
    _require_writable([args.csv])
    ok = verify.run_suite(args.suite, sys.stdout, csv_path=args.csv)
    return EXIT_OK if ok else EXIT_SUITE_FAILED


# ---------------------------------------------------------------------------
# parser


def _add_config_flags(sub, *sections) -> None:
    """--config, and one flag per key of the sections, typed by the key's
    reader."""
    for section in sections:
        for key, setting in _SETTINGS[section].items():
            sub.add_argument("--" + key.replace("_", "-"), type=setting.read,
                             help=setting.help)
    sub.add_argument("--config", help="RunConfig JSON file")


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
    _add_config_flags(p_classify, "exponents")
    p_classify.set_defaults(func=cmd_classify)

    p_solve = subs.add_parser(
        "solve", allow_abbrev=False,
        help="run the monotone iteration and write its artifacts")
    _add_config_flags(p_solve, *_SETTINGS)
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = subs.add_parser(
        "sweep-k", allow_abbrev=False,
        help="bisect the existence threshold in k")
    _add_config_flags(p_sweep, "exponents", "grid", "solver")
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
    _add_config_flags(p_report, "exponents")
    p_report.add_argument("--k", type=read_number, required=True)
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
    except solver.SupercriticalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SUPERCRITICAL


if __name__ == "__main__":
    sys.exit(main())
