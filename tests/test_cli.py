"""End-to-end command line behavior: exit codes, file contracts, determinism.

Runs main() in process on a reduced grid (r in [1e-3, 20], 20 points per
decade) so each solve stays fast; the exit-code contract is 0 ok, 1 failed
verify suite, 2 invalid input, 3 supercritical, 4 diverged, 5 undetermined.
"""

import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import choqlab.cli
import choqlab.solver
import choqlab.verify
from choqlab.cli import main, parse_rational
from choqlab.kernels import green_halfline_factors
from choqlab.operators import NonIntegrableOriginError, RadialGrid, build_grid
from choqlab.serialize import format_float, read_profile
from choqlab.solver import BarrierEstimateError

GOLDEN = Path(__file__).parent / "golden"

FLAGS = ["--N", "3", "--alpha", "2", "--p", "2", "--q", "1"]
FLAGS_41 = ["--N", "4", "--alpha", "1", "--p", "6/5", "--q", "1"]
FAST_GRID = ["--r-min", "1e-3", "--r-max", "20", "--points-per-decade", "20"]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# rational parsing


def test_parse_rational_exact_forms():
    assert parse_rational("5/2") == Fraction(5, 2)
    assert parse_rational("2.5") == Fraction(5, 2)
    assert parse_rational("2") == Fraction(2)
    with pytest.raises(Exception):
        parse_rational("two")


def test_argparse_rejects_malformed_rational():
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--N", "3", "--alpha", "x", "--p", "2", "--q", "1"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------------
# classify


def test_classify_subcritical_with_ledger(capsys):
    code, out, _ = run_cli(capsys, "classify", *FLAGS)
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "subcritical"
    assert doc["triggers"] == []
    assert doc["thresholds"] == {"p_plus_q": "5", "p_or_q": "3"}
    assert doc["bootstrap"]["case"] == "p_at_alpha_critical"
    assert doc["bootstrap"]["t1"] is None


def test_classify_exact_ledger_values(capsys):
    code, out, _ = run_cli(capsys, "classify", "--N", "4", "--alpha", "1",
                           "--p", "6/5", "--q", "1")
    assert code == 0
    boot = json.loads(out)["bootstrap"]
    assert boot["t1"] == "17/7"
    assert boot["T_seq"] == ["-2", "-7/5", "-19/50", "677/500"]
    assert boot["n0"] == 3


def test_classify_supercritical_names_triggers(capsys):
    code, out, _ = run_cli(capsys, "classify", "--N", "3", "--alpha", "2",
                           "--p", "3", "--q", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["class"] == "supercritical"
    assert doc["triggers"] == ["p"]
    assert "bootstrap" not in doc


def test_classify_invalid_alpha(capsys):
    code, _, err = run_cli(capsys, "classify", "--N", "3", "--alpha", "4",
                           "--p", "1", "--q", "1")
    assert code == 2
    assert "alpha" in err


def test_classify_missing_exponent(capsys):
    code, _, err = run_cli(capsys, "classify", "--N", "3", "--alpha", "2",
                           "--p", "2")
    assert code == 2
    assert "missing exponent q" in err


# ---------------------------------------------------------------------------
# solve


def solve_args(tmp_path, k="0.4", exponents=FLAGS):
    return ["solve", *exponents, *FAST_GRID, "--k", k,
            "--profile-csv", str(tmp_path / "u.csv"),
            "--trace-json", str(tmp_path / "trace.json"),
            "--report-json", str(tmp_path / "report.json")]


def test_solve_converged_writes_everything(capsys, tmp_path):
    code, out, _ = run_cli(capsys, *solve_args(tmp_path))
    assert code == 0
    summary = json.loads(out)
    assert summary["verdict"] == "converged"
    assert summary["barrier_active"] is True
    assert summary["stop_reason"] == "bound"
    assert summary["annotation_warning"] is False

    report = json.loads((tmp_path / "report.json").read_text())
    assert report["stop_reason"] == "bound"
    assert report["annotation_warning"] is False
    assert report["singularity"]["rel_err"] <= 0.05
    assert report["singularity"]["accepted"] is True
    assert report["lower_bound_violation"] <= 1e-8
    assert 0.4 <= report["decay"]["rate"] <= 1.05
    assert report["probes"][0]["growth_class"] == "convergent"

    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["verdict"] == "converged"
    assert len(trace["sup_norms"]) == trace["iterations"] + 1
    assert max(trace["mono_violations"]) <= 1e-8
    assert trace["stop_reason"] == "bound"
    for key in ("methods", "rel_deltas", "ratios", "bounds",
                "jacobian_products"):
        assert len(trace[key]) == trace["iterations"], key
    assert trace["ratios"][0] is None and trace["bounds"][0] is None
    assert trace["bounds"][-1] < 1e-8

    header = (tmp_path / "u.csv").read_text().splitlines()[0]
    assert header == "r,value"
    meta = json.loads((tmp_path / "u.csv.meta.json").read_text())
    assert meta["origin_exponent"] == 1.0
    assert meta["annotation_warning"] is False


def test_solve_near_the_fold_reports_newton_steps(capsys, tmp_path):
    code, out, _ = run_cli(capsys, *solve_args(tmp_path, k="3.2"))
    assert code == 0
    assert json.loads(out)["stop_reason"] == "newton"
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert "newton" in trace["methods"]
    assert sum(trace["jacobian_products"]) > 0


def test_solve_outputs_are_byte_identical(capsys, tmp_path):
    # the golden files pin the bytes across versions, not only between two
    # runs; at alpha = 2 the Riesz kernel's 2F1 is identically 1, so only the
    # alpha = 1 case checks its hypergeometric factor.  The (3,2,2,1) files
    # were re-recorded when the alpha = 2 Riesz operator moved from the
    # Toeplitz correlation to the semiseparable sums: u.csv moved by at
    # most 2.1e-16 relative, report.json's probes.partial_integrals by
    # 6.4e-14, its barrier_constant by 1.1e-15 and k_threshold_estimate by
    # 4.8e-16; trace.json, the sidecar and every verdict kept their bytes.
    # The (4,1,6/5,1) files were re-recorded when the far rows and cells of
    # its alpha = 1 Riesz operator moved to the Gauss-series moments and
    # the Green K_0/K_1 trapezoid to a node-by-node sum: 12 u.csv values
    # moved by at most 7.0e-16 relative, 10 trace.json barrier_margins by
    # 4.2e-16 and one sup_norms entry by 1.4e-16; report.json, the sidecar,
    # every verdict, stop reason and iteration count kept their bytes.
    # They were re-recorded again when the Toeplitz cells of that operator
    # moved to the row evaluator of its columns: 2 u.csv values moved by at
    # most 1.4e-16 relative, 3 trace.json bounds and ratios and 2 rel_deltas
    # by at most 7.3e-14, and report.json's probes.partial_integrals by
    # 1.9e-16; the sidecar, every verdict, stop reason and iteration count
    # kept their bytes.  Both were re-recorded when every Gauss-Legendre
    # rule moved to the Golub-Welsch one, log_step to the mean step and the
    # semiseparable cells to their own log ratio: (3,2,2,1) report.json's
    # probes.partial_integrals moved by 1.9e-14, barrier_constant by
    # 6.4e-16 and k_threshold_estimate by 2.4e-16, its other files kept
    # their bytes; (4,1,6/5,1) u.csv moved 6 values by at most 1.9e-16,
    # trace.json's rel_deltas, ratios and bounds by at most 4.9e-13,
    # report.json's fixed_point_residual by 1.1e-16 absolute (7e-8
    # relative) and probes.partial_integrals by 1.0e-14, the sidecar kept
    # its bytes, and so did every verdict, stop reason and iteration count.
    # The (4,1,6/5,1) files were re-recorded once more when every series of
    # the Riesz 2F1 moved to cached coefficients summed by Horner's rule,
    # split once at z = 1/2: 3 u.csv values moved by at most 1.9e-16
    # relative and report.json's probes.partial_integrals by 7.6e-16;
    # trace.json, the sidecar, every verdict, stop reason and iteration
    # count kept their bytes, and so did the (3,2,2,1) files.  All were
    # re-recorded when the grid nodes moved from np.geomspace to the
    # standard library's exp and the Bessel series to cached tables summed
    # by Horner's rule: u.csv's r column moved 59 of 87 nodes by at most
    # 1.3e-15 relative and its values by at most 1.6e-14 (the slope of u
    # times the node move); in report.json the fit keys decay.rate, power,
    # window and residual and singularity.residual moved by at most
    # 1.8e-12 (decay.residual of (3,2,2,1) by 3.2e-10) and
    # probes.partial_integrals by 2.2e-16; the (4,1,6/5,1) trace.json
    # rel_deltas, ratios and bounds by at most 3.1e-11; (3,2,2,1)
    # trace.json and both sidecars kept their bytes, and so did every
    # verdict, stop reason and iteration count.  All were re-recorded when
    # every float moved to its shortest round-trip repr: only number text
    # changed, each number reads back as the same double, and the floats
    # with an integer value (a window end, a sidecar exponent) gained ".0"
    for golden, args in (
            ("solve_3_2_2_1_ppd20_k0.4", solve_args(tmp_path)),
            ("solve_4_1_6-5_1_ppd20_k0.5",
             solve_args(tmp_path, "0.5", FLAGS_41))):
        run_cli(capsys, *args)
        first = {name: (tmp_path / name).read_bytes()
                 for name in ("u.csv", "u.csv.meta.json", "trace.json",
                              "report.json")}
        run_cli(capsys, *args)
        for name, blob in first.items():
            assert (tmp_path / name).read_bytes() == blob
            assert blob == (GOLDEN / golden / name).read_bytes(), \
                (golden, name)


def test_solve_divergent_exit_code_and_partial_outputs(capsys, tmp_path):
    code, out, _ = run_cli(capsys, *solve_args(tmp_path, k="100"))
    assert code == 4
    assert json.loads(out)["verdict"] == "diverged"
    assert json.loads(out)["stop_reason"] == "cap"
    assert not (tmp_path / "u.csv").exists()
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert trace["verdict"] == "diverged"
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "diverged"
    assert report["singularity"] is None


def test_solve_supercritical_gate_writes_nothing(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve", "--N", "3", "--alpha", "2",
                           "--p", "3", "--q", "1", *FAST_GRID, "--k", "0.4",
                           "--profile-csv", str(tmp_path / "u.csv"),
                           "--report-json", str(tmp_path / "report.json"))
    assert code == 3
    assert "triggers: p" in err
    assert list(tmp_path.iterdir()) == []


def test_solve_invalid_inputs_write_nothing(capsys, tmp_path):
    code, _, err = run_cli(capsys, "solve", *FLAGS, *FAST_GRID, "--k", "-1",
                           "--report-json", str(tmp_path / "report.json"))
    assert code == 2 and "k must be positive" in err
    code, _, err = run_cli(capsys, "solve", *FLAGS, "--k", "0.4",
                           "--r-min", "0.5", "--r-max", "20",
                           "--points-per-decade", "20",
                           "--report-json", str(tmp_path / "report.json"))
    assert code == 2 and "r_min" in err
    code, _, err = run_cli(capsys, "solve", *FLAGS, *FAST_GRID, "--k", "0.4",
                           "--report-json",
                           str(tmp_path / "no_such_dir" / "report.json"))
    assert code == 2 and "not writable" in err
    assert list(tmp_path.iterdir()) == []


def test_solve_analysis_error_exits_2_and_writes_nothing(capsys, tmp_path):
    # at 4 ppd the tail window holds fewer than three nodes, so the decay
    # fit rejects the converged profile; that is invalid input, decided
    # before any artifact is written
    code, _, err = run_cli(capsys, "solve", *FLAGS, "--k", "0.5",
                           "--r-min", "1e-3", "--r-max", "20",
                           "--points-per-decade", "4",
                           "--profile-csv", str(tmp_path / "u.csv"),
                           "--trace-json", str(tmp_path / "trace.json"),
                           "--report-json", str(tmp_path / "report.json"))
    assert code == 2
    assert "tail window has fewer than three nodes" in err
    assert list(tmp_path.iterdir()) == []


def refused_r_max_message(capsys, tmp_path, flags, r_max):
    """stderr of a solve that must exit 2 before writing anything."""
    code, out, err = run_cli(capsys, "solve", *flags, "--r-max", r_max,
                             "--points-per-decade", "5", "--k", "0.4",
                             "--profile-csv", str(tmp_path / "u.csv"),
                             "--trace-json", str(tmp_path / "trace.json"),
                             "--report-json", str(tmp_path / "report.json"))
    assert code == 2 and out == ""
    assert list(tmp_path.iterdir()) == []
    return err


def test_solve_beyond_the_float_safe_r_max_exits_2(capsys, tmp_path):
    # the Green moments y0(s) s^N h overflow near r = 700, so the instance
    # refuses r_max past solver.r_max_ceiling(N) before anything is
    # assembled or written
    err = refused_r_max_message(capsys, tmp_path, FLAGS, "1000")
    assert "20 <= r_max <= 691 for N = 3" in err


@pytest.mark.parametrize("flags, ceiling", [(FLAGS, "691 for N = 3"),
                                            (FLAGS_41, "687 for N = 4")])
def test_r_max_ceiling_falls_with_N(capsys, tmp_path, flags, ceiling):
    # at r_max = 700 the N = 4 moments overflow on most grids, and the
    # N = 3 ones on grids of 7-12 points per decade
    err = refused_r_max_message(capsys, tmp_path, flags, "700")
    assert f"20 <= r_max <= {ceiling}, where the Green moments stay " \
        f"finite, got 700" in err


@pytest.mark.parametrize("ppd", ["5", "8"])
def test_solve_at_the_r_max_ceiling_raises_no_runtime_warning(capsys, ppd):
    # pytest turns RuntimeWarning into an error, so an overflow anywhere
    # in the run would end it in a traceback; the Green tail rule reaches
    # s = r_max + 48, where only yinf may be evaluated.  The barrier then
    # peaks at the grid end, as a solution decaying like e^{-r} underflows
    code, out, err = run_cli(capsys, "solve", *FLAGS, "--r-max", "691",
                             "--points-per-decade", ppd, "--k", "0.4")
    assert code == 2 and out == ""
    assert "barrier ratio peaks at grid end (r = 691)" in err


def test_solve_end_peak_names_both_remedies(capsys):
    # at 20 points per decade the cells near r = 300 are 37 units wide, so
    # the end peak comes from under-resolved outer cells, not a short grid;
    # at 80 points per decade the same call gets past the barrier estimate
    wide = ["--N", "3", "--alpha", "4/5", "--p", "1/2", "--q", "1",
            "--k", "0.3", "--r-max", "300"]
    code, out, err = run_cli(capsys, "solve", *wide,
                             "--points-per-decade", "20")
    assert code == 2 and out == ""
    assert err == ("error: barrier ratio peaks at grid end (r = 300); use "
                   "more points per decade, or widen the grid\n")
    code, out, err = run_cli(capsys, "solve", *wide,
                             "--points-per-decade", "80")
    assert code != 2 and "barrier ratio" not in err


def test_solve_other_solve_errors_exit_2(capsys, tmp_path, monkeypatch):
    exc = NonIntegrableOriginError("green", 3.5, 3)

    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr(choqlab.solver, "solve_minimal", failing)
    code, out, err = run_cli(capsys, *solve_args(tmp_path))
    assert code == 2 and out == ""
    assert err == f"error: {exc}\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("r_min, r_max", [("1e-4", "inf"),
                                          ("1e-308", "1e308")])
def test_solve_refuses_a_span_without_a_finite_ratio(capsys, tmp_path, r_min,
                                                     r_max):
    # the node count round(ppd log10(r_max/r_min)) has no value there
    code, out, err = run_cli(
        capsys, "solve", *FLAGS, "--k", "0.4", "--r-min", r_min,
        "--r-max", r_max, "--profile-csv", str(tmp_path / "u.csv"),
        "--trace-json", str(tmp_path / "trace.json"),
        "--report-json", str(tmp_path / "report.json"))
    assert code == 2 and out == ""
    assert err.startswith("error: need 0 < r_min < r_max with a finite ratio")
    assert list(tmp_path.iterdir()) == []


def test_solve_reads_config_file(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    config = {
        "exponents": {"N": 3, "alpha": "2", "p": "2", "q": "1"},
        "k": 0.4,
        "grid": {"r_min": 1e-3, "r_max": 20.0, "points_per_decade": 20},
        "solver": {"max_iter": 500},
        "outputs": {"report_json": str(report_path)},
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "solve", "--config", str(cfg))
    assert code == 0
    assert report_path.exists()
    # flags override config values
    code, _, _ = run_cli(capsys, "solve", "--config", str(cfg), "--k", "100")
    assert code == 4


@pytest.mark.parametrize("section, key", [
    ("solver", "conv_tl"), ("grid", "ppd"), ("outputs", "report_jsn"),
    ("exponents", "beta"), (None, "grd")])
def test_unknown_config_keys_are_refused(capsys, tmp_path, section, key):
    # a misspelt key would otherwise leave its setting at the default, or
    # write no report; a misspelt section, None here, would leave all of
    # its settings there
    config = tmp_path / "config.json"
    entry = {key: 1e-14} if section is None else {section: {key: 1e-14}}
    config.write_text(json.dumps({"k": 0.4, **entry}))
    where = "config" if section is None else f"config {section}"
    solve = ["solve", *FLAGS, *FAST_GRID, "--config", str(config),
             "--report-json", str(tmp_path / "r.json")]
    for argv in (solve, ["classify", *FLAGS, "--config", str(config)]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv[0]
        assert f"unknown {where} keys ['{key}']; known: [" in err, argv[0]
        assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("section", ["exponents", "grid", "solver",
                                     "outputs"])
@pytest.mark.parametrize("value", [[], "Nalphapq"])
def test_config_sections_must_be_objects(capsys, tmp_path, section, value):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "exponents": {"N": 3, "alpha": "2", "p": "2", "q": "1"},
        "k": 0.4, section: value}))
    code, out, err = run_cli(capsys, "solve", "--config", str(config))
    assert code == 2 and out == ""
    assert err == f"error: config {section} must be an object\n"
    assert list(tmp_path.iterdir()) == [config]


CONFIG_VALID = {
    "exponents": {"N": 3, "alpha": "2", "p": "2", "q": "1"},
    "k": 0.4,
    "grid": {"r_min": 1e-3, "r_max": 20.0, "points_per_decade": 20},
    "solver": {"max_iter": 500, "conv_tol": 1e-8},
}
# every config key by section (None: the top level), each with a value of
# a JSON type other than its own: a float where an integer or an exact
# rational is due, a number for a path (None: any number is a number)
CONFIG_WRONG_TYPE = {
    None: {"k": None},
    "exponents": {"N": 3.0, "alpha": 2.0, "p": 2.0, "q": 1.0},
    "grid": {"r_min": None, "r_max": None, "points_per_decade": 20.0},
    "solver": {"max_iter": 500.0, "conv_tol": None},
    "outputs": {"profile_csv": 1, "trace_json": 1, "report_json": 1},
}
CONFIG_EXPONENT_CASES = [
    ("exponents", {"N": 3, "alpha": 2.0, "p": "2", "q": "1"}, "exactly"),
    # an integer string is a valid N, so the float alpha is what fails
    ("exponents", {"N": "3", "alpha": 2.0, "p": "2", "q": "1"}, "exactly"),
    ("exponents", {"N": 3.9, "alpha": "2", "p": "2", "q": "1"},
     "exponents.N"),
    ("exponents", {"N": "three", "alpha": "2", "p": "2", "q": "1"},
     "exponents.N"),
    ("exponents", {"N": True, "alpha": "2", "p": "2", "q": "1"},
     "exponents.N"),
    ("exponents", {"N": [3], "alpha": "2", "p": "2", "q": "1"},
     "exponents.N"),
] + [
    (section, {key: value},
     f"config field {section + '.' if section else ''}{key}: ")
    for section, keys in CONFIG_WRONG_TYPE.items()
    for key, wrong in keys.items()
    for value in (True, [1], wrong) if value is not None
]


def test_config_rejects_float_exponents(capsys, tmp_path):
    # a config value is its flag's text or a JSON value of its own type,
    # never a bool, for every key and every subcommand
    cfg = tmp_path / "run.json"
    outputs = {key: str(tmp_path / key)
               for key in CONFIG_WRONG_TYPE["outputs"]}
    for section, values, message in CONFIG_EXPONENT_CASES:
        config = json.loads(json.dumps({**CONFIG_VALID, "outputs": outputs}))
        (config if section is None else config[section]).update(values)
        cfg.write_text(json.dumps(config))
        for command in ("solve", "classify"):
            code, out, err = run_cli(capsys, command, "--config", str(cfg))
            assert code == 2 and out == "", (command, section, values)
            assert message in err, (command, section, values)
            assert list(tmp_path.iterdir()) == [cfg]
    # the flag's text is a valid value for every key: the run is the one
    # the flags make
    text = {"exponents": {"N": "3", "alpha": "2", "p": "2", "q": "1"},
            "k": "0.4",
            "grid": {"r_min": "1e-3", "r_max": "20",
                     "points_per_decade": "20"},
            "solver": {"max_iter": "500", "conv_tol": "1e-8"},
            "outputs": {"report_json": str(tmp_path / "text.json")}}
    cfg.write_text(json.dumps(text))
    assert run_cli(capsys, "solve", "--config", str(cfg))[0] == 0
    code, _, _ = run_cli(capsys, "solve", *FLAGS, *FAST_GRID, "--k", "0.4",
                         "--max-iter", "500", "--conv-tol", "1e-8",
                         "--report-json", str(tmp_path / "flags.json"))
    assert code == 0
    assert (tmp_path / "text.json").read_bytes() \
        == (tmp_path / "flags.json").read_bytes()


def test_an_empty_or_directory_output_path_is_refused(capsys, tmp_path):
    # refused before any file is opened, so the profile CSV given beside
    # it is not written either
    folder = tmp_path / "out"
    folder.mkdir()
    config = tmp_path / "config.json"
    for path in ("", str(folder)):
        config.write_text(json.dumps({"outputs": {"trace_json": path}}))
        runs = [["solve", *FLAGS, *FAST_GRID, "--k", "0.4", "--profile-csv",
                 str(tmp_path / "u.csv"), *given]
                for given in (["--trace-json", path],
                              ["--config", str(config)])]
        runs += [["sweep-k", *FLAGS, *FAST_GRID, "--steps", "2",
                  "--output", path],
                 ["verify", "kernels", "--csv", path]]
        for argv in runs:
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == "", argv
            assert err == f"error: not a file path: {path!r}\n", argv
            assert sorted(tmp_path.iterdir()) == [config, folder], argv
            assert list(folder.iterdir()) == [], argv


def test_outputs_that_name_one_file_are_refused(capsys, tmp_path):
    # the profile's sidecar counts as an output, and report's outputs may
    # not land on the profile it reads; refused before any file is opened
    run_cli(capsys, *solve_args(tmp_path))
    kept = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    u, same = str(tmp_path / "u.csv"), str(tmp_path / "same.out")
    solve = ["solve", *FLAGS, *FAST_GRID, "--k", "0.4"]
    report = ["report", *FLAGS, "--k", "0.4", "--profile-csv", u]
    for argv in (
            solve + ["--profile-csv", same, "--report-json", same],
            solve + ["--profile-csv", same,
                     "--trace-json", f"{tmp_path}/./same.out.meta.json"],
            report + ["--report-json", u],
            report + ["--report-json", same, "--plot-csv", u + ".meta.json"],
            report + ["--report-json", same, "--plot-csv", same]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.endswith(" name one file\n"), argv
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} \
            == kept, argv


def test_a_directory_at_the_sidecar_path_is_refused(capsys, tmp_path):
    sidecar = tmp_path / "u.csv.meta.json"
    sidecar.mkdir()
    code, out, err = run_cli(capsys, *solve_args(tmp_path))
    assert code == 2 and out == ""
    assert err == f"error: not a file path: {str(sidecar)!r}\n"
    assert list(tmp_path.iterdir()) == [sidecar]
    assert list(sidecar.iterdir()) == []


# ---------------------------------------------------------------------------
# report


def test_report_roundtrips_stored_profile(capsys, tmp_path):
    run_cli(capsys, *solve_args(tmp_path))
    solve_report = json.loads((tmp_path / "report.json").read_text())
    code, _, _ = run_cli(capsys, "report", *FLAGS, "--k", "0.4",
                         "--profile-csv", str(tmp_path / "u.csv"),
                         "--report-json", str(tmp_path / "report2.json"),
                         "--plot-csv", str(tmp_path / "plot.csv"))
    assert code == 0
    report = json.loads((tmp_path / "report2.json").read_text())
    # the CSV round-trip is bit exact, so the fits agree exactly
    assert report["singularity"] == solve_report["singularity"]
    plot_lines = (tmp_path / "plot.csv").read_text().splitlines()
    assert plot_lines[0] == "r,u,u_r_scaled,k_gamma0"
    assert len(plot_lines) == 1 + len(
        (tmp_path / "u.csv").read_text().splitlines()) - 1


def test_report_carries_the_sidecar_warning(capsys, tmp_path):
    run_cli(capsys, *solve_args(tmp_path))
    meta_path = tmp_path / "u.csv.meta.json"
    report_args = ["report", *FLAGS, "--k", "0.4",
                   "--profile-csv", str(tmp_path / "u.csv"),
                   "--report-json", str(tmp_path / "report2.json")]
    meta = json.loads(meta_path.read_text())
    for flag in (False, True):
        meta["annotation_warning"] = flag
        meta_path.write_text(json.dumps(meta))
        assert read_profile(str(tmp_path / "u.csv")).annotation_warning \
            is flag
        code, _, _ = run_cli(capsys, *report_args)
        assert code == 0
        report = json.loads((tmp_path / "report2.json").read_text())
        assert report["annotation_warning"] is flag
    meta["annotation_warning"] = "yes"
    meta_path.write_text(json.dumps(meta))
    code, _, err = run_cli(capsys, *report_args)
    assert code == 2 and "annotation_warning" in err


def test_report_missing_profile(capsys, tmp_path):
    code, _, err = run_cli(capsys, "report", *FLAGS, "--k", "0.4",
                           "--profile-csv", str(tmp_path / "absent.csv"),
                           "--report-json", str(tmp_path / "r.json"))
    assert code == 2
    assert "cannot load profile" in err


@pytest.mark.parametrize("rows", [0, 1])
def test_report_profile_with_too_few_rows(capsys, tmp_path, rows):
    # the header, then at most one row: no grid to rebuild
    csv = tmp_path / "u.csv"
    csv.write_text("r,value\n" + "0.0001,1.0\n" * rows)
    code, out, err = run_cli(capsys, "report", *FLAGS, "--k", "0.4",
                             "--profile-csv", str(csv),
                             "--report-json", str(tmp_path / "r.json"))
    assert code == 2 and out == ""
    assert err == (f"error: cannot load profile: a profile needs at least "
                   f"two rows, got {rows}\n")
    assert not (tmp_path / "r.json").exists()


def test_report_profile_with_repeated_radius(capsys, tmp_path):
    # two rows at one radius span no grid; the sidecar itself is valid
    csv = tmp_path / "u.csv"
    csv.write_text("r,value\n0.001,1.0\n0.001,2.0\n")
    (tmp_path / "u.csv.meta.json").write_text(json.dumps(
        {"origin_exponent": 1.0, "tail_model": {"kind": "zero"},
         "annotation_warning": False}))
    code, out, err = run_cli(capsys, "report", *FLAGS, "--k", "0.4",
                             "--profile-csv", str(csv),
                             "--report-json", str(tmp_path / "r.json"),
                             "--plot-csv", str(tmp_path / "plot.csv"))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot load profile: ")
    assert not (tmp_path / "r.json").exists()
    assert not (tmp_path / "plot.csv").exists()


VALID_SIDECAR = {"origin_exponent": 1.0, "tail_model": {"kind": "zero"},
                 "annotation_warning": False}


@pytest.mark.parametrize("radii", [
    ("1.0", "inf", "inf"), ("1.0", "2.0", "nan"), ("nan", "1.0", "2.0")])
def test_report_profile_with_non_finite_radius(capsys, tmp_path, radii):
    # the grid is built from the first radius, the last and the row count;
    # every comparison with NaN is false, so the span check must fail on
    # it, and inf / inf is NaN
    csv = tmp_path / "u.csv"
    csv.write_text("r,value\n" + "".join(f"{r},1.0\n" for r in radii))
    (tmp_path / "u.csv.meta.json").write_text(json.dumps(VALID_SIDECAR))
    code, out, err = run_cli(capsys, "report", *FLAGS, "--k", "0.4",
                             "--profile-csv", str(csv),
                             "--report-json", str(tmp_path / "r.json"),
                             "--plot-csv", str(tmp_path / "plot.csv"))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot load profile: need 0 < r_min < "
                          "r_max with a finite ratio, got (")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "u.csv", "u.csv.meta.json"]


@pytest.mark.parametrize("radii", [("1.0", "2.0", "5.0"),
                                   ("1.0", "nan", "2.0")])
def test_report_profile_off_its_geometric_grid(capsys, tmp_path, radii):
    # a middle radius off the grid the ends and the count fix, NaN too
    csv = tmp_path / "u.csv"
    csv.write_text("r,value\n" + "".join(f"{r},1.0\n" for r in radii))
    (tmp_path / "u.csv.meta.json").write_text(json.dumps(VALID_SIDECAR))
    code, out, err = run_cli(capsys, "report", *FLAGS, "--k", "0.4",
                             "--profile-csv", str(csv),
                             "--report-json", str(tmp_path / "r.json"),
                             "--plot-csv", str(tmp_path / "plot.csv"))
    assert code == 2 and out == ""
    assert err == (f"error: cannot load profile: the radii are off the grid "
                   f"RadialGrid(r_min=1.0, r_max={radii[-1]}, size=3)\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "u.csv", "u.csv.meta.json"]


def test_profile_radii_from_geomspace_load_onto_the_derived_nodes(tmp_path):
    # numpy's radii may differ from the libm nodes in their last bits
    radii = np.geomspace(1e-3, 20.0, 87)
    csv = tmp_path / "u.csv"
    csv.write_text("r,value\n" + "".join(f"{format_float(r)},1.0\n"
                                         for r in radii))
    (tmp_path / "u.csv.meta.json").write_text(json.dumps(VALID_SIDECAR))
    grid = read_profile(str(csv)).grid
    assert grid == RadialGrid(1e-3, 20.0, 87) == build_grid(1e-3, 20.0, 20)
    assert grid.nodes.tobytes() == RadialGrid(1e-3, 20.0, 87).nodes.tobytes()
    assert np.allclose(grid.nodes, radii, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("sidecar, message", [
    ([], "the sidecar must be a JSON object"),
    ({**VALID_SIDECAR, "tail_model": "zero"}, "tail_model must be an object"),
    ({**VALID_SIDECAR, "origin_exponent": {}},
     "origin_exponent must be a number"),
    ({**VALID_SIDECAR, "tail_model": {"kind": "exp", "rate": {},
                                      "power": 1.0}},
     "rate must be a number"),
    # JSON's Infinity is a number, so the profile's own checks meet it
    ({**VALID_SIDECAR, "origin_exponent": math.inf},
     "origin exponent must be finite, got inf"),
    ({**VALID_SIDECAR, "tail_model": {"kind": "exp", "rate": math.inf,
                                      "power": 1.0}},
     "decay rate must be finite, got inf"),
    ({**VALID_SIDECAR, "tail_model": {"kind": "exp", "rate": 1.0,
                                      "power": math.inf}},
     "tail power must be finite, got inf"),
])
def test_report_malformed_sidecar(capsys, tmp_path, sidecar, message):
    csv = tmp_path / "u.csv"
    csv.write_text("r,value\n0.001,2.0\n0.01,1.0\n")
    (tmp_path / "u.csv.meta.json").write_text(json.dumps(sidecar))
    code, out, err = run_cli(capsys, "report", *FLAGS, "--k", "0.4",
                             "--profile-csv", str(csv),
                             "--report-json", str(tmp_path / "r.json"),
                             "--plot-csv", str(tmp_path / "plot.csv"))
    assert code == 2 and out == ""
    assert err.startswith("error: cannot load profile: ")
    assert message in err
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "u.csv", "u.csv.meta.json"]


def test_report_supercritical_gate(capsys, tmp_path):
    code, _, _ = run_cli(capsys, "report", "--N", "3", "--alpha", "2",
                         "--p", "3", "--q", "1", "--k", "0.4",
                         "--profile-csv", str(tmp_path / "absent.csv"),
                         "--report-json", str(tmp_path / "r.json"))
    assert code == 3
    assert not (tmp_path / "r.json").exists()


# ---------------------------------------------------------------------------
# sweep-k


def test_sweep_produces_ordered_bracket(capsys, tmp_path):
    out_path = tmp_path / "bracket.json"
    code, out, _ = run_cli(capsys, "sweep-k", *FLAGS, *FAST_GRID,
                           "--k-lo", "1.0", "--k-hi", "16.0", "--steps", "3",
                           "--output", str(out_path))
    assert code == 0
    doc = json.loads(out)
    assert 0.0 < doc["k_conv"] < doc["k_div"]
    assert doc["khat_q"] > 0.0
    assert len(doc["evaluations"]) == 5
    assert doc["halted_undetermined"] is False
    assert json.loads(out_path.read_text()) == doc


def test_sweep_rejects_non_divergent_upper_endpoint(capsys):
    code, _, err = run_cli(capsys, "sweep-k", *FLAGS, *FAST_GRID,
                           "--k-lo", "0.5", "--k-hi", "1.0", "--steps", "2")
    assert code == 2
    assert "did not diverge" in err


def test_sweep_rejects_bad_bracket_shape(capsys):
    code, _, err = run_cli(capsys, "sweep-k", *FLAGS, *FAST_GRID,
                           "--k-lo", "2.0", "--k-hi", "1.0", "--steps", "2")
    assert code == 2 and "k_lo < k_hi" in err
    code, _, err = run_cli(capsys, "sweep-k", *FLAGS, *FAST_GRID,
                           "--k-lo", "1.0", "--k-hi", "16.0", "--steps", "0")
    assert code == 2 and "steps" in err


def test_sweep_refuses_zero_steps_before_assembly(capsys, tmp_path,
                                                  monkeypatch,
                                                  cold_discretization):
    def no_assembly(*args, **kwargs):
        raise AssertionError("sweep-k assembled an operator")

    monkeypatch.setattr(choqlab.solver, "assemble", no_assembly)
    output = tmp_path / "bracket.json"
    code, out, err = run_cli(capsys, "sweep-k", *FLAGS, *FAST_GRID,
                             "--steps", "0", "--output", str(output))
    assert code == 2 and out == ""
    assert err == "error: steps must be at least 1\n"
    assert list(tmp_path.iterdir()) == []


def test_sweep_endpoint_failure_gets_the_bracket_hint(capsys):
    code, out, err = run_cli(capsys, "sweep-k", *FLAGS, *FAST_GRID,
                             "--k-lo", "100", "--k-hi", "200", "--steps", "2")
    assert code == 2 and out == ""
    assert "k_lo = 100 did not converge" in err
    assert "widen the bracket" in err


def test_sweep_barrier_estimate_error_exits_2(capsys, monkeypatch):
    def end_peak(self):
        raise BarrierEstimateError("barrier ratio peaks at grid end (r = 20)")

    monkeypatch.setattr(choqlab.solver.Discretization, "c_hat",
                        property(end_peak))
    code, out, err = run_cli(capsys, "sweep-k", *FLAGS, *FAST_GRID,
                             "--steps", "2")
    assert code == 2 and out == ""
    assert err == "error: barrier ratio peaks at grid end (r = 20)\n"


@pytest.mark.parametrize("command", [
    (FLAGS_41, ["sweep-k", "--steps", "1", "--output"]),
    (FLAGS_41, ["solve", "--k", "0.5", "--report-json"]),
    (FLAGS, ["sweep-k", "--steps", "1", "--output"]),
    (FLAGS, ["solve", "--k", "0.5", "--report-json"])])
def test_a_grid_the_assembly_refuses_exits_2(tmp_path, command):
    # in a child process, without the RuntimeWarning filter of the test
    # configuration: the command's own floating-point policy refuses the
    # overflow in one line, with no warning printed before it
    flags, (name, *options) = command
    output = tmp_path / "out.json"
    src = str(Path(choqlab.cli.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "choqlab.cli", name, *flags,
         "--r-min", "1e-200", "--points-per-decade", "1", *options,
         str(output)],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        timeout=120)
    assert proc.returncode == 2 and proc.stdout == ""
    at = " at k = 0.5" if name == "solve" else ""
    assert re.fullmatch(
        rf"error: the numerics leave the float range{at} on the grid "
        r"RadialGrid\(r_min=1e-200, r_max=30\.0, size=202\) "
        r"\((overflow|invalid value|divide by zero) encountered in \w+\)\n",
        proc.stderr), proc.stderr
    assert not output.exists()


def test_a_source_too_strong_for_doubles_exits_2(capsys, tmp_path):
    # k^p overflows in the first step; refused as invalid input, not a
    # traceback
    report = tmp_path / "report.json"
    code, out, err = run_cli(capsys, "solve", *FLAGS, *FAST_GRID, "--k",
                             "1e300", "--report-json", str(report))
    assert code == 2 and out == ""
    assert err.startswith("error: the numerics leave the float range at "
                          "k = 1e+300 on the grid RadialGrid(")
    assert not report.exists()


def test_sweep_other_solve_errors_exit_2_without_hint(capsys, monkeypatch):
    exc = NonIntegrableOriginError("riesz", 3.0, 3)

    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr(choqlab.solver, "estimate_kstar", failing)
    code, out, err = run_cli(capsys, "sweep-k", *FLAGS, *FAST_GRID,
                             "--k-lo", "1.0", "--k-hi", "16.0", "--steps", "2")
    assert code == 2 and out == ""
    assert err == f"error: {exc}\n"


def test_a_blowup_cap_is_refused(capsys, tmp_path):
    # the cap is derived from k, the grid and the exponents; an old flag or
    # config key that tried to set it is refused rather than dropped
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": 0.4, "solver": {"blowup_cap": 1e-3}}))
    for command, extra in (("solve", ["--k", "0.4", "--report-json"]),
                           ("sweep-k", ["--steps", "2", "--output"])):
        args = [command, *FLAGS, *FAST_GRID, *extra,
                str(tmp_path / "out.json")]
        with pytest.raises(SystemExit) as exc:
            main([*args, "--blowup-cap", "1e-3"])
        assert exc.value.code == 2
        assert "--blowup-cap" in capsys.readouterr().err
        code, out, err = run_cli(capsys, *args, "--config", str(config))
        assert code == 2 and out == ""
        assert "unknown config solver keys ['blowup_cap']" in err
        assert list(tmp_path.iterdir()) == [config]


@pytest.mark.parametrize("command, flags", [
    ("solve", ["--k", "0.9", "--max", "1"]),
    ("sweep-k", ["--k-l", "1.0", "--k-h", "16", "--step", "2"]),
    ("solve", ["--k", "0.4", "--points-per", "20"]),
])
def test_flag_abbreviations_are_refused(capsys, tmp_path, command, flags):
    # a prefix of a flag is not that flag: each call is an argparse error
    # that writes nothing
    out = {"solve": ["--profile-csv", str(tmp_path / "u.csv"),
                     "--trace-json", str(tmp_path / "trace.json"),
                     "--report-json", str(tmp_path / "report.json")],
           "sweep-k": ["--output", str(tmp_path / "bracket.json")]}[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *FLAGS, *flags, *out])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("given", ["flag", "config"])
def test_sweep_takes_no_k(capsys, tmp_path, given):
    # every solve of the bisection sets its own k, so a k given to sweep-k
    # would be ignored; it is refused instead
    output = tmp_path / "bracket.json"
    args = ["sweep-k", *FLAGS, *FAST_GRID, "--steps", "2",
            "--output", str(output)]
    if given == "flag":
        with pytest.raises(SystemExit) as exc:
            main([*args, "--k", "123"])
        assert exc.value.code == 2
        # with abbreviations off, --k is no prefix of --k-lo or --k-hi
        assert "unrecognized arguments: --k 123" in capsys.readouterr().err
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"k": 77}))
        code, out, err = run_cli(capsys, *args, "--config", str(config))
        assert code == 2 and out == ""
        assert "sweep-k reads no config k" in err
    assert not output.exists()


def test_sweep_assembles_each_operator_once(capsys, assemble_counts):
    code, out, _ = run_cli(capsys, "sweep-k", *FLAGS, *FAST_GRID,
                           "--steps", "3")
    assert code == 0
    assert len(json.loads(out)["evaluations"]) == 5
    assert assemble_counts == {"riesz": 1, "green": 1}


@pytest.mark.parametrize("exponents, golden", [
    (FLAGS, "sweep_k_3_2_2_1_ppd40_steps6.json"),
    (FLAGS_41, "sweep_k_4_1_6-5_1_ppd40_steps6.json"),
])
def test_sweep_output_matches_golden_bytes(capsys, exponents, golden):
    # sharing one discretization across every k must not move a single
    # bit; re-recorded when apply moved to the structured sums, which
    # changed the last digit of c_hat and of the derived k, and when the
    # special functions moved from scipy to numpy, which moved c_hat and
    # the k values by at most 1.5e-15 relative; the (3,2,2,1) file again
    # when its alpha = 2 Riesz operator became semiseparable, which moved
    # chat by 6.5e-16 and the k values by at most 4.6e-16; the (4,1,6/5,1)
    # file again when its Toeplitz cells moved to the row evaluator of its
    # columns, which moved chat by 2.1e-16 and the k values by at most
    # 1.7e-16; both when the Legendre rules, log_step and the semiseparable
    # cell geometry changed, which moved chat by at most 1.6e-15 and the k
    # values by at most 9.4e-16; both when the grid nodes and the Bessel
    # series changed, which moved chat, khat_q, k_conv, k_div and 8 of 8
    # k values by at most 4.4e-16; both when every float moved to its
    # shortest round-trip repr, which moved number text only; every
    # verdict the same
    code, out, _ = run_cli(capsys, "sweep-k", *exponents,
                           "--points-per-decade", "40", "--steps", "6")
    assert code == 0
    assert out.encode() == (GOLDEN / golden).read_bytes()


# Byte identity holds for one numpy build, one SIMD tier and one BLAS
# kernel.  Under another, numpy's transcendental loops and the BLAS dot
# products round differently, and the golden commands' floats move; what
# they decide must not.  Each setting applies to the child process only.
# Largest change measured on an AVX-512 host under these three settings,
# against the goldens: u.csv 4.4e-16 relative (its r column none: the
# nodes come from the standard library's exp), report floats 2.6e-10 (the
# fit residuals), 40-ppd sweep floats 4.4e-16, and the QUANTUM_KEYS
# 1.1e-16 absolute, which is 7e-8 relative for fixed_point_residual
# (without AVX-512).
CPU_SETTINGS = {
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "no-avx512": {"NPY_DISABLE_CPU_FEATURES": "X86_V4,AVX512_ICL,AVX512_SPR"},
}
PROFILE_REL = 1e-13
ARTIFACT_REL = 1e-8
SWEEP_REL = 1e-14
# Each of these is a maximum over nodes of a difference divided by a node
# value, so whatever its size it resolves only to about one ulp of 1: one
# ulp of v at the maximizing node moves the (4,1,6/5,1) golden's
# fixed_point_residual of 1.65e-9 by 7e-8 relative.  They are held to
# QUANTUM absolute as well as to ARTIFACT_REL, and each ratios entry
# d_n / d_{n-1} of two rel_deltas to the relative bound that those two
# quanta set.
QUANTUM = 8 * 2.0 ** -52
QUANTUM_KEYS = {"rel_deltas", "bounds", "mono_violations",
                "fixed_point_residual", "lower_bound_violation"}


def ratio_rel_tols(rel_deltas):
    """The relative bound of each ratios[n] = d_n / d_{n-1}, with d the
    golden's rel_deltas; ratios[0] is null."""
    return [ARTIFACT_REL] + [
        max(ARTIFACT_REL, QUANTUM * (1.0 / d + 1.0 / d_prev))
        for d_prev, d in zip(rel_deltas, rel_deltas[1:])]


def assert_json_close(ours, golden, rel, where, quantum=0.0):
    """Equal structure, strings, integers, booleans and nulls (verdicts,
    stop reasons, methods, iteration counts); floats within rel relative
    or quantum absolute.  Under a key in QUANTUM_KEYS, quantum is QUANTUM,
    and each ratios entry gets its ratio_rel_tols bound."""
    if isinstance(golden, float):
        assert isinstance(ours, float) and math.isclose(
            ours, golden, rel_tol=rel, abs_tol=quantum), (where, ours, golden)
    elif isinstance(golden, dict):
        assert ours.keys() == golden.keys(), where
        for key in golden:
            if key == "ratios":
                assert len(ours[key]) == len(golden[key]), where
                for i, (a, b, tol) in enumerate(zip(
                        ours[key], golden[key],
                        ratio_rel_tols(golden["rel_deltas"]))):
                    assert_json_close(a, b, tol, f"{where}.{key}[{i}]")
            else:
                assert_json_close(
                    ours[key], golden[key], rel, f"{where}.{key}",
                    QUANTUM if key in QUANTUM_KEYS else quantum)
    elif isinstance(golden, list):
        assert len(ours) == len(golden), where
        for i, (a, b) in enumerate(zip(ours, golden)):
            assert_json_close(a, b, rel, f"{where}[{i}]", quantum)
    else:
        assert ours == golden, (where, ours, golden)


def test_golden_comparison_fires_past_the_quantum():
    golden = GOLDEN / "solve_4_1_6-5_1_ppd20_k0.5"
    report = json.loads((golden / "report.json").read_text())
    residual = report["fixed_point_residual"]
    assert_json_close({**report, "fixed_point_residual":
                       residual + 2.0 ** -52}, report, ARTIFACT_REL, "r")
    with pytest.raises(AssertionError, match="fixed_point_residual"):
        assert_json_close({**report, "fixed_point_residual":
                           residual + 16 * 2.0 ** -52}, report,
                          ARTIFACT_REL, "r")
    trace = json.loads((golden / "trace.json").read_text())
    tol = ratio_rel_tols(trace["rel_deltas"])[-1]
    assert 1e-7 < tol < 2e-7
    for scale, fires in ((0.9, False), (1.1, True)):
        moved = {**trace, "ratios": [*trace["ratios"][:-1],
                                     trace["ratios"][-1] * (1 + scale * tol)]}
        if fires:
            with pytest.raises(AssertionError, match=r"ratios\[8\]"):
                assert_json_close(moved, trace, ARTIFACT_REL, "t")
        else:
            assert_json_close(moved, trace, ARTIFACT_REL, "t")


def profile_rows(path):
    header, *rows = path.read_text().splitlines()
    assert header == "r,value"
    return [[float(v) for v in row.split(",")] for row in rows]


@pytest.mark.parametrize("setting", sorted(CPU_SETTINGS))
def test_golden_commands_agree_under_other_cpu_kernels(tmp_path, setting):
    solves = {"solve_3_2_2_1_ppd20_k0.4": ("a", "0.4", FLAGS),
              "solve_4_1_6-5_1_ppd20_k0.5": ("b", "0.5", FLAGS_41)}
    sweeps = {f"sweep_k_{name}_ppd40_steps6.json":
              ["sweep-k", *flags, "--points-per-decade", "40", "--steps", "6"]
              for name, flags in (("3_2_2_1", FLAGS), ("4_1_6-5_1", FLAGS_41))}
    argvs = []
    for folder, k, flags in solves.values():
        (tmp_path / folder).mkdir()
        argvs.append(solve_args(tmp_path / folder, k, flags))
    argvs += sweeps.values()
    # one child runs the four commands and prints their exit codes and
    # standard outputs, and the bytes of the 160-ppd default grid's nodes
    code = ("import contextlib, io, json, sys\n"
            "import choqlab.cli\n"
            "from choqlab.operators import build_grid\n"
            "runs = []\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            "        status = choqlab.cli.main(argv)\n"
            "    runs.append([status, out.getvalue()])\n"
            "nodes = build_grid(1e-4, 30.0, 160).nodes.tobytes().hex()\n"
            "print(json.dumps([runs, nodes]))\n")
    src = str(Path(choqlab.cli.__file__).parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", code, json.dumps(argvs)],
        env=dict(os.environ, PYTHONPATH=src, **CPU_SETTINGS[setting]),
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    runs, nodes = json.loads(proc.stdout)
    # the grid is built from the standard library's exp, not numpy's loops
    assert nodes == build_grid(1e-4, 30.0, 160).nodes.tobytes().hex()
    assert [status for status, _ in runs] == [0, 0, 0, 0]
    for golden, (folder, _, _) in solves.items():
        for name in ("u.csv.meta.json", "trace.json", "report.json"):
            assert_json_close(
                json.loads((tmp_path / folder / name).read_text()),
                json.loads((GOLDEN / golden / name).read_text()),
                ARTIFACT_REL, f"{golden}/{name}")
        assert_json_close(profile_rows(tmp_path / folder / "u.csv"),
                          profile_rows(GOLDEN / golden / "u.csv"),
                          PROFILE_REL, f"{golden}/u.csv")
    for golden, (_, out) in zip(sweeps, runs[len(solves):]):
        assert_json_close(json.loads(out),
                          json.loads((GOLDEN / golden).read_text()),
                          SWEEP_REL, golden)


def test_sweep_supercritical_gate(capsys):
    code, _, _ = run_cli(capsys, "sweep-k", "--N", "3", "--alpha", "2",
                         "--p", "2", "--q", "3", *FAST_GRID,
                         "--k-lo", "1.0", "--k-hi", "2.0", "--steps", "1")
    assert code == 3


# ---------------------------------------------------------------------------
# verify


@pytest.mark.parametrize("suite,plan", [
    ("kernels", "1..8"), ("operators", "1..4"),
    ("rates", "1..9"), ("bootstrap", "1..4"),
])
def test_verify_suites_pass(capsys, suite, plan):
    code, out, _ = run_cli(capsys, "verify", suite)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == plan
    assert all(line.startswith("ok ") for line in lines[1:])


def test_verify_kernels_wronskian_check_fires(capsys, monkeypatch):
    # one Green factor off by 1e-10 breaks I_nu K_{nu+1} + I_{nu+1} K_nu
    # = 1/r far beyond the check's 1e-13
    def skewed(N, r):
        y0, yinf = green_halfline_factors(N, r)
        return y0 * (1.0 + 1e-10), yinf

    monkeypatch.setattr(choqlab.verify, "green_halfline_factors", skewed)
    code, out, _ = run_cli(capsys, "verify", "kernels")
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("not ok")]
    assert len(failed) == 1 and "y0_N yinf_{N+2}" in failed[0]


def test_verify_kernels_csv_dump(capsys, tmp_path):
    csv_path = tmp_path / "audit.csv"
    code, _, _ = run_cli(capsys, "verify", "kernels", "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "r,gamma0,phi0,closed_form,residual"
    assert len(lines) == 201


def test_verify_suite_names_match_the_suites():
    from choqlab.verify import SUITES
    assert choqlab.cli.VERIFY_SUITES == tuple(sorted(SUITES))


def run_python(code: str) -> str:
    """Stdout of code run in a fresh interpreter on this checkout's src."""
    src = str(Path(choqlab.cli.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_verify_unloaded():
    # choqlab.verify is registered but has not run: it cannot run without
    # numpy
    code = ("import sys, choqlab.cli; "
            "print(sorted(m for m in ('numpy', 'scipy.integrate') "
            "if m in sys.modules))")
    assert run_python(code).strip() == "[]"


def test_classify_runs_without_numpy():
    code = ("import sys, choqlab.cli\n"
            f"assert choqlab.cli.main(['classify', *{FLAGS!r}]) == 0\n"
            "assert choqlab.cli.main(['classify', '--N', '3', '--alpha', '2', "
            "'--p', '5', '--q', '1']) == 0\n"
            "print('numpy' in sys.modules)\n")
    out = run_python(code)
    assert '"class": "subcritical"' in out
    assert '"class": "supercritical"' in out
    assert out.splitlines()[-1] == "False"


def test_numeric_modules_are_registered_and_run_on_first_access():
    # a tracer that wraps what it finds in sys.modules right after
    # `import choqlab.cli` must find every layer; in dependency order, the
    # first attribute read runs each module and no other
    code = """
import sys, choqlab, choqlab.cli
names = {"kernels": "gamma0", "operators": "assemble",
         "solver": "solve_minimal", "asymptotics": "fit_origin",
         "verify": "run_suite"}
assert all(getattr(choqlab, name) is sys.modules[f"choqlab.{name}"]
           for name in names)
assert "numpy" not in sys.modules

def ran(name):
    module = sys.modules[f"choqlab.{name}"]
    return names[name] in object.__getattribute__(module, "__dict__")

for i, name in enumerate(names):
    assert [ran(n) for n in names] == [True] * i + [False] * (5 - i)
    assert callable(getattr(getattr(choqlab, name), names[name]))
assert all(ran(n) for n in names) and "numpy" in sys.modules
print("ok")
"""
    assert run_python(code).strip() == "ok"


def test_package_names_resolve_from_their_modules():
    namespace = {}
    exec("from choqlab import *", namespace)
    assert set(choqlab.__all__) <= set(namespace)
    assert choqlab.build_grid is choqlab.operators.build_grid
    assert choqlab.solve_minimal is choqlab.solver.solve_minimal
    assert choqlab.classify is choqlab.exponents.classify
    assert not hasattr(choqlab, "no_such_name")


def test_cli_solve_leaves_scipy_sparse_unloaded(tmp_path):
    # the Newton steps run a hand-written GMRES and the kernels and Gauss
    # rules are numpy's, so a solve that takes them loads no scipy at all
    trace = tmp_path / "trace.json"
    argv = ["solve", *FLAGS, *FAST_GRID, "--k", "3.2",
            "--trace-json", str(trace)]
    code = ("import sys, choqlab.cli; "
            f"assert choqlab.cli.main({argv!r}) == 0; "
            "print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'scipy'))")
    assert run_python(code).strip().splitlines()[-1] == "[]"
    assert "newton" in json.loads(trace.read_text())["methods"]


@pytest.mark.parametrize("argv", [
    ["solve", *FLAGS, "--k", "0.4"],
    ["solve", *FLAGS_41, "--k", "1"],
    ["sweep-k", *FLAGS, "--points-per-decade", "40", "--steps", "6"],
])
def test_cli_runs_with_scipy_blocked(tmp_path, argv):
    # sys.modules["scipy"] = None makes any scipy import fail: the run
    # must end as it does unblocked, with the same bytes out
    src = str(Path(choqlab.cli.__file__).parents[1])
    files = [] if argv[0] == "sweep-k" else [
        "--profile-csv", str(tmp_path / "u.csv"),
        "--trace-json", str(tmp_path / "trace.json"),
        "--report-json", str(tmp_path / "report.json")]
    runs = []
    for block in ("", "sys.modules['scipy'] = None\n"):
        code = (f"import sys\n{block}import choqlab.cli\n"
                f"sys.exit(choqlab.cli.main({argv + files!r}))\n")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, timeout=120)
        written = {f.name: f.read_bytes() for f in sorted(tmp_path.iterdir())}
        for f in tmp_path.iterdir():
            f.unlink()
        runs.append((proc.returncode, proc.stdout, written))
    assert runs[0][0] == 0 and runs[1] == runs[0], runs[1][0]


def test_verify_csv_flag_restricted_to_kernels(capsys, tmp_path):
    code, _, err = run_cli(capsys, "verify", "rates", "--csv",
                           str(tmp_path / "x.csv"))
    assert code == 2
    assert "kernels" in err
