"""End-to-end command line behavior: exit codes, file contracts, determinism.

Runs main() in process on a reduced grid (r in [1e-3, 20], 20 points per
decade) so each solve stays fast; the exit-code contract is 0 ok, 1 failed
verify suite, 2 invalid input, 3 supercritical, 4 diverged, 5 undetermined.
"""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import choqlab.cli
import choqlab.solver
import choqlab.verify
from choqlab.cli import main, parse_rational
from choqlab.kernels import green_halfline_factors
from choqlab.operators import NonIntegrableOriginError
from choqlab.serialize import read_profile
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
    # alpha = 1 case checks its hypergeometric factor
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


def test_solve_beyond_the_float_safe_r_max_exits_2(capsys, tmp_path):
    # the Green factor y0 overflows past r = 709.78, so the instance refuses
    # r_max = 1000 before anything is assembled or written
    code, out, err = run_cli(capsys, "solve", *FLAGS, "--r-max", "1000",
                             "--points-per-decade", "5", "--k", "0.4",
                             "--profile-csv", str(tmp_path / "u.csv"),
                             "--trace-json", str(tmp_path / "trace.json"),
                             "--report-json", str(tmp_path / "report.json"))
    assert code == 2 and out == ""
    assert "r_max <= 700" in err
    assert list(tmp_path.iterdir()) == []


def test_solve_other_solve_errors_exit_2(capsys, tmp_path, monkeypatch):
    exc = NonIntegrableOriginError("green", 3.5, 3)

    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr(choqlab.cli, "solve_minimal", failing)
    code, out, err = run_cli(capsys, *solve_args(tmp_path))
    assert code == 2 and out == ""
    assert err == f"error: {exc}\n"
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
    ("solver", "conv_tl"), ("grid", "ppd")])
def test_unknown_config_keys_are_refused(capsys, tmp_path, section, key):
    # a misspelt key would otherwise leave its setting at the default
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"k": 0.4, section: {key: 1e-14}}))
    code, out, err = run_cli(capsys, "solve", *FLAGS, *FAST_GRID,
                             "--config", str(config),
                             "--report-json", str(tmp_path / "r.json"))
    assert code == 2 and out == ""
    assert f"unknown config {section} keys ['{key}']" in err
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


CONFIG_EXPONENT_CASES = [
    ({"N": 3, "alpha": 2.0, "p": "2", "q": "1"}, "exactly"),
    # an integer string is a valid N, so the float alpha is what fails
    ({"N": "3", "alpha": 2.0, "p": "2", "q": "1"}, "exactly"),
    ({"N": 3.9, "alpha": "2", "p": "2", "q": "1"}, "exponents.N"),
    ({"N": "three", "alpha": "2", "p": "2", "q": "1"}, "exponents.N"),
    ({"N": True, "alpha": "2", "p": "2", "q": "1"}, "exponents.N"),
    ({"N": [3], "alpha": "2", "p": "2", "q": "1"}, "exponents.N"),
]


def test_config_rejects_float_exponents(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    for exponents, message in CONFIG_EXPONENT_CASES:
        cfg.write_text(json.dumps({"exponents": exponents, "k": 0.4}))
        for command in ("solve", "classify"):
            code, _, err = run_cli(capsys, command, "--config", str(cfg))
            assert code == 2, (command, exponents)
            assert message in err, (command, exponents)


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


def test_sweep_other_solve_errors_exit_2_without_hint(capsys, monkeypatch):
    exc = NonIntegrableOriginError("riesz", 3.0, 3)

    def failing(*args, **kwargs):
        raise exc

    monkeypatch.setattr(choqlab.cli, "estimate_kstar", failing)
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
    # the k values by at most 1.5e-15 relative
    code, out, _ = run_cli(capsys, "sweep-k", *exponents,
                           "--points-per-decade", "40", "--steps", "6")
    assert code == 0
    assert out.encode() == (GOLDEN / golden).read_bytes()


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


def test_cli_import_leaves_verify_unloaded():
    src = str(Path(choqlab.cli.__file__).parents[1])
    code = ("import sys, choqlab.cli; "
            "print(sorted(m for m in ('scipy.integrate', 'choqlab.verify') "
            "if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_cli_solve_leaves_scipy_sparse_unloaded(tmp_path):
    # the Newton steps run a hand-written GMRES and the kernels and Gauss
    # rules are numpy's, so a solve that takes them loads no scipy at all
    src = str(Path(choqlab.cli.__file__).parents[1])
    trace = tmp_path / "trace.json"
    argv = ["solve", *FLAGS, *FAST_GRID, "--k", "3.2",
            "--trace-json", str(trace)]
    code = ("import sys, choqlab.cli; "
            f"assert choqlab.cli.main({argv!r}) == 0; "
            "print(sorted(m for m in sys.modules "
            "if m.partition('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[]"
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
