"""End-to-end tests of the command-line surface (in-process main calls)."""

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import sspkit
from sspkit import bench
from sspkit.analysis import analyze_method
from sspkit.cli import main
from sspkit.problems import make_problem
from sspkit.tableau import resolve

from conftest import reference_adaptive


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out.splitlines(), out.err


# ----------------------------------------------------------------- analyze


def test_analyze_text_report(capsys):
    code, lines, _ = run_cli(capsys, "analyze", "ssp2,2-b2")
    assert code == 0
    assert lines[0].startswith("# sspkit") and "cmd=analyze" in lines[0]
    body = "\n".join(lines[1:])
    assert "ssp_main" in body and "delta_R" in body and "non_defective" in body


def test_analyze_json_matches_the_library_report(capsys):
    code, lines, _ = run_cli(capsys, "analyze", "ssp10,4-b3", "--json")
    assert code == 0
    doc = json.loads(lines[1])
    rep = analyze_method(resolve("ssp10,4-b3"))
    assert doc["id"] == "ssp10,4-b3"
    assert doc["p"] == rep["p"] == 4
    assert doc["p_tilde"] == 3
    assert doc["delta_R"] == pytest.approx(rep["delta_R"], rel=1e-12)
    assert doc["ssp_main"] == pytest.approx(6.0, abs=1e-4)


def test_analyze_unknown_method_exits_one(capsys):
    code, _, err = run_cli(capsys, "analyze", "ssp7,9")
    assert code == 1
    assert "error" in err


# ------------------------------------------------------------------ region


def test_region_grid_row_count_and_format(capsys):
    code, lines, _ = run_cli(capsys, "region", "ssp2,2-b2", "--nx", "5", "--ny", "4")
    assert code == 0
    assert lines[1] == "re,im,abs_psi"
    assert len(lines) == 2 + 5 * 4
    first = lines[2].split(",")
    assert len(first) == 3
    assert all(abs(float(x)) < 1e6 for x in first)


def test_region_embedded_weights_differ_from_main(capsys):
    _, main_lines, _ = run_cli(capsys, "region", "ssp2,2-b2", "--nx", "7", "--ny", "7")
    _, emb_lines, _ = run_cli(capsys, "region", "ssp2,2-b2", "--weights", "embedded",
                              "--nx", "7", "--ny", "7")
    assert main_lines[2:] != emb_lines[2:]


_BAD_FLAGS = [
    (("--re", "nan", "1"), "re_range[0] must be a finite number, got nan"),
    (("--re", "1", "-1"), "ranges need finite MIN < MAX"),
    (("--im", "-2", "inf"), "im_range[1] must be a finite number, got inf"),
]


@pytest.mark.parametrize("flags, message", _BAD_FLAGS, ids=[f"flags{i}" for i in range(len(_BAD_FLAGS))])
def test_region_rejects_a_nan_or_reversed_range(capsys, flags, message):
    code, lines, err = run_cli(capsys, "region", "ssp2,2-b2", "--nx", "3", "--ny", "3", *flags)
    assert code == 1
    assert lines == []
    assert message in err


@pytest.mark.parametrize("flag", ["--re", "--im"])
def test_region_rejects_a_range_wider_than_a_float(capsys, flag):
    # it used to exit 0 with NumPy overflow warnings and nan coordinates
    code, lines, err = run_cli(capsys, "region", "ssp3,2-b1", "--nx", "2", "--ny", "2", flag, "-1e308", "1e308")
    assert code == 1
    assert lines == []
    assert err == f"sspkit: error: {flag[2:]} range (-1e+308, 1e+308) is too wide: MAX - MIN overflows\n"


@pytest.mark.parametrize("method, flags", [
    ("ssp3,2-b1", ("--re", "-1e300", "1e300")),
    ("ssp3,2-b1", ("--re", "-1e300", "1e300", "--im", "-1e300", "1e300")),
    ("ssp10,4-b3", ("--re", "-1e300", "1e300", "--im", "-1e300", "1e300")),
])
def test_region_overflow_reads_inf_without_a_warning(capsys, method, flags):
    # |psi| overflows at |z| ~ 1e300; it used to print NumPy's "overflow"
    # and "invalid value" warnings, and a degree-10 psi wrote nan
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, lines, err = run_cli(capsys, "region", method, "--nx", "3", "--ny", "3", *flags)
    assert (code, err, caught) == (0, "", [])
    values = [row.split(",")[2] for row in lines[2:]]
    assert len(values) == 9 and "nan" not in values
    assert values[0] == "inf" and all(v == "inf" or math.isfinite(float(v)) for v in values)


@pytest.mark.parametrize("flag, plain, exponent", [
    ("--re", ("-10", "2"), ("-1e1", "2")),
    ("--im", ("-8", "8"), ("-8e0", "8")),
    ("--re", ("-0.5", "2"), ("-5E-1", "2e0")),
])
def test_region_reads_a_negative_bound_in_exponent_form(tmp_path, capsys, flag, plain, exponent):
    # argparse's own pattern took "-1e1" for a flag ("expected 2 arguments")
    texts = []
    for i, bounds in enumerate((plain, exponent)):
        out = tmp_path / f"region{i}.csv"
        code, _, err = run_cli(capsys, "region", "ssp2,2-b2", "--nx", "4", "--ny", "3",
                               flag, *bounds, "--out", str(out))
        assert (code, err) == (0, "")
        texts.append(out.read_text())
    assert texts[0] == texts[1]


def test_region_too_large_to_hold_fails_with_a_message(capsys):
    # 1e16 lattice points (80 PB) exceed any address space, so the lattice
    # allocation, which comes before any sampling, fails at once; it used to
    # end in a NumPy _ArrayMemoryError traceback
    code, lines, err = run_cli(capsys, "region", "ssp2,2", "--nx", "100000000", "--ny", "100000000")
    assert code == 1
    assert lines == []
    assert err.startswith("sspkit: error: out of memory: ") and "(100000000, 100000000)" in err


def test_region_writes_to_a_file(tmp_path, capsys):
    out = tmp_path / "region.csv"
    code, lines, _ = run_cli(capsys, "region", "ssp2,2-b2", "--nx", "3", "--ny", "3",
                             "--out", str(out))
    assert code == 0
    assert lines == []  # everything went to the file
    text = out.read_text().splitlines()
    assert text[1] == "re,im,abs_psi" and len(text) == 2 + 9


# --------------------------------------------------------------- integrate


def test_integrate_summary_json_and_work_accounting(capsys):
    code, lines, _ = run_cli(capsys, "integrate", "--method", "ssp2,2-b2",
                             "--problem", "vdp", "--tol", "1e-3", "--json",
                             "--skip-error")
    assert code == 0
    doc = json.loads(lines[1])
    assert doc["method"] == "ssp2,2-b2" and doc["problem"] == "vdp"
    assert doc["steps"] == doc["accepted"] + doc["rejected"]
    assert doc["nfev"] == 2 * doc["steps"] + 2  # + the starting-step probe
    assert doc["t_final"] == 2.0
    assert "l2_error" not in doc


def test_integrate_reports_the_reference_error(capsys):
    code, lines, _ = run_cli(capsys, "integrate", "--method", "ssp2,2-b2",
                             "--problem", "vdp", "--tol", "1e-3", "--json")
    assert code == 0
    doc = json.loads(lines[1])
    assert 0.0 < doc["l2_error"] < 0.1


def test_integrate_trace_lists_every_attempt(tmp_path, capsys):
    trace = tmp_path / "trace.csv"
    code, lines, _ = run_cli(capsys, "integrate", "--method", "ssp2,2-b2",
                             "--problem", "vdp", "--tol", "1e-3", "--json",
                             "--skip-error", "--trace", str(trace))
    assert code == 0
    doc = json.loads(lines[1])
    body = trace.read_text().splitlines()
    assert body[1] == "t,dt,err,accepted"
    assert len(body) == 2 + doc["steps"]
    accepted_flags = [int(r.split(",")[3]) for r in body[2:]]
    assert sum(accepted_flags) == doc["accepted"]


@pytest.mark.parametrize("kind", ["i", "gustafsson"])
def test_integrate_trace_rows_are_the_reference_loop_log(tmp_path, capsys, kind):
    # --trace asks the run for its step log; every row is the reference
    # loop's attempt, formatted as the CLI writes it
    trace = tmp_path / "trace.csv"
    code, _, _ = run_cli(capsys, "integrate", "--method", "ssp2,2-b2", "--problem", "brusselator",
                         "--tol", "1e-4", "--controller", kind, "--skip-error", "--trace", str(trace))
    assert code == 0
    log = []
    reference_adaptive(make_problem("brusselator"), resolve("ssp2,2-b2"), kind, 1e-4, 1e-4, log)
    want = [f"{t:.12g},{dt:.12g},{err:.12g},{int(acc)}" for t, dt, err, acc in log]
    assert trace.read_text().splitlines()[2:] == want


def test_integrate_error_uses_the_requested_grid(capsys):
    # the reference solve runs on the same n_cells as the integration
    code, lines, _ = run_cli(capsys, "integrate", "--method", "ssp10,4-b3",
                             "--problem", "advection", "--n-cells", "50", "--json")
    assert code == 0
    doc = json.loads(lines[1])
    assert math.isfinite(doc["l2_error"]) and doc["l2_error"] > 0.0


def test_integrate_has_no_gain_flags(capsys):
    # a controller's gains are fixed by its kind
    with pytest.raises(SystemExit) as exc:
        main(["integrate", "--method", "ssp2,2-b2", "--problem", "vdp", "--k1", "0.5"])
    assert exc.value.code == 1
    assert "--k1" in capsys.readouterr().err


def test_integrate_on_an_empty_grid_names_the_bad_field(capsys):
    code, lines, err = run_cli(capsys, "integrate", "--method", "ssp2,2-b2",
                               "--problem", "advection", "--n-cells", "0")
    assert code == 1
    assert lines == []
    assert err == "sspkit: error: n_cells must be at least 1, got 0\n"


def test_integrate_reads_problem_and_controller_ids_in_any_case(capsys):
    # as make_problem and make_controller read them; the summary and the
    # header carry the canonical ids
    code, lines, _ = run_cli(capsys, "integrate", "--method", "SSP2,2-B2", "--problem", " VDP",
                             "--controller", "PID", "--skip-error")
    assert code == 0
    assert "controller=pid" in lines[0] and "problem=vdp" in lines[0]
    assert "problem: vdp" in lines and "method: ssp2,2-b2" in lines


def test_bench_reads_problem_and_controller_ids_in_any_case(capsys):
    code, lines, _ = run_cli(capsys, "bench", "--methods", "ssp2,2-b2", "--problems", "VDP",
                             "--controller", "Pi", "--tols", "1e-2")
    assert code == 0
    rec, = csv.DictReader(lines[1:])
    assert (rec["method"], rec["problem"], rec["status"]) == ("ssp2,2-b2", "vdp", "ok")


def test_integrate_budget_exhaustion_exits_three(capsys, monkeypatch):
    from sspkit import integrator

    monkeypatch.setattr(integrator, "MAX_ATTEMPTS", 3)
    code, lines, err = run_cli(capsys, "integrate", "--method", "ssp2,2-b2", "--problem", "vdp",
                               "--skip-error")
    assert code == 3 and lines == []
    assert err == "sspkit: budget exhausted: exceeded 3 attempted steps at t = 0.0212791\n"


def test_integrate_rejects_unknown_problem(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["integrate", "--method", "ssp2,2-b2", "--problem", "heat"])
    assert exc.value.code == 1


# ------------------------------------------------------------------- bench


def test_bench_csv_parses_with_quoted_method_ids(capsys):
    code, lines, _ = run_cli(capsys, "bench", "--methods", "ssp2,2-b2", "ssp4,3-b1",
                             "--problems", "vdp", "--tols", "1e-2", "1e-3")
    assert code == 0
    recs = list(csv.DictReader(lines[1:]))
    assert len(recs) == 4
    assert {r["method"] for r in recs} == {"ssp2,2-b2", "ssp4,3-b1"}
    assert all(r["status"] == "ok" for r in recs)
    assert all(int(r["nfev"]) > 0 for r in recs)


def test_bench_rejects_zero_jobs(capsys):
    code, lines, err = run_cli(capsys, "bench", "--methods", "ssp2,2-b2",
                               "--problems", "vdp", "--jobs", "0")
    assert code == 1
    assert lines == []
    assert "n_jobs must be at least 1" in err


@pytest.mark.parametrize("flags", [
    ("--methods", "ssp2,2-b2", "--problems", "advection", "--tols", "1e-3", "-1"),
    ("--methods", "nosuch", "--problems", "advection", "vdp"),
    ("--methods", "ssp5,3", "--problems", "advection"),
    ("--methods", "ssp3,3", "--problems", "euler"),
    ("--methods", "ssp2,2-b2", "--problems", "vdp", "vdp", "--tols", "1e-3"),
])
def test_bench_rejects_a_bad_plan_before_any_reference_solve(capsys, monkeypatch, flags):
    def refuse(*_args, **_kwargs):
        raise AssertionError("reference solve of a bad plan")

    monkeypatch.setattr(bench, "reference_endpoint", refuse)
    code, lines, err = run_cli(capsys, "bench", *flags)
    assert code == 1
    assert lines == []
    assert "sspkit: error:" in err


def test_bench_relative_to_a_method_not_swept_fails_before_any_reference_solve(
    capsys, monkeypatch
):
    def refuse(*_args, **_kwargs):
        raise AssertionError("reference solve for a relative_work column with no base")

    monkeypatch.setattr(bench, "reference_endpoint", refuse)
    code, lines, err = run_cli(capsys, "bench", "--methods", "ssp2,2-b2",
                               "--problems", "vdp", "--tols", "1e-3",
                               "--relative-to", "dp54")
    assert code == 1
    assert lines == []
    assert "--relative-to 'dp54' is not one of --methods" in err


def test_bench_relative_work_column(capsys):
    code, lines, _ = run_cli(capsys, "bench", "--methods", "ssp2,2-b2", "ssp4,3-b1",
                             "--problems", "vdp", "--tols", "1e-3",
                             "--relative-to", "ssp2,2-b2")
    assert code == 0
    recs = list(csv.DictReader(lines[1:]))
    by_method = {r["method"]: r for r in recs}
    assert float(by_method["ssp2,2-b2"]["relative_work"]) == 1.0
    want = int(by_method["ssp4,3-b1"]["nfev"]) / int(by_method["ssp2,2-b2"]["nfev"])
    assert float(by_method["ssp4,3-b1"]["relative_work"]) == pytest.approx(want, rel=1e-5)


def test_bench_reads_method_ids_in_any_case(capsys):
    # the rows carry canonical ids, so a mixed-case --relative-to matches
    # its method and the CSV body is the all-lower-case one; wall_ms is a
    # timing and differs between runs
    def body(*methods_and_base):
        *methods, base = methods_and_base
        code, lines, err = run_cli(capsys, "bench", "--methods", *methods, "--problems", "vdp",
                                   "--tols", "1e-3", "--relative-to", base)
        assert code == 0, err
        recs = list(csv.DictReader(lines[1:]))
        for r in recs:
            del r["wall_ms"]
        return recs

    lower = body("ssp2,2-b2", "ssp3,2-b1", "ssp2,2-b2")
    assert body("SSP2,2-B2", "ssp3,2-b1", "ssp2,2-b2") == lower
    assert body("ssp2,2-b2", "Ssp3,2-B1", "SSP2,2-B2") == lower
    assert [r["method"] for r in lower] == ["ssp2,2-b2", "ssp3,2-b1"]
    assert lower[0]["relative_work"] == "1"


# ---------------------------------------------------------------- optimize


def test_optimize_json_is_deterministic(capsys):
    argv = ("optimize", "ssp3,2-b1", "--seeds", "5", "--budget", "5000")
    code1, lines1, _ = run_cli(capsys, *argv)
    code2, lines2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    d1, d2 = json.loads(lines1[1]), json.loads(lines2[1])
    assert d1 == d2
    assert d1["status"] == "ok"
    assert d1["objective"] <= 0.25 + 1e-9
    assert d1["non_defective"] is True


def test_optimize_reports_no_solution_under_an_unreachable_screen(capsys):
    code, lines, _ = run_cli(capsys, "optimize", "ssp9,3", "--require-ssp", "6",
                             "--seeds", "3", "--budget", "3000")
    assert code == 0  # the report itself succeeded

    def strict(name):
        raise AssertionError(f"{name} is not JSON (RFC 8259)")

    doc = json.loads(lines[1], parse_constant=strict)
    assert doc["status"] == "no-solution"
    assert doc["w"] is None and doc["objective"] is None
    assert "ssp_screen" not in doc and "seed" not in doc
    assert "require_ssp=6.0" in lines[0] and "seed=0" in lines[0]


@pytest.mark.parametrize("flags", [
    ("--require-ssp", "nan"), ("--require-ssp", "-1"), ("--seeds", "0"), ("--budget", "0"),
])
def test_optimize_rejects_a_bad_spec_before_searching(capsys, monkeypatch, flags):
    import sspkit.optimizer

    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(sspkit.optimizer, "_nelder_mead_round", no_search)
    code, lines, err = run_cli(capsys, "optimize", "ssp3,2-b1", *flags)
    assert code == 1 and lines == []
    assert "sspkit: error:" in err


@pytest.mark.parametrize("argv", [
    ("optimize", "ssp3,2", "--seed", "-1"),
    ("integrate", "--method", "ssp3,3-w", "--problem", "vdp", "--seed", "-3"),
    ("bench", "--methods", "ssp3,3-w", "--problems", "vdp", "--tols", "1e-3", "--seed", "-2"),
], ids=["optimize", "integrate", "bench"])
def test_a_negative_seed_fails_naming_the_seed(capsys, monkeypatch, argv):
    # the message is the search spec's, not NumPy's random generator's
    import sspkit.optimizer

    def refuse(*args, **kwargs):
        raise AssertionError("work ran with a negative seed")

    monkeypatch.setattr(sspkit.optimizer, "_nelder_mead_round", refuse)
    monkeypatch.setattr(bench, "reference_endpoint", refuse)
    code, lines, err = run_cli(capsys, *argv)
    assert code == 1 and lines == []
    assert err == f"sspkit: error: seed must be at least 0, got {argv[-1]}\n"


def test_optimize_has_no_target_order_flag(capsys):
    # the embedded order is always the advancing order minus one
    with pytest.raises(SystemExit) as exc:
        main(["optimize", "ssp3,2", "--target-order", "1"])
    assert exc.value.code == 1
    assert "--target-order" in capsys.readouterr().err


# ------------------------------------------------------------------- shell


@pytest.mark.parametrize("argv", [
    ("region", "ssp2,2-b2", "--nx", "2", "--ny", "2", "--json"),
    ("bench", "--methods", "ssp2,2-b2", "--problems", "vdp", "--tols", "1e-2", "--json"),
    ("optimize", "ssp3,2-b1", "--seeds", "1", "--budget", "200", "--json"),
])
def test_json_is_refused_where_nothing_reads_it(capsys, argv):
    # only analyze and integrate have a JSON form
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 1
    assert "--json" in capsys.readouterr().err


_BAD_TOLS = {"-1": "atol must be > 0, got -1.0", "0": "atol must be > 0, got 0.0",
             "nan": "atol must be a finite number, got nan", "inf": "atol must be a finite number, got inf"}


@pytest.mark.parametrize("tol", list(_BAD_TOLS))
def test_integrate_rejects_a_bad_tolerance(capsys, tol):
    # -1 used to exit 0 with a wrong endpoint and 0 to run for millions of
    # attempts; both now stop before the first step
    code, lines, err = run_cli(capsys, "integrate", "--method", "ssp2,2-b2", "--problem", "vdp",
                               "--tol", tol, "--skip-error")
    assert code == 1 and lines == []
    assert _BAD_TOLS[tol] in err


@pytest.mark.filterwarnings("error")
def test_an_unreachable_tolerance_fails_with_a_finite_step_and_no_warning(capsys):
    # 1e-300 used to print NumPy's overflow warning and report "step size nan"
    code, lines, err = run_cli(capsys, "integrate", "--method", "ssp2,2-b2", "--problem", "vdp",
                               "--tol", "1e-300")
    assert code == 2 and lines == []
    assert err == ("sspkit: stiffness failure: step size 0.000e+00 underflowed at t = 0 "
                   "(0 accepted, 0 rejected)\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tol", ["1", "0.5", "0.1"])
@pytest.mark.parametrize("problem", ["vdp", "brusselator"])
@pytest.mark.parametrize("method", ["ssp2,2-b2", "ssp10,4-b3", "bs32", "dp54"])
def test_an_attempt_that_overflows_is_rejected_without_a_warning(capsys, method, problem, tol):
    # dp54 on brusselator at tol 1 and ssp10,4-b3 at tol 0.5 and 1 used to
    # print "invalid value encountered in dot" from the attempt kernel
    code, _, err = run_cli(capsys, "integrate", "--method", method, "--problem", problem,
                           "--tol", tol, "--skip-error")
    assert code in (0, 2) and "Warning" not in err, err


@pytest.mark.parametrize("argv", [
    ("bench", "--methods", "ssp2,2-b2", "--problems", "vdp", "--tols", "1e-3", "--out", "{missing}"),
    ("analyze", "ssp2,2-b2", "--out", "{missing}"),
    ("analyze", "ssp2,2-b2", "--out", "{dir}"),
    ("integrate", "--method", "ssp2,2-b2", "--problem", "vdp", "--trace", "{missing}"),
    ("integrate", "--method", "ssp2,2-b2", "--problem", "vdp", "--skip-error", "--out", "{missing}"),
], ids=["bench-out", "analyze-out", "analyze-out-dir", "integrate-trace", "integrate-out"])
def test_an_unwritable_output_fails_before_any_work(tmp_path, capsys, monkeypatch, argv):
    import sspkit.cli

    def refuse(*_args, **_kwargs):
        raise AssertionError("work ran before the output path was checked")

    for mod, name in ((bench, "reference_endpoint"), (sspkit.cli, "reference_endpoint"),
                      (sspkit.cli, "integrate_adaptive"), (sspkit.cli, "analyze_method")):
        monkeypatch.setattr(mod, name, refuse)
    paths = {"missing": str(tmp_path / "no-such-dir" / "x.csv"), "dir": str(tmp_path)}
    code, lines, err = run_cli(capsys, *(a.format(**paths) for a in argv))
    assert code == 1 and lines == []
    assert err.count("\n") == 1 and err.startswith("sspkit: error: cannot write to")


def test_usage_error_exits_one():
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--problems", "vdp"])  # --methods missing
    assert exc.value.code == 1


def test_console_script_smoke():
    """The declared ``sspkit`` console script works as a program.

    pip turns ``[project.scripts] sspkit = "module:func"`` into a wrapper
    that imports ``func`` and exits with its return value.  The same
    wrapper runs here under this interpreter, so no install is needed; an
    installed ``sspkit`` found on PATH is run as well.
    """
    tomllib = pytest.importorskip("tomllib")  # standard library from 3.11
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["sspkit"]
    module, func = target.split(":")
    wrapper = f"import sys; from {module} import {func}; sys.exit({func}())"
    commands = [[sys.executable, "-c", wrapper, "--version"]]
    installed = shutil.which("sspkit")
    if installed:
        commands.append([installed, "--version"])
    for cmd in commands:
        out = subprocess.run(cmd, capture_output=True, text=True, env=_package_env())
        assert out.returncode == 0, (cmd, out.stderr)
        assert out.stdout.startswith(f"sspkit {sspkit.__version__}"), (cmd, out.stdout)


def _package_env() -> dict:
    """The environment with this checkout's package first on PYTHONPATH."""
    env = dict(os.environ)
    package_parent = str(Path(sspkit.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_parent, env.get("PYTHONPATH")) if p)
    return env


def test_integrate_at_a_tolerance_whose_scale_overflows_warns_of_nothing():
    # atol + |u0| * rtol overflows to inf at tol 1e308; initial_step forms
    # it as _rms forms its squares, with overflow ignored, so no NumPy
    # RuntimeWarning reaches stderr.  In a subprocess: pytest would record
    # the warning instead of printing it.
    cmd = [sys.executable, "-m", "sspkit.cli", "integrate", "--method", "ssp2,2-b2", "--problem", "vdp",
           "--tol", "1e308", "--skip-error"]
    out = subprocess.run(cmd, capture_output=True, text=True, env=_package_env())
    assert out.returncode == 0
    assert out.stderr == ""
    assert "accepted: 10" in out.stdout.splitlines()


def test_analyze_past_the_stage_bound_fails_by_name_and_the_bound_itself_warns_of_nothing():
    # ssp100,3 used to exit 1 with NumPy's "Array must not contain infs or
    # NaNs" after a RuntimeWarning; in a subprocess, so a warning would print
    def analyze(mid):
        cmd = [sys.executable, "-m", "sspkit.cli", "analyze", mid]
        return subprocess.run(cmd, capture_output=True, text=True, env=_package_env())

    out = analyze("ssp100,3")
    assert out.returncode == 1
    assert out.stderr == "sspkit: error: stage count s of ssp100,3 must be between 3 and 99, got 100\n"
    out = analyze("ssp81,3")
    assert out.returncode == 0
    assert out.stderr == ""


@pytest.mark.parametrize("mid, field", [
    ("ssp" + "9" * 5000 + ",2", "stage count s of ssp<5000 digits>,2 must be at most 99"),
    ("ssp3," + "9" * 5000, "order p of ssp3,<5000 digits> must be between 2 and 4"),
], ids=["stage-count", "order"])
def test_analyze_of_a_field_too_long_for_int_fails_by_name(capsys, mid, field):
    # Python's int() used to refuse it with its 4300-digit limit message
    code, lines, err = run_cli(capsys, "analyze", mid)
    assert code == 1 and lines == []
    assert err == f"sspkit: error: {field}, got a number of 5000 digits\n"


def test_the_package_and_its_cli_load_no_scipy():
    # numpy is the only run-time requirement: importing scipy.optimize
    # alone took most of the start-up time.  ssp3,3-w is derived by the
    # weight search, so resolving it runs a search.
    script = """
import runpy, sys
import sspkit
sspkit.resolve("ssp3,3-w")
sys.argv = ["sspkit", "--help"]
try:
    runpy.run_module("sspkit.cli", run_name="__main__")
except SystemExit:
    pass
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_package_env())
    assert out.returncode == 0, out.stderr
    assert "usage: sspkit" in out.stdout
    assert out.stdout.splitlines()[-1] == "[]"


def test_analysis_leaves_numpy_ma_unimported():
    # the first np.unique of a process imports numpy.ma (about 13 ms); the
    # axis radii cut their axes without it
    script = """
import sys
import sspkit
for i in sspkit.catalog_ids():
    sspkit.analyze_method(sspkit.resolve(i))
print("numpy.ma" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_package_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "False"


def test_a_single_job_bench_leaves_the_process_pool_unimported():
    # concurrent.futures.process costs about 20 ms to import, and only a bench
    # with n_jobs > 1 starts a pool
    script = """
import sys
import sspkit
print("concurrent.futures.process" in sys.modules)
sspkit.run_bench(sspkit.BenchPlan(methods=("ssp2,2-b2",), problems=("vdp",), tolerances=(1e-2,)))
print("concurrent.futures.process" in sys.modules)
"""
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=_package_env())
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-2:] == ["False", "False"]


def test_header_records_command_and_seed(capsys):
    _, lines, _ = run_cli(capsys, "analyze", "ssp2,2-b2", "--seed", "3")
    assert "cmd=analyze" in lines[0]
    assert "seed=3" in lines[0]
