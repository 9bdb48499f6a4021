"""End-to-end tests of the command-line surface (in-process main calls)."""

import csv
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import sspkit
from sspkit import bench
from sspkit.analysis import analyze_method
from sspkit.cli import main
from sspkit.tableau import resolve


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


@pytest.mark.parametrize("flags", [
    ("--re", "nan", "1"),
    ("--re", "1", "-1"),
    ("--im", "-2", "inf"),
])
def test_region_rejects_a_nan_or_reversed_range(capsys, flags):
    code, lines, err = run_cli(capsys, "region", "ssp2,2-b2", "--nx", "3", "--ny", "3", *flags)
    assert code == 1
    assert lines == []
    assert "finite MIN < MAX" in err


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
    doc = json.loads(lines[1])
    assert doc["status"] == "no-solution"
    assert doc["w"] is None
    assert "ssp_screen" not in doc and "seed" not in doc
    assert "require_ssp=6.0" in lines[0] and "seed=0" in lines[0]


@pytest.mark.parametrize("flags", [
    ("--require-ssp", "nan"), ("--require-ssp", "-1"), ("--seeds", "0"), ("--budget", "0"),
])
def test_optimize_rejects_a_bad_spec_before_searching(capsys, monkeypatch, flags):
    import sspkit.optimizer

    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr(sspkit.optimizer, "minimize", no_search)
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

    monkeypatch.setattr(sspkit.optimizer, "minimize", refuse)
    monkeypatch.setattr(bench, "reference_endpoint", refuse)
    code, lines, err = run_cli(capsys, *argv)
    assert code == 1 and lines == []
    assert err == f"sspkit: error: seed must be a non-negative integer, got {argv[-1]}\n"


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


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
def test_integrate_rejects_a_bad_tolerance(capsys, tol):
    # -1 used to exit 0 with a wrong endpoint and 0 to run for millions of
    # attempts; both now stop before the first step
    code, lines, err = run_cli(capsys, "integrate", "--method", "ssp2,2-b2", "--problem", "vdp",
                               "--tol", tol, "--skip-error")
    assert code == 1 and lines == []
    assert "atol > 0 and rtol >= 0" in err


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
    env = dict(os.environ)
    package_parent = str(Path(sspkit.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_parent, env.get("PYTHONPATH")) if p)
    commands = [[sys.executable, "-c", wrapper, "--version"]]
    installed = shutil.which("sspkit")
    if installed:
        commands.append([installed, "--version"])
    for cmd in commands:
        out = subprocess.run(cmd, capture_output=True, text=True, env=env)
        assert out.returncode == 0, (cmd, out.stderr)
        assert out.stdout.startswith(f"sspkit {sspkit.__version__}"), (cmd, out.stdout)


def test_header_records_command_and_seed(capsys):
    _, lines, _ = run_cli(capsys, "analyze", "ssp2,2-b2", "--seed", "3")
    assert "cmd=analyze" in lines[0]
    assert "seed=3" in lines[0]
