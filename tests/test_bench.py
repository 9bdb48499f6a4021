"""Tests for the work-precision sweep and its CSV rendering."""

import concurrent.futures
import csv
import io
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from sspkit import bench, integrator
from sspkit.bench import (
    CSV_COLUMNS,
    BenchPlan,
    WorkPrecisionRow,
    reference_endpoint,
    rows_to_csv,
    run_bench,
    run_single,
)
from sspkit.integrator import integrate_fixed
from sspkit.problems import make_problem
from sspkit.tableau import resolve

from conftest import perfbench_worker

SMALL_PLAN = BenchPlan(
    methods=("ssp2,2-b2", "ssp4,3-b1"),
    problems=("vdp",),
    tolerances=(1e-2, 1e-3),
)


def test_plan_rejects_empty_axes_and_unsorted_tolerances():
    with pytest.raises(ValueError):
        BenchPlan(methods=(), problems=("vdp",))
    with pytest.raises(ValueError):
        BenchPlan(methods=("ssp2,2-b2",), problems=())
    with pytest.raises(ValueError):
        BenchPlan(methods=("ssp2,2-b2",), problems=("vdp",), tolerances=(1e-3, 1e-2))


def test_plan_rejects_fewer_than_one_job():
    for n in (0, -2):
        with pytest.raises(ValueError, match="n_jobs must be at least 1"):
            BenchPlan(methods=("ssp2,2-b2",), problems=("vdp",), n_jobs=n)


def test_plan_rejects_a_negative_seed_without_a_searched_method():
    # resolve reads the seed only for a -w method; the plan checks it for every plan
    with pytest.raises(ValueError, match=r"^seed must be at least 0, got -1$"):
        BenchPlan(methods=("ssp2,2-b2",), problems=("vdp",), seed=-1)


def test_a_plan_built_from_lists_holds_tuples():
    # a list would leave the checked ladder open to change and the plan unhashable
    plan = BenchPlan(methods=["ssp2,2-b2"], problems=["vdp"], tolerances=[1e-2, 1e-3])
    assert (plan.methods, plan.problems, plan.tolerances) == (("ssp2,2-b2",), ("vdp",), (1e-2, 1e-3))
    assert hash(plan) == hash(BenchPlan(("ssp2,2-b2",), ("vdp",), (1e-2, 1e-3)))


def test_plan_reads_problem_ids_and_controller_kinds_in_any_case():
    # read as make_problem and make_controller read them, stored as their
    # owners spell them; surrounding whitespace is stripped from every id,
    # as resolve strips it
    plan = BenchPlan(methods=(" SSP2,2-B2 ",), problems=("VdP", " EULER\t"), controller=" PID ")
    assert plan.methods == ("ssp2,2-b2",)
    assert plan.problems == ("vdp", "euler") and plan.controller == "pid"


@pytest.mark.parametrize("kwargs", [
    {"tolerances": (1e-3, -1.0)},
    {"tolerances": (0.0,)},
    {"tolerances": (math.nan,)},
    {"tolerances": (math.inf, 1e-3)},
    {"methods": ("nosuch",), "problems": ("advection", "vdp")},
    {"methods": ("ssp5,3",)},
    {"methods": ("ssp3,3",)},
    {"problems": ("vdp", "nope")},
    {"controller": "nope"},
    {"tolerances": ()},
    {"n_jobs": 1.5},
    {"problems": ("VDP", "vdp")},
    {"methods": ("ssp2,2-b2", "SSP2,2-B2")},
])
def test_a_bad_plan_fails_before_any_reference_solve(monkeypatch, kwargs):
    def refuse(*_args, **_kwargs):
        raise AssertionError("reference solve of a bad plan")

    monkeypatch.setattr(bench, "reference_endpoint", refuse)
    plan = {"methods": ("ssp2,2-b2",), "problems": ("advection",), **kwargs}
    with pytest.raises(ValueError):
        run_bench(BenchPlan(**plan))


@pytest.mark.parametrize("n_jobs, cpus, workers", [(8, 2, 2), (2, 4, 2), (3, None, None)])
def test_worker_count_is_capped_at_the_cpu_count(monkeypatch, n_jobs, cpus, workers):
    # a stand-in pool that records its size and maps in process
    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return [fn(*args) for args in zip(*iterables)]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(bench.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(bench, "reference_endpoint", lambda pid: np.zeros(2))
    plan = BenchPlan(methods=("ssp2,2-b2",), problems=("vdp",), tolerances=(1e-2,), n_jobs=n_jobs)
    rows = run_bench(plan)
    assert started == ([] if workers is None else [workers])
    assert [r.status for r in rows] == ["ok"]


def test_reference_endpoint_is_reproducible():
    a = reference_endpoint("vdp")
    b = reference_endpoint("vdp")
    assert a == pytest.approx(b, abs=0)
    assert a == pytest.approx([-1.54844586, 1.01811273], abs=1e-6)


def test_single_run_counts_work_per_stage():
    u_ref = reference_endpoint("vdp")
    row = run_single("ssp2,2-b2", "vdp", 1e-3, "pid", u_ref)
    assert row.status == "ok"
    assert row.accepted > 0
    assert row.nfev == 2 * (row.accepted + row.rejected) + 2  # + the starting-step probe
    assert 0 < row.global_error < 0.05
    assert row.wall_ms > 0


@pytest.mark.parametrize("status", ["budget-failure", "stiffness-failure"])
def test_a_failed_run_is_a_row_of_zero_work(monkeypatch, status):
    # a run that exhausts its budget or whose step underflows is recorded,
    # not raised, so that a sweep goes on past it
    tol = 1e-3
    if status == "budget-failure":
        monkeypatch.setattr(integrator, "MAX_ATTEMPTS", 3)
    else:
        tol = 1e-300
    row = run_single(" SSP2,2-B2", "VdP ", tol, "pid", np.zeros(2))
    assert (row.method, row.problem, row.tol, row.status) == ("ssp2,2-b2", "vdp", tol, status)
    assert (row.accepted, row.rejected, row.nfev) == (0, 0, 0)
    assert math.isnan(row.global_error) and row.wall_ms >= 0


def test_a_sweep_goes_on_past_a_failed_run(monkeypatch):
    monkeypatch.setattr(bench, "reference_endpoint", lambda pid: np.zeros(2))
    rows = run_bench(BenchPlan(methods=("ssp2,2-b2", "ssp3,2-b1"), problems=("vdp",),
                               tolerances=(1e-2, 1e-300)))
    assert [(r.method, r.tol, r.status) for r in rows] == [
        ("ssp2,2-b2", 1e-2, "ok"), ("ssp2,2-b2", 1e-300, "stiffness-failure"),
        ("ssp3,2-b1", 1e-2, "ok"), ("ssp3,2-b1", 1e-300, "stiffness-failure")]


def test_sweep_counts_match_the_benchmark_record():
    # the 48 ode-sweep rows at tol 1e-3 (6 pairs x vdp, brusselator x 4
    # controllers) and the 8 ssp2,2-b2 rows at 1e-5, whose thousands of
    # attempts show a last-bit drift in a step first, exact against the
    # counts the benchmark checks
    expected = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "data" / "expected.json").read_text())
    rows = {k: v for k, v in expected.items() if k.startswith("ode|")
            and (k.endswith("|0.001") or "|ssp2,2-b2|" in k and k.endswith("|1e-05"))}
    assert len(rows) == 56
    for key, want in rows.items():
        _, controller, method, problem, tol = key.split("|")
        row = run_single(method, problem, float(tol), controller, u_ref=0.0)  # counts only
        got = (row.accepted, row.rejected, row.nfev)
        assert got == (want["accepted"], want["rejected"], want["fev"]), key


def test_pde_counts_match_the_benchmark_record():
    # the pde-weno rows: four adaptive solves at 1e-4 (counts exact) and
    # four fixed-step solves at the CFL step (counts exact, the error
    # against the stored reference at the benchmark's tolerances)
    root = Path(__file__).resolve().parents[1] / "perfbench" / "data"
    expected = json.loads((root / "expected.json").read_text())
    refs = json.loads((root / "references.json").read_text())
    worker = perfbench_worker()
    rows = {k: v for k, v in expected.items() if k.startswith("pde|") and k.endswith("|0.0001")}
    assert len(rows) == 4
    for key, want in rows.items():
        _, method, problem, tol = key.split("|")
        row = run_single(method, problem, float(tol), "pid", u_ref=0.0)  # counts only
        got = (row.accepted, row.rejected, row.nfev)
        assert got == (want["accepted"], want["rejected"], want["fev"]), key
    fixed = {k: v for k, v in expected.items() if k.startswith("fixed|")}
    assert len(fixed) == 4
    for key, want in fixed.items():
        _, method, problem = key.split("|")
        prob = make_problem(problem)
        calls = []
        counted = replace(prob, f=lambda t, u, f=prob.f: calls.append(t) or f(t, u))
        tab = resolve(method)
        u = integrate_fixed(counted, tab, prob.cfl_hint(prob.u0))
        assert (len(calls), len(calls) // tab.s) == (want["fev"], want["steps"]), key
        err = float(np.linalg.norm(u - np.array(refs[problem])))
        assert abs(err - want["err"]) <= worker.ERR_ATOL + worker.ERR_RTOL * abs(want["err"]), key


def test_sweep_rows_are_sorted_and_errors_shrink_with_tolerance():
    rows = run_bench(SMALL_PLAN)
    assert len(rows) == 4
    keys = [(r.problem, r.method, -r.tol) for r in rows]
    assert keys == sorted(keys)
    assert all(r.status == "ok" for r in rows)
    by_method = {}
    for r in rows:
        by_method.setdefault(r.method, []).append(r)
    for rs in by_method.values():
        assert rs[0].global_error > rs[1].global_error
        assert rs[0].nfev < rs[1].nfev


def test_sweep_is_deterministic():
    a = run_bench(SMALL_PLAN)
    b = run_bench(SMALL_PLAN)
    assert [(r.accepted, r.rejected, r.nfev, r.global_error) for r in a] == [
        (r.accepted, r.rejected, r.nfev, r.global_error) for r in b
    ]


def test_csv_round_trip_preserves_all_columns():
    rows = run_bench(SMALL_PLAN)
    lines = rows_to_csv(rows)
    assert lines[0] == CSV_COLUMNS
    parsed = list(csv.DictReader(io.StringIO("\n".join(lines))))
    assert len(parsed) == 4
    for rec, row in zip(parsed, rows):
        assert rec["method"] == row.method
        assert float(rec["tol"]) == row.tol
        assert int(rec["accepted"]) == row.accepted
        assert int(rec["nfev"]) == row.nfev
        assert float(rec["global_error"]) == pytest.approx(row.global_error, rel=1e-9)


def test_relative_work_column_normalizes_by_the_named_method():
    rows = run_bench(SMALL_PLAN)
    lines = rows_to_csv(rows, relative_to="ssp2,2-b2")
    assert lines[0] == CSV_COLUMNS + ",relative_work"
    parsed = list(csv.DictReader(io.StringIO("\n".join(lines))))
    base = {(r["problem"], r["tol"]): int(r["nfev"]) for r in parsed
            if r["method"] == "ssp2,2-b2"}
    for rec in parsed:
        want = int(rec["nfev"]) / base[(rec["problem"], rec["tol"])]
        assert float(rec["relative_work"]) == pytest.approx(want, rel=1e-5)
        if rec["method"] == "ssp2,2-b2":
            assert float(rec["relative_work"]) == 1.0


def test_failed_runs_render_with_empty_relative_work():
    row = WorkPrecisionRow("ssp2,2-b2", "vdp", 1e-3, 0, 0, 0, float("nan"),
                           1.0, "stiffness-failure")
    lines = rows_to_csv([row], relative_to="ssp2,2-b2")
    assert lines[1].endswith("stiffness-failure,")
    assert "nan" in lines[1]


@pytest.mark.parametrize("base", ["SSP2,2-B2", "dp54"])
def test_relative_work_refuses_a_base_that_no_row_has(base):
    # rows carry canonical ids, so a base in another case names no row either
    rows = [WorkPrecisionRow(m, "vdp", 1e-3, 10, 0, 22, 1e-4, 1.0)
            for m in ("ssp2,2-b2", "ssp3,2-b1")]
    with pytest.raises(ValueError, match="is not the method of any row"):
        rows_to_csv(rows, relative_to=base)


def test_a_repeat_is_refused_by_its_canonical_id():
    with pytest.raises(ValueError, match="problem 'vdp' is listed twice"):
        BenchPlan(methods=("ssp2,2-b2",), problems=("VDP", "vdp"))
    with pytest.raises(ValueError, match="method 'ssp2,2-b2' is listed twice"):
        BenchPlan(methods=("ssp2,2-b2", "SSP2,2-B2"), problems=("vdp",))


def test_process_pool_gives_the_rows_of_the_serial_sweep(monkeypatch):
    # a real two-worker pool, whatever the machine's CPU count; wall_ms is a timing
    monkeypatch.setattr(bench.os, "cpu_count", lambda: 2)
    plan = BenchPlan(methods=("ssp2,2-b2", "bs32"), problems=("vdp", "brusselator"),
                     tolerances=(1e-3, 1e-4))
    serial, pooled = (run_bench(replace(plan, n_jobs=n)) for n in (1, 2))
    assert [replace(r, wall_ms=0.0) for r in pooled] == [replace(r, wall_ms=0.0) for r in serial]
    assert len(serial) == 8
