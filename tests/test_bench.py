"""Tests for the work-precision sweep and its CSV rendering."""

import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from sspkit import bench
from sspkit.bench import (
    CSV_COLUMNS,
    BenchPlan,
    WorkPrecisionRow,
    reference_endpoint,
    rows_to_csv,
    run_bench,
    run_single,
)

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


@pytest.mark.parametrize("kwargs", [
    {"tolerances": (1e-3, -1.0)},
    {"tolerances": (0.0,)},
    {"tolerances": (math.nan,)},
    {"tolerances": (math.inf, 1e-3)},
    {"methods": ("nosuch",), "problems": ("advection", "vdp")},
    {"methods": ("ssp5,3",)},
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

        def map(self, fn, tasks):
            return [fn(t) for t in tasks]

    monkeypatch.setattr(bench, "ProcessPoolExecutor", FakePool)
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


def test_sweep_counts_match_the_benchmark_record():
    # the 48 ode-sweep rows at tol 1e-3 (6 pairs x vdp, brusselator x 4
    # controllers), exact against the counts the benchmark checks
    expected = json.loads(
        (Path(__file__).resolve().parents[1] / "perfbench" / "data" / "expected.json").read_text())
    rows = {k: v for k, v in expected.items() if k.startswith("ode|") and k.endswith("|0.001")}
    assert len(rows) == 48
    for key, want in rows.items():
        _, controller, method, problem, tol = key.split("|")
        row = run_single(method, problem, float(tol), controller, u_ref=0.0)  # counts only
        got = (row.accepted, row.rejected, row.nfev)
        assert got == (want["accepted"], want["rejected"], want["fev"]), key


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
