"""Work-precision benchmarking: methods x problems x tolerance ladder,
one CSV row per run, against a high-accuracy reference solve per problem
(recomputed on every call).

Work is counted as right-hand-side evaluations: s per attempted step plus
the two of the starting-step selection.  A ``BenchPlan`` checks its axes,
tolerance ladder, job count and ids when it is built and stores each id
canonical, so a bad or repeated entry fails before any reference solve.
Individual run failures become rows with a failure status; the sweep
never aborts.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import os
import time
from dataclasses import dataclass, fields

import numpy as np

from .controller import make_controller
from .integrator import BudgetError, StiffnessError, integrate_adaptive
from .problems import make_problem
from .tableau import resolve

__all__ = [
    "BenchPlan",
    "WorkPrecisionRow",
    "DEFAULT_TOLERANCES",
    "CSV_COLUMNS",
    "reference_endpoint",
    "run_single",
    "run_bench",
    "rows_to_csv",
]

DEFAULT_TOLERANCES = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7)
REFERENCE_METHOD = "dp54"
REFERENCE_TOL = 1e-12


@dataclass(frozen=True)
class BenchPlan:
    """A sweep of methods x problems x tolerances, checked when built.

    Each axis is nonempty, every tolerance finite and positive and the
    ladder strictly decreasing, ``n_jobs`` an integer of at least 1 and
    ``seed`` one of at least 0 (a bool is neither), and every id known to
    its owner (``make_problem``, ``make_controller``, ``resolve``, with
    embedded weights).  Each id is stored as its owner spells it
    (``.name``, ``.kind``, ``.id``) and a method or problem listed twice
    is refused.  A plan that misses any of these raises ValueError here,
    before any reference solve."""

    methods: tuple[str, ...]
    problems: tuple[str, ...]
    tolerances: tuple[float, ...] = DEFAULT_TOLERANCES
    controller: str = "pid"
    n_jobs: int = 1
    seed: int = 0

    def __post_init__(self):
        if not self.methods or not self.problems or not self.tolerances:
            raise ValueError("need at least one method, one problem and one tolerance")
        bad = [tol for tol in self.tolerances if not (math.isfinite(tol) and tol > 0)]
        if bad:
            raise ValueError(f"tolerances must be finite and positive, got {bad}")
        if any(b >= a for a, b in zip(self.tolerances, self.tolerances[1:])):
            raise ValueError("tolerances must be strictly decreasing")
        if isinstance(self.n_jobs, bool) or not isinstance(self.n_jobs, numbers.Integral):
            raise ValueError(f"n_jobs must be an integer, got {self.n_jobs!r}")
        if self.n_jobs < 1:
            raise ValueError(f"n_jobs must be at least 1, got {self.n_jobs}")
        if isinstance(self.seed, bool) or not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        object.__setattr__(self, "problems", tuple(make_problem(p).name for p in self.problems))
        object.__setattr__(self, "controller", make_controller(self.controller).kind)
        # memoized: each row's own lookup is a cache hit
        tabs = [resolve(m, seed=self.seed) for m in self.methods]
        for method_id, tab in zip(self.methods, tabs):
            if tab.b_tilde is None:
                raise ValueError(f"method {method_id!r} has no embedded weights")
        object.__setattr__(self, "methods", tuple(tab.id for tab in tabs))
        for axis, ids in (("method", self.methods), ("problem", self.problems)):
            if len(set(ids)) < len(ids):
                raise ValueError(f"{axis} {max(ids, key=ids.count)!r} is listed twice")


@dataclass(frozen=True)
class WorkPrecisionRow:
    method: str
    problem: str
    tol: float
    accepted: int
    rejected: int
    nfev: int
    global_error: float
    wall_ms: float
    status: str = "ok"


CSV_COLUMNS = ",".join(f.name for f in fields(WorkPrecisionRow))


def reference_endpoint(problem_id: str, n_cells: int = 200) -> np.ndarray:
    """Endpoint of the problem (on ``n_cells`` cells for the PDEs) under
    the reference method at tight tolerance."""
    prob = make_problem(problem_id, n_cells=n_cells)
    tab = resolve(REFERENCE_METHOD)
    res = integrate_adaptive(
        prob, tab, make_controller("pid"), REFERENCE_TOL, REFERENCE_TOL
    )
    return res.u


def run_single(
    method_id: str,
    problem_id: str,
    tol: float,
    controller: str,
    u_ref: np.ndarray,
    seed: int = 0,
) -> WorkPrecisionRow:
    """One adaptive run as a row, whose ``method`` and ``problem`` are canonical."""
    tab = resolve(method_id, seed=seed)
    prob = make_problem(problem_id)
    t0 = time.perf_counter()
    try:
        res = integrate_adaptive(
            prob, tab, make_controller(controller), tol, tol
        )
    except (StiffnessError, BudgetError) as exc:
        status = "stiffness-failure" if isinstance(exc, StiffnessError) else "budget-failure"
        return WorkPrecisionRow(
            tab.id, prob.name, tol, 0, 0, 0, float("nan"),
            1e3 * (time.perf_counter() - t0), status,
        )
    wall_ms = 1e3 * (time.perf_counter() - t0)
    err = float(np.linalg.norm(res.u - u_ref))
    return WorkPrecisionRow(
        tab.id, prob.name, tol, res.n_accepted, res.n_rejected,
        res.n_fev, err, wall_ms, "ok",
    )


def run_bench(plan: BenchPlan) -> list[WorkPrecisionRow]:
    """All rows of the plan, sorted by (problem, method, tol descending).

    The worker count is capped at the machine's CPU count.
    """
    refs = {pid: reference_endpoint(pid) for pid in plan.problems}
    tasks = [
        (m, p, tol, plan.controller, refs[p], plan.seed)
        for p in plan.problems
        for m in plan.methods
        for tol in plan.tolerances
    ]
    n_jobs = min(plan.n_jobs, os.cpu_count() or 1)
    if n_jobs > 1:
        # imported here: every other run would pay for the process machinery
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n_jobs) as pool:
            rows = list(pool.map(run_single, *zip(*tasks)))
    else:
        rows = [run_single(*t) for t in tasks]
    rows.sort(key=lambda r: (r.problem, r.method, -r.tol))
    return rows


def rows_to_csv(rows, relative_to: str | None = None) -> list[str]:
    """CSV lines; with relative_to, which must be some row's method, an extra
    column normalizes nfev by that method's nfev at the same (problem, tol).
    Method ids contain commas, so fields carry standard CSV quoting."""
    header = CSV_COLUMNS
    base = {}
    if relative_to is not None:
        if relative_to not in {r.method for r in rows}:
            raise ValueError(f"relative_to {relative_to!r} is not the method of any row")
        header += ",relative_work"
        for r in rows:
            if r.method == relative_to and r.status == "ok":
                base[(r.problem, r.tol)] = r.nfev
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header.split(","))
    for r in rows:
        rec = [r.method, r.problem, f"{r.tol:g}", r.accepted, r.rejected,
               r.nfev, f"{r.global_error:.12g}", f"{r.wall_ms:.3f}", r.status]
        if relative_to is not None:
            ref = base.get((r.problem, r.tol))
            rec.append(f"{r.nfev / ref:.6g}" if ref else "")
        w.writerow(rec)
    return buf.getvalue().splitlines()
