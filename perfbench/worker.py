"""One benchmark repetition in its own process: set up, run a workload,
check its outputs, and print one JSON line.

Started by run.py with PYTHONPATH pointing at the checkout's src/ and
BLAS pinned to one thread.  Usage:

    python3 perfbench/worker.py --workload ode-sweep --seed 0 [--trace] [--reduced]
    python3 perfbench/worker.py --setup-only

Each workload is a list of units.  A unit stands for one program
invocation (one ``sspkit bench`` run per controller, one batch of PDE
solves, one design search) and runs in a fresh fork of the set-up
process, so a cache the program fills during one unit is gone before the
next: a timed run pays what a separate invocation pays.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "data" / "expected.json"
REFERENCES = HERE / "data" / "references.json"

clock = time.perf_counter

# ode-sweep: one pair per catalog family plus the two classical pairs
SWEEP_PAIRS = ("ssp2,2-b2", "ssp3,3-w", "ssp4,3-b1", "ssp10,4-b3", "bs32", "dp54")
SWEEP_PROBLEMS = ("vdp", "brusselator")
SWEEP_TOLS = (1e-3, 1e-5, 1e-7)
CONTROLLERS = ("i", "pi", "pid", "gustafsson")
# the seed of every bench plan, hence of the ssp3,3-w weights the sweep uses
PLAN_SEED = 0

# pde-weno: the recommended fourth-order pair and a low-order one
PDE_PAIRS = ("ssp10,4-b3", "ssp3,2-b1")
PDE_PROBLEMS = ("advection", "euler")
PDE_TOL = 1e-4
PDE_CONTROLLER = "pid"

# design-search: optimum of the ssp3,2 search, 3 - 2*sqrt(2), and of the ssp3,3 search;
# every start seed reaches them
SEARCH_OPTIMA = {"ssp3,2-b1": 3.0 - 2.0 * math.sqrt(2.0), "ssp3,3": 0.5}

# check tolerances: counts are exact; errors may move at roundoff level,
# which the reference solves (dp54 at 1e-12) bound from below
ERR_RTOL, ERR_ATOL = 1e-6, 1e-9
REF_ATOL = 1e-9
SEARCH_OBJ_TOL = 1e-9
SEARCH_W_TOL = 1e-8
ORDER_TOL = 1e-10
ANALYSIS_RTOL = 1e-6


def permuted(seq, rng):
    return [seq[i] for i in rng.permutation(len(seq))]


# ---------------------------------------------------------------------------
# set-up


class Context:
    """What set-up builds: the catalog, the problems, references, expectations."""

    def __init__(self, recorder, tracer):
        import numpy as np
        from sspkit import problems, tableau

        self.recorder, self.tracer = recorder, tracer
        self.ids = tableau.catalog_ids()
        self.tabs = {i: tableau.resolve(i) for i in self.ids}
        self.tabs["ssp3,3"] = tableau.resolve("ssp3,3")
        t0 = clock()
        self.tabs["ssp3,3-w"] = tableau.resolve("ssp3,3-w", seed=PLAN_SEED)
        self.derive_w_s = clock() - t0
        self.problems = {pid: problems.make_problem(pid) for pid in problems.PROBLEM_IDS}
        refs = json.loads(REFERENCES.read_text())
        self.refs = {k: np.array(v) for k, v in refs.items()}
        self.expected = json.loads(EXPECTED.read_text())


# ---------------------------------------------------------------------------
# workloads: each returns a list of (label, unit); a unit returns observations


def row_obs(kind, row, fev):
    return {
        "key": f"{kind}|{row.method}|{row.problem}|{row.tol:g}",
        "status": row.status,
        "accepted": row.accepted,
        "rejected": row.rejected,
        "fev": fev,
        "nfev": row.nfev,
        "err": row.global_error,
    }


def ref_obs(rec):
    return [{"key": f"ref|{pid}", "u": u.tolist(), "fev": fev} for pid, u, fev in rec.refs]


def ode_sweep(ctx, seed, reduced):
    import numpy as np
    from sspkit import bench

    rng = np.random.default_rng(seed)
    controllers = ("pid",) if reduced else CONTROLLERS
    tols = SWEEP_TOLS[:1] if reduced else SWEEP_TOLS

    def unit(controller):
        plan = bench.BenchPlan(
            methods=tuple(permuted(SWEEP_PAIRS, rng)),
            problems=tuple(permuted(SWEEP_PROBLEMS, rng)),
            tolerances=tols,
            controller=controller,
            n_jobs=1,
            seed=PLAN_SEED,
        )

        def run():
            bench.run_bench(plan)

        def observe():
            rows = [row_obs(f"ode|{controller}", r, n) for r, n in ctx.recorder.rows]
            return rows + ref_obs(ctx.recorder)

        return run, observe

    return [(f"sweep-{c}", unit(c)) for c in permuted(controllers, rng)]


def pde_weno(ctx, seed, reduced):
    import numpy as np
    from sspkit import bench, integrator

    rng = np.random.default_rng(seed)
    probs = PDE_PROBLEMS[:1] if reduced else PDE_PROBLEMS
    solves = permuted([(p, m) for p in probs for m in PDE_PAIRS], rng)
    fixed = permuted([(p, m) for p in probs for m in PDE_PAIRS], rng)
    out = {}

    def run():
        refs = {"advection": bench.reference_endpoint("advection"), "euler": ctx.refs["euler"]}
        for p, m in solves:
            bench.run_single(m, p, PDE_TOL, PDE_CONTROLLER, refs[p], PLAN_SEED)
        for p, m in fixed:
            prob = ctx.problems[p]
            n0 = ctx.recorder.fev[0]
            u = integrator.integrate_fixed(prob, ctx.tabs[m], prob.cfl_hint(prob.u0))
            out[(p, m)] = (u, ctx.recorder.fev[0] - n0)

    def observe():
        obs = [row_obs("pde", r, n) for r, n in ctx.recorder.rows]
        for (p, m), (u, fev) in out.items():
            err = float(np.linalg.norm(u - ctx.refs[p]))
            obs.append({"key": f"fixed|{m}|{p}", "fev": fev,
                        "steps": fev // ctx.tabs[m].s, "err": err})
        return obs + ref_obs(ctx.recorder)

    return [("pde", (run, observe))]


def design_search(ctx, seed, reduced):
    import numpy as np
    from sspkit import analysis, optimizer

    rng = np.random.default_rng(seed)
    # the ssp3,3 start seed is offset by one so that it never repeats the
    # set-up's ssp3,3-w derivation (seed 0) inside the same process
    searches = [("ssp3,3", seed + 1)] if reduced else [("ssp3,2-b1", seed), ("ssp3,3", seed + 1)]
    ids = permuted(ctx.ids, rng)
    results, reports = [], []

    def run():
        for base, s in searches:
            spec = optimizer.OptimizationSpec(tableau=ctx.tabs[base], seed=s)
            results.append((base, s, optimizer.optimize_embedded(spec)))
        for i in ids:
            reports.append(analysis.analyze_method(ctx.tabs[i]))

    def observe():
        obs = []
        for base, s, r in results:
            obs.append({
                "key": f"search|{base}|{s}", "base": base, "status": r.status,
                "n_eval": r.n_eval, "objective": r.objective,
                "w": None if r.w is None else r.w.tolist(),
                "non_defective": r.non_defective,
            })
        for rep in reports:
            obs.append({"key": f"analyze|{rep['id']}", "report": rep})
        return obs

    return [("design", (run, observe))]


WORKLOADS = {"ode-sweep": ode_sweep, "pde-weno": pde_weno, "design-search": design_search}


# ---------------------------------------------------------------------------
# checks


def _close(a, b, rtol, atol=0.0):
    numbers = all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in (a, b))
    if not numbers or (isinstance(a, int) and isinstance(b, int)):
        return a == b
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return a == b or (math.isnan(a) and math.isnan(b))
    return abs(a - b) <= atol + rtol * abs(b)


def check(ob, ctx) -> str | None:
    """None when the observation is correct, otherwise what is wrong."""
    import numpy as np

    key = ob["key"]
    kind = key.split("|")[0]
    exp = ctx.expected.get(key)
    if kind == "ref":
        dist = float(np.linalg.norm(np.array(ob["u"]) - ctx.refs[key.split("|")[1]]))
        if dist > REF_ATOL:
            return f"{key}: endpoint {dist:.3e} from the stored reference"
        if exp is not None and ob["fev"] != exp["fev"]:
            return f"{key}: fev {ob['fev']} vs {exp['fev']}"
        return None
    if kind == "search":
        return check_search(ob, ctx, exp)
    if exp is None:
        return f"{key}: no stored expectation"
    if kind == "analyze":
        bad = [k for k, v in exp["report"].items() if not _close(ob["report"].get(k), v, ANALYSIS_RTOL)]
        return f"{key}: {bad} differ from the stored report" if bad else None
    if kind in ("ode", "pde") and ob["status"] != "ok":
        return f"{key}: status {ob['status']}"
    bad = [k for k in ("accepted", "rejected", "fev", "steps") if k in exp and ob[k] != exp[k]]
    if not _close(ob["err"], exp["err"], ERR_RTOL, ERR_ATOL):
        bad.append("err")
    if bad:
        detail = ", ".join(f"{k} {ob[k]} vs {exp[k]}" for k in bad)
        return f"{key}: {detail}"
    return None


def check_search(ob, ctx, exp) -> str | None:
    """Any start seed: status ok, the known optimum, weights in the box that
    meet the embedded order conditions.  Stored seeds: exact n_eval, w."""
    import numpy as np

    key = ob["key"]
    if ob["status"] != "ok" or ob["w"] is None:
        return f"{key}: status {ob['status']}"
    tab = ctx.tabs[ob["base"]]
    w = np.array(ob["w"])
    problems = []
    if abs(ob["objective"] - SEARCH_OPTIMA[ob["base"]]) > SEARCH_OBJ_TOL:
        problems.append(f"objective {ob['objective']!r}")
    if np.min(w) < 0.0 or np.max(w) > 1.0:
        problems.append("w outside [0, 1]")
    # order conditions of the embedded order p - 1 (at most 2 here)
    resid = [abs(w.sum() - 1.0)]
    if tab.p - 1 >= 2:
        resid.append(abs(w @ tab.c - 0.5))
    if max(resid) > ORDER_TOL:
        problems.append(f"order residual {max(resid):.2e}")
    if ob["non_defective"] is not True:
        problems.append("defective")
    if exp is not None:
        if ob["n_eval"] != exp["n_eval"]:
            problems.append(f"n_eval {ob['n_eval']} vs {exp['n_eval']}")
        if abs(ob["objective"] - exp["objective"]) > 1e-12:
            problems.append("objective differs from the stored one")
        if np.max(np.abs(w - np.array(exp["w"]))) > SEARCH_W_TOL:
            problems.append("w differs from the stored one")
    return f"{key}: {'; '.join(problems)}" if problems else None


# ---------------------------------------------------------------------------
# running units


def _maxrss_mb(who) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def isolated(fn):
    """Run ``fn()`` in a forked child and return its JSON-able result.

    The worker has pinned BLAS to one thread and starts no threads of its
    own, so the fork copies a single-threaded process."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(r)
        code = 0
        try:
            data = json.dumps({"ok": fn()})
        except BaseException:
            data = json.dumps({"error": traceback.format_exc()})
            code = 1
        with os.fdopen(w, "w") as out:
            out.write(data)
        os._exit(code)
    os.close(w)
    with os.fdopen(r) as inp:
        data = inp.read()
    os.waitpid(pid, 0)
    msg = json.loads(data)
    if "error" in msg:
        raise RuntimeError(msg["error"])
    return msg["ok"]


def run_unit(ctx, run, observe):
    """Time one unit; observations and trace aggregates are taken after the
    clock stops."""
    ctx.recorder.reset()
    if ctx.tracer is not None:
        ctx.tracer.reset()
    t0 = clock()
    run()
    wall = clock() - t0
    return {
        "wall_s": wall,
        "window": [t0, t0 + wall],
        "fev": ctx.recorder.fev[0],
        "obs": observe(),
        "trace": None if ctx.tracer is None else ctx.tracer.snapshot(),
        "maxrss_mb": _maxrss_mb(resource.RUSAGE_SELF),
    }


def probe(ctx):
    """A fixed call into every layer, run after the workload in a traced
    repetition.  It supplies the per-call figure of a layer the workload
    itself never calls, so every per-layer metric is a measurement."""
    from sspkit import analysis, bench, controller, integrator

    vdp = ctx.problems["vdp"]
    for prob in ctx.problems.values():
        for _ in range(20):
            prob.f(prob.t_span[0], prob.u0)
    for kind in CONTROLLERS:
        integrator.integrate_adaptive(vdp, ctx.tabs["ssp2,2-b2"], controller.make_controller(kind), 1e-3, 1e-3)
    integrator.integrate_fixed(vdp, ctx.tabs["ssp10,4-b3"], 1e-2)
    for pid in ("vdp", "brusselator", "advection"):
        bench.reference_endpoint(pid)
    for tol in (1e-3, 1e-4, 1e-5):
        bench.run_single("ssp2,2-b2", "vdp", tol, "pid", ctx.refs["vdp"])
    analysis.analyze_method(ctx.tabs["ssp10,4-b3"])


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        cpu = platform.processor()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "process_threads": len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--reduced", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = clock()
    import sspkit  # noqa: F401  (import is part of set-up)
    from instrument import Recorder, Tracer

    tracer = Tracer() if args.trace else None
    recorder = Recorder(tracer)
    recorder.install()
    if tracer is not None:
        tracer.install()
    ctx = Context(recorder, tracer)
    t1 = clock()
    result = {"setup_s": t1 - t0, "setup_window": [t0, t1], "derive_w_s": ctx.derive_w_s}
    if tracer is not None:
        result["setup_trace"] = tracer.snapshot()
    if args.setup_only:
        print(json.dumps(result))
        return 0

    units = WORKLOADS[args.workload](ctx, args.seed, args.reduced)
    done = [isolated(lambda u=unit: run_unit(ctx, *u)) for _, unit in units]
    obs = [ob for d in done for ob in d["obs"]]
    failures = [msg for msg in (check(ob, ctx) for ob in obs) if msg]
    if tracer is not None:
        result["probe_trace"] = isolated(lambda: run_unit(ctx, lambda: probe(ctx), list)["trace"])

    rows = [ob for ob in obs if "accepted" in ob]
    solves = [ob for ob in obs if "nfev" in ob]
    errs = [ob["err"] for ob in obs if "err" in ob and math.isfinite(ob["err"])]
    result.update(
        wall_s=sum(d["wall_s"] for d in done),
        windows=[d["window"] for d in done],
        fev=sum(d["fev"] for d in done),
        attempts=sum(ob["accepted"] + ob["rejected"] for ob in rows)
        + sum(ob.get("steps", 0) for ob in obs),
        opt_evals=sum(ob["n_eval"] for ob in obs if "n_eval" in ob),
        solves=len(solves),
        fev_unreported=sum(ob["fev"] - ob["nfev"] for ob in solves),
        global_err_max=max(errs, default=0.0),
        attempted=len(obs),
        failures=failures,
        maxrss_mb=max([_maxrss_mb(resource.RUSAGE_SELF)] + [d["maxrss_mb"] for d in done]),
        traces=[d["trace"] for d in done] if tracer is not None else None,
        cells={p: ctx.problems[p].grid.n_cells for p in PDE_PROBLEMS},
        env=environment(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
