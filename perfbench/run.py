"""sspkit benchmark: three closed-loop workloads, timed end to end, with a
separate traced run for the per-layer split.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ode-sweep --seed 0 --seconds 25 --trace 0

Workloads (perfbench/DESIGN.md says why each was chosen):

* ``ode-sweep``     -- run_bench work-precision sweeps, vdp and brusselator,
                       six pairs, tolerances 1e-3..1e-7, all four controllers.
* ``pde-weno``      -- adaptive and fixed-step WENO5 advection and Euler
                       solves at N=200, plus the advection reference solve.
* ``design-search`` -- two embedded-weight searches and analyze_method over
                       the whole catalog; no RHS, no integrator.

One caller, each call waiting for the previous one.  Every repetition is a
fresh worker process (perfbench/worker.py) that sets up, runs the workload
once and checks its outputs; repetitions continue while they fit in
``--seconds``.  Reported times are scaled to a reference CPU speed (see
SPEED_REF_S below).  With ``--trace 0`` the last line of stdout carries the
end-to-end metrics, with ``--trace 1`` the per-layer metrics of traced
repetitions (interleaved with untraced ones for the tracing overhead).
Lines before it start with ``#`` and are for people.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import threading
import sys
import time
from pathlib import Path

# BLAS pinned to one thread, here and in every worker (which inherits it)
PINNED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED)

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from layers import per_layer  # noqa: E402

WORKLOADS = ("ode-sweep", "pde-weno", "design-search")
MIN_REPS = 2            # untraced repetitions in a --trace 0 run
WORKER_TIMEOUT_S = 170  # a run must end within 180 s
# Speed normalisation.  On a shared machine the CPU speed drifts by up to
# ~1.7x over seconds.  A short loop of small NumPy operations, timed from
# this process every SPEED_PERIOD_S while a worker runs, tracks that drift:
# scaling by it cut the repetition-to-repetition spread of wall time from
# 8-18% to 2-4%.  Reported times are the measured windows scaled by the
# loop's speed inside them relative to SPEED_REF_S, the loop's time at the
# reference speed.
SPEED_REF_S = 2.0e-3
SPEED_PERIOD_S = 0.05
_SPEED_X = np.linspace(0.1, 1.0, 600)
_SPEED_C = np.array([0.2, 0.3, 0.5])

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "work_per_s": "1/s",
    "work": "count",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}


class WorkerError(RuntimeError):
    pass


def _speed_loop() -> None:
    """Both kinds of small NumPy work the workloads do: dispatch-bound
    operations on 2-vectors (ODE steps) and arithmetic on 600 values
    (WENO5 fields)."""
    x, c = _SPEED_X, _SPEED_C
    for _ in range(50):
        a = np.array([1.0, 2.0])
        k = np.empty((3, 2))
        k[0], k[1], k[2] = a, 2.0 * a, a + 1.0
        b = a + 0.1 * np.tensordot(c, k, axes=1)
        float(np.max(np.abs(b - a) / (1e-6 + np.maximum(np.abs(a), np.abs(b)))))
        y = (x * x + 2.0 * x) / (1.0 + x)
        np.maximum(y, 0.5 * x, out=y)
        y.sum()


def spawn(root: Path, env: dict, extra: list[str]) -> dict:
    """Run one worker; meanwhile time the speed loop every SPEED_PERIOD_S.

    Returns the worker's JSON result with ``speed``: (midpoint, seconds)
    of every speed-loop sample, on the clock the worker's windows use."""
    cmd = [sys.executable, str(HERE / "worker.py"), *extra]
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    box = {}
    reader = threading.Thread(target=lambda: box.update(out=proc.communicate()))
    reader.start()
    samples = []
    t_end = time.perf_counter() + WORKER_TIMEOUT_S
    while proc.poll() is None and time.perf_counter() < t_end:
        t0 = time.perf_counter()
        _speed_loop()
        t1 = time.perf_counter()
        samples.append((0.5 * (t0 + t1), t1 - t0))
        time.sleep(SPEED_PERIOD_S)
    if proc.poll() is None:
        proc.kill()
    reader.join()
    stdout, stderr = box["out"]
    if proc.returncode != 0:
        raise WorkerError(f"worker failed ({proc.returncode}):\n{stderr}")
    res = json.loads(stdout.strip().splitlines()[-1])
    res["speed"] = samples
    return res


def at_reference_speed(samples, a: float, b: float) -> float:
    """Seconds the window [a, b] would have taken at the reference speed:
    its length times the mean relative speed sampled inside it (the
    nearest samples when the window holds fewer than three)."""
    inside = [s for s in samples if a <= s[0] <= b]
    if len(inside) < 3:
        inside = sorted(samples, key=lambda s: abs(s[0] - 0.5 * (a + b)))[:3]
    return (b - a) * statistics.fmean(SPEED_REF_S / dt for _, dt in inside)


def measure(root: Path, workload: str, seed: int, seconds: float, trace: bool, reduced: bool):
    """Repetitions until ``seconds`` are used, each preceded by a set-up-only
    process; returns (set-up samples, untraced reps, traced reps)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    base = ["--workload", workload, "--seed", str(seed)] + (["--reduced"] if reduced else [])
    spawn(root, env, ["--setup-only"])  # warm-up: bytecode and file caches
    setup, plain, traced = [], [], []
    deadline = time.perf_counter() + seconds
    last = 0.0
    while True:
        # a traced run alternates untraced and traced repetitions
        want_trace = trace and len(traced) < len(plain)
        have = (len(plain) >= 1 and len(traced) >= 1) if trace else len(plain) >= MIN_REPS
        if have and time.perf_counter() + last > deadline:
            break
        t0 = time.perf_counter()
        setup.append(normalise(spawn(root, env, ["--setup-only"])))
        rep = normalise(spawn(root, env, base + (["--trace"] if want_trace else [])))
        last = time.perf_counter() - t0
        (traced if want_trace else plain).append(rep)
        setup.append(rep)
    return setup, plain, traced


def normalise(res: dict) -> dict:
    """Add the reference-speed set-up and wall times to a worker result."""
    res["setup_ref_s"] = at_reference_speed(res["speed"], *res["setup_window"])
    if "windows" in res:
        res["wall_ref_s"] = sum(at_reference_speed(res["speed"], a, b) for a, b in res["windows"])
    return res


def end_to_end(setup, reps) -> dict:
    wall = statistics.median([r["wall_ref_s"] for r in reps])
    work = reps[0]["fev"] + reps[0]["opt_evals"]  # exact; checked to repeat
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(len(r["failures"]) for r in reps)
    return {
        "setup_s": statistics.median([x["setup_ref_s"] for x in setup]),
        "wall_s": wall,
        "work_per_s": work / wall,
        "work": work,
        "peak_rss_mb": statistics.median([r["maxrss_mb"] for r in reps]),
        "ok_frac": (attempted - failed) / attempted,
    }


def report_table(setup, reps, e2e) -> list[str]:
    """Every end-to-end figure of the workload, including those that are 0
    by construction on it and so stay out of the JSON line, for people."""
    r = reps[0]
    wall = e2e["wall_s"]
    attempted = sum(x["attempted"] for x in reps)
    failed = sum(len(x["failures"]) for x in reps)
    rows = [
        ("setup_s", e2e["setup_s"], "s"),
        ("wall_s", wall, "s"),
        ("fev_per_s", r["fev"] / wall, "1/s"),
        ("opt_evals_per_s", r["opt_evals"] / wall, "1/s"),
        ("fev", r["fev"], "count"),
        ("attempts", r["attempts"], "count"),
        ("opt_evals", r["opt_evals"], "count"),
        ("global_err_max", max(x["global_err_max"] for x in reps), "l2"),
        ("failed_frac", failed / attempted, "frac"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB"),
        ("fev_unreported_per_solve", r["fev_unreported"] / max(r["solves"], 1), "count"),
    ]
    rows += [
        ("setup_raw_s", statistics.median([x["setup_s"] for x in setup]), "s"),
        ("wall_raw_s", statistics.median([x["wall_s"] for x in reps]), "s"),
        ("speed_loop_ms", 1e3 * statistics.median([dt for x in reps for _, dt in x["speed"]]), "ms"),
    ]
    lines = [f"# {name:<26} {value:>16.6g} {unit}" for name, value, unit in rows]
    lines.append(f"# repetitions {len(reps)}, set-up samples {len(setup)}; wall_s per repetition "
                 f"{[round(x['wall_ref_s'], 4) for x in reps]} (measured {[round(x['wall_s'], 4) for x in reps]})")
    return lines


def exact_counts_repeat(reps) -> list[str]:
    keys = ("fev", "attempts", "opt_evals")
    first = {k: reps[0][k] for k in keys}
    return [f"repetition {i}: {k} {r[k]} vs {first[k]}"
            for i, r in enumerate(reps[1:], 1) for k in keys if r[k] != first[k]]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sspkit benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true",
                    help="smaller workloads, for the benchmark's self-test")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "sspkit" / "__init__.py").is_file():
        print("run from the root of an sspkit checkout: src/sspkit not found", file=sys.stderr)
        return 2

    try:
        setup, plain, traced = measure(root, args.workload, args.seed, args.seconds,
                                       bool(args.trace), args.reduced)
    except WorkerError as exc:
        print(exc, file=sys.stderr)
        return 1
    reps = plain + traced
    failures = [f for r in reps for f in r["failures"]] + exact_counts_repeat(reps)
    e2e = end_to_end(setup, plain)
    print("# env " + json.dumps(reps[0]["env"], sort_keys=True))
    for line in report_table(setup, plain, e2e):
        print(line)
    for f in failures[:20]:
        print(f"# FAILED {f}")

    if args.trace:
        values, table = per_layer(traced, e2e["wall_s"])
        for line in table:
            print(line)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    else:
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in e2e.items()}
    if not all(math.isfinite(m["value"]) for m in metrics.values()):
        bad = [k for k, m in metrics.items() if not math.isfinite(m["value"])]
        failures.append(f"non-finite metrics {bad}")
        metrics = {k: m for k, m in metrics.items() if math.isfinite(m["value"])}
    attempted = sum(r["attempted"] for r in reps)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
