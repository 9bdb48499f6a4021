"""Regenerate the benchmark's stored references and expected outputs.

    PYTHONPATH=src python3 perfbench/make_expected.py

Writes perfbench/data/references.json (the endpoint of each problem under
the program's own ``bench.reference_endpoint``; the Euler one takes ~20 s,
which is why the timed runs load it instead of solving it) and
perfbench/data/expected.json (the outputs of every workload: exact step,
fev and evaluation counts, errors, search results for start seeds 0 and 1,
analysis reports).  Run it only when the program's intended behaviour
changes, and say so in the change: the checks compare against these files.
"""

from __future__ import annotations

import json
import os
import sys

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import worker  # noqa: E402
from instrument import Recorder  # noqa: E402

STORED_SEEDS = (0, 1)


def main() -> int:
    from sspkit import bench, problems

    refs = {pid: bench.reference_endpoint(pid).tolist() for pid in problems.PROBLEM_IDS}
    worker.REFERENCES.parent.mkdir(exist_ok=True)
    worker.REFERENCES.write_text(json.dumps(refs) + "\n")
    worker.EXPECTED.write_text("{}\n")

    recorder = Recorder()
    recorder.install()
    ctx = worker.Context(recorder, None)
    expected = {}
    for name, make in worker.WORKLOADS.items():
        seeds = STORED_SEEDS if name == "design-search" else (0,)
        for seed in seeds:
            for label, (run, observe) in make(ctx, seed, False):
                recorder.reset()
                run()
                for ob in observe():
                    kind = ob["key"].split("|")[0]
                    if kind == "ref":
                        keep = {"fev": ob["fev"]}
                    elif kind == "search":
                        keep = {k: ob[k] for k in ("n_eval", "objective", "w")}
                    elif kind == "analyze":
                        keep = {"report": ob["report"]}
                    else:
                        keep = {k: ob[k] for k in ("accepted", "rejected", "fev", "steps", "err") if k in ob}
                    expected[ob["key"]] = keep
                print(f"{name} seed {seed} {label}: done", file=sys.stderr)
    worker.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
