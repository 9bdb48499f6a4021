"""The committed BENCH_*.json summaries recompute from their own runs.

Each file holds the parent/change runs of ``perfbench/run.py`` behind a
performance claim, and a summary per workload.  This test starts no runs:
for every untraced workload, end-to-end metric and side it recomputes the
median and the quartiles (``statistics`` "inclusive", NumPy's default rule)
from ``runs``, the pairs the change won (ties count for neither side;
"better" comes from BENCHMARK.json) and change/parent - 1 of the medians,
each rounded to 4 decimals as the files store them.
"""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BETTER = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_every_summary_recomputes_from_its_runs(path):
    record = json.loads(path.read_text())
    for workload, summary in record["summary"].items():
        if workload.endswith(" traced"):
            continue
        runs = [r for r in record["runs"] if r["workload"] == workload and not r["trace"]]
        assert summary["pairs"] == len(summary["seeds"]) == len(runs) // 2, workload
        for metric, row in summary.items():
            if metric not in BETTER or not isinstance(row, dict):
                continue                # work and ok_frac list their distinct values
            by_seed = {side: {r["seed"]: r["line"]["metrics"][metric]["value"] for r in runs if r["side"] == side}
                       for side in ("parent", "change")}
            medians = {}
            for side, values in by_seed.items():
                assert sorted(values) == summary["seeds"], (workload, side)
                medians[side] = statistics.median(values.values())
                q1, _, q3 = statistics.quantiles(values.values(), n=4, method="inclusive")
                want = {"median": round(medians[side], 4), "q1": round(q1, 4), "q3": round(q3, 4)}
                assert row[side] == want, (workload, metric, side)
            sign = 1.0 if BETTER[metric] == "lower" else -1.0
            wins = sum(sign * (by_seed["parent"][s] - by_seed["change"][s]) > 0 for s in summary["seeds"])
            assert row["change_wins"] == f"{wins}/{summary['pairs']}", (workload, metric)
            assert row["median_change_frac"] == round(medians["change"] / medians["parent"] - 1, 4), (workload, metric)
