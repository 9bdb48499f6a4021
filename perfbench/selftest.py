"""Self-test of the benchmark: schema, metric names, repeatable exact counts.

    python3 perfbench/selftest.py

Runs every workload in its reduced form through run.py (twice untraced,
once traced), and checks the output line against BENCHMARK.json, that the
outputs are correct, that the exact work count repeats, and that run.py
refuses to run in a directory without the program.  It has no wall-clock
thresholds.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def check_spec(spec) -> list[str]:
    errs = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        errs.append(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    errs += [f"bad or repeated name {n!r}" for n in names if not NAME.match(n) or names.count(n) > 1]
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            errs.append(f"workload entry {w}")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            errs.append(f"end_to_end entry {m}")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            errs.append(f"per_layer entry {m}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("lower", "higher"):
            errs.append(f"unit or direction of {m['name']}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        errs.append("setup_s missing or malformed")
    if not 1 <= spec["run_seconds"] <= 60:
        errs.append("run_seconds out of range")
    return errs


def run(spec, cwd, workload, trace) -> tuple[int, str]:
    cmd = spec["command"] + ["--workload", workload, "--seed", "0", "--seconds", "0",
                             "--trace", str(trace), "--reduced"]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout


def check_result(spec, out, trace) -> tuple[list[str], dict]:
    res = json.loads(out.strip().splitlines()[-1])
    errs = []
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        errs.append(f"result keys {sorted(res)}")
    if res["correct"] is not True or res["failed"] != 0 or res["attempted"] < 1:
        errs.append(f"correct={res['correct']} attempted={res['attempted']} failed={res['failed']}")
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if got != want:
        errs.append(f"metric names/units differ: missing {sorted(set(want) - set(got))}, "
                    f"extra {sorted(set(got) - set(want))}")
    for k, v in res["metrics"].items():
        if set(v) != {"value", "unit"} or not isinstance(v["value"], (int, float)) \
                or not math.isfinite(v["value"]):
            errs.append(f"metric {k}: {v}")
    return errs, res


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errs = check_spec(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        works = []
        for trace in (0, 0, 1):
            code, out = run(spec, ROOT, workload, trace)
            if code != 0:
                errs.append(f"{workload} trace={trace}: exit code {code}")
                continue
            e, res = check_result(spec, out, trace)
            errs += [f"{workload} trace={trace}: {x}" for x in e]
            if trace == 0 and "work" in res["metrics"]:
                works.append(res["metrics"]["work"]["value"])
        if len(set(works)) > 1:
            errs.append(f"{workload}: exact work count differs between runs: {works}")
        print(f"{workload}: checked", flush=True)

    # without the program the benchmark must fail and print no result
    with tempfile.TemporaryDirectory(prefix=".selftest-", dir=ROOT) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for p in spec["paths"]:
            shutil.copytree(ROOT / p, Path(tmp) / p, ignore=shutil.ignore_patterns("__pycache__"))
        code, out = run(spec, tmp, spec["workloads"][0]["name"], 0)
        if code == 0 or out.strip():
            errs.append(f"bare directory: exit code {code}, output {out.strip()[:80]!r}")

    for e in errs:
        print("FAIL", e)
    print("selftest:", "ok" if not errs else f"{len(errs)} failure(s)")
    return 1 if errs else 0


if __name__ == "__main__":
    sys.exit(main())
