#!/usr/bin/env python3
"""A/A check: two sets of benchmark runs of the same code, compared.

    python3 perfbench/aa.py

Runs the command of BENCHMARK.json RUNS times per workload and set, with
seeds 1..RUNS, on every workload, one set after the other (the first set
completes before the second starts).  For each workload and end-to-end metric
it prints each set's median and quartiles, the spread (interquartile distance
over the median), and how far the second median moved from the first, against
the metric's bound.  A workload agrees when every spread is within its bound,
every metric's second median is within its bound of the first in either
direction, and the share of failed operations is the same in both sets.  The
bounds in BENCHMARK.json are set from this output.  Exits 1 when anything
disagrees.
Each run's record line is appended to perfbench/out/aa-records.jsonl.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
RUNS = 10


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-600:]}")
    lines = proc.stdout.strip().splitlines()
    with open(ROOT / "perfbench" / "out" / "aa-records.jsonl", "a") as fh:
        fh.write(lines[-2].removeprefix("record ") + "\n")
    return json.loads(lines[-1]), wall


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    results = {}   # (set, workload) -> list of result objects
    walls = []
    for s in range(SETS):
        for seed in range(1, RUNS + 1):
            for w in workloads:
                res, wall = run_once(spec, w, seed)
                walls.append(wall)
                results.setdefault((s, w), []).append(res)
                vals = " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.4g}"
                                for m in metrics)
                print(f"set {s + 1} seed {seed:2d} {w:13s} {vals} "
                      f"attempted={res['attempted']} failed={res['failed']} "
                      f"correct={res['correct']} wall={wall:.1f}s", flush=True)

    ok = True
    print()
    print(f"{'workload':13s} {'metric':12s} {'set':>3s} {'median':>10s} {'q1':>10s} "
          f"{'q3':>10s} {'spread':>7s} {'shift':>7s} {'bound':>6s}  verdict")
    for w in workloads:
        shares = []
        for s in range(SETS):
            rs = results[(s, w)]
            shares.append((sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs)))
            if not all(r["correct"] for r in rs):
                ok = False
                print(f"{w}: set {s + 1} has a run with correct = false")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            sums = [summary([r["metrics"][name]["value"] for r in results[(s, w)]])
                    for s in range(SETS)]
            for s, sm in enumerate(sums):
                verdict = []
                if sm["spread"] > bound:
                    verdict.append("spread over bound")
                shift = ""
                if s == 1:
                    d = (sm["median"] - sums[0]["median"]) / sums[0]["median"]
                    shift = f"{d:+.3f}"
                    if abs(d) > bound:
                        verdict.append("median moved by more than bound")
                ok = ok and not verdict
                print(f"{w:13s} {name:12s} {s + 1:3d} {sm['median']:10.5g} {sm['q1']:10.5g} "
                      f"{sm['q3']:10.5g} {sm['spread']:7.3f} {shift:>7s} {bound:6.3f}  "
                      f"{'; '.join(verdict) or 'ok'}")
        fa = [f / a for f, a in shares]
        if len(set(fa)) > 1:
            ok = False
        print(f"{w:13s} failed/attempted per set: "
              + ", ".join(f"{f}/{a}" for f, a in shares))
    print(f"\nruns: {len(walls)}, mean wall per run {statistics.mean(walls):.1f} s, "
          f"max {max(walls):.1f} s")
    print("A/A agrees" if ok else "A/A DISAGREES")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
