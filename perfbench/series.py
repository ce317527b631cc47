#!/usr/bin/env python3
"""Repeat benchmark runs over seeds and summarise their spread.

    python3 perfbench/series.py --workloads count,resume --seeds 1-10 --trace both

Runs ``run.py`` once per (workload, seed, trace setting), one after another,
and prints for every metric the median, the quartiles, the spread
(q3 - q1) / median, the bound from BENCHMARK.json, and the highest
percentile with at least ten runs above it.  With ``--trace both`` it also
prints the tracing overhead of each workload: the median over seeds of the
traced wall time (``trace.wall_s``) minus the untraced ``wall_s`` of the same
seed, run just before it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import high_percentile  # noqa: E402


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--trace", choices=("0", "1", "both"), default="0")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    traces = (0, 1) if args.trace == "both" else (int(args.trace),)
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list] = {}
        overheads = []
        for seed in _seeds(args.seeds):
            # Traced and untraced runs of a seed run back to back, so their
            # difference is little affected by slow drifts in machine speed.
            walls = {}
            for trace in traces:
                t0 = perf_counter()
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--seconds", str(args.seconds),
                     "--trace", str(trace)],
                    capture_output=True, text=True, check=False,
                )
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    print(f"{workload} seed {seed} trace {trace}: exit "
                          f"{proc.returncode}\n{proc.stderr}", flush=True)
                    ok = False
                    continue
                result = json.loads(lines[-1])
                ok = ok and result["correct"]
                for name, metric in result["metrics"].items():
                    values.setdefault(name, []).append(metric["value"])
                walls[trace] = result["metrics"].get(
                    "trace.wall_s" if trace else "wall_s", {}).get("value")
                print(f"{workload} seed {seed} trace {trace}: "
                      f"{perf_counter() - t0:.1f} s, correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}",
                      flush=True)
            if walls.get(0) and walls.get(1):
                overheads.append(walls[1] - walls[0])
        print(f"\n{workload}: metric median q1 q3 spread bound spread/bound")
        for name, vals in values.items():
            med = median(vals)
            q1, _, q3 = quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            tail = f"{bound} {spread / bound:.2f}" if bound else "- -"
            print(f"  {name} {med:.6g} {q1:.6g} {q3:.6g} {spread:.4f} {tail}  "
                  f"{high_percentile(vals)}")
        if overheads:
            untraced = median(values["wall_s"])
            overhead = median(overheads)
            print(f"  tracing overhead (median of {len(overheads)} paired runs): "
                  f"{overhead:+.3f} s ({100 * overhead / untraced:+.1f}% of wall_s)")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
