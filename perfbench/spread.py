#!/usr/bin/env python3
"""Check how steady the benchmark is.

Runs every workload (or those named) once per seed through
`perfbench/run.py` and prints, per end-to-end metric, the median and the
spread: the distance between the first and third quartile of the values
(`statistics.quantiles(values, n=4)`) as a share of their median, beside
the metric's bound from BENCHMARK.json.

    python3 perfbench/spread.py [--seeds 10] [--seconds S] [--verbose] [workload ...]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    bench = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--verbose", action="store_true", help="print every value")
    ap.add_argument("workloads", nargs="*")
    args = ap.parse_args()
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = {}
    for w in names:
        values = {}
        for seed in range(1, args.seeds + 1):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: checks failed", file=sys.stderr)
                return 1
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        for k, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            worst[w] = max(worst.get(w, 0.0), spread / bounds[k])
            print(f"{w:<14} {k:<12} median {med:12.5g}  spread {spread:6.3f}  bound {bounds[k]}"
                  + ("  values " + " ".join(f"{v:.5g}" for v in vs) if args.verbose else ""))
        sys.stdout.flush()
    for w, r in worst.items():
        print(f"{w:<14} largest spread / bound: {r:.3f}")
    print(f"largest spread / bound: {max(worst.values()):.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
