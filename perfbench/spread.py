"""Run the benchmark on several seeds and report each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py --workloads knots certify calculus \\
        --seeds 1 2 3 4 5 6 7 8 9 10

Runs go one after another, never in parallel.  The spread is the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median; the benchmark aims to keep it below a third of the
metric's bound (``setup_s`` is exempt).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    args = ap.parse_args()
    for w in args.workloads:
        runs = []
        for seed in args.seeds:
            res = subprocess.run(
                spec["command"] + ["--workload", w, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            if res.returncode != 0:
                print(res.stderr, file=sys.stderr)
                return 1
            runs.append(json.loads(res.stdout.splitlines()[-1]))
            print(w, seed, json.dumps({k: round(v["value"], 5) for k, v in
                                       runs[-1]["metrics"].items()}),
                  flush=True)
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            flag = "" if m["name"] == "setup_s" or spread < m["bound"] / 3 \
                else "  <-- above a third of the bound"
            print(f"{w:9s} {m['name']:12s} median {med:10.5g} {m['unit']:5s} "
                  f"spread {spread:6.3f} bound {m['bound']}{flag}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
