"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload serve --seeds 1-10 --seconds 20

Each seed is one `perfbench/run.py` process, run one after another.  For
every metric the script prints the median, the quartiles (as
`statistics.quantiles(values, n=4)` gives them) and the quartile distance as
a share of the median, next to the metric's bound in BENCHMARK.json when
there is one.  `--json FILE` also writes every run's result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def bounds() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return {}
    spec = json.loads(path.read_text())
    return {m["name"]: m.get("bound") for m in spec["end_to_end"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"),
                    help="e.g. 1-10 or 3,5,8")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="write every run's result to this file")
    args = ap.parse_args(argv)

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: attempted {result['attempted']} "
              f"failed {result['failed']}", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1))

    limit = bounds()
    print(f"{'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        bound = limit.get(name)
        flag = " <- over a third of the bound" if (
            bound is not None and spread > bound / 3) else ""
        print(f"{name:<40} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.2%} {bound if bound is not None else '':>6}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
