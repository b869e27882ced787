"""Timing of the cluster-count scan on all CPUs against one CPU.

Builds a seeded joint matrix shaped like the scan input of the benchmark's
`pipeline` train sets (2,080 rows: unscaled age, 28 flags coded 1/2, 5 rare
0/1 sentinel columns and the 1/2 label; 18 runs, as there, which take
about 630 FCM membership evaluations; the 2,120 of plain steps, measured
before FCM took SQUAREM steps, has no switch that brings it back), then
times `select_cluster_count` with the default grid (c = 2..10, at most 5
seeds per count) twice per repeat: once on every CPU the process may use,
and once after pinning this process to a single CPU with
`os.sched_setaffinity` (Linux only), which makes the scan run in-process.
The two `ValidityScan`s must be equal, run records included.  The scan
forks only beyond `clustering.SCAN_FORK_WORK`; `--fork-work N` sets that
threshold for the run, and `--fork-work 0` times the pool at any size.
Best-of-N seconds, the workers' peak RSS and the environment block of
`benchlib` go to `BENCH_scan.json`.  OpenBLAS runs one thread unless
`OPENBLAS_NUM_THREADS` says otherwise.

    python3 benchmarks/bench_scan.py --repeats 3
"""

import argparse
import os
import resource

from benchlib import all_cpus_and_one, write_result
import numpy as np
from it2fis import clustering
from it2fis.clustering import select_cluster_count


def joint_matrix(rows, seed):
    # as in the cleaned covid table: age unscaled, so it dominates the
    # distances, 1/2-coded flags, rare 0/1 sentinel columns, and the label
    rng = np.random.default_rng(seed)
    age = np.clip(np.rint(rng.normal(50.0, 17.0, rows)), 0, 100)
    flags = np.where(rng.random((rows, 28)) < rng.uniform(0.5, 0.95, 28),
                     2.0, 1.0)
    sentinels = (rng.random((rows, 5)) < 0.05).astype(float)
    risk = 0.06 * (age - 50) + 0.4 * (flags[:, :6] == 1).sum(axis=1) - 2.5
    label = np.where(rng.random(rows) < 1 / (1 + np.exp(-risk)), 1.0, 2.0)
    return np.column_stack([age, flags, sentinels, label])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rows", type=int, default=2080)
    ap.add_argument("--c-max", type=int, default=10)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--fork-work", type=int,
                    default=clustering.SCAN_FORK_WORK)
    ap.add_argument("--out", default="BENCH_scan.json")
    args = ap.parse_args(argv)
    clustering.SCAN_FORK_WORK = args.fork_work

    X = joint_matrix(args.rows, args.seed)
    seeds = tuple(range(args.seeds))
    # pooled is the all-CPUs scan: ValidityScan equality ignores its
    # worker count, so the pinned one would record workers = 1
    pooled_s, serial_s, pooled = all_cpus_and_one(
        lambda: select_cluster_count(X, c_max=args.c_max, seeds=seeds),
        args.repeats, "scan")

    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    result = {
        "benchmark": "select_cluster_count",
        "shape": list(X.shape),
        "c_max": args.c_max,
        "seeds": len(seeds),
        "runs": len(pooled.runs),
        "fcm_iters": sum(r[2] for r in pooled.runs),
        "selected": pooled.selected,
        "repeats": args.repeats,
        "workers": pooled.workers,
        "all_cpus_s": min(pooled_s),
        "one_cpu_s": min(serial_s),
        "speedup": min(serial_s) / min(pooled_s),
        "parent_max_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "workers_max_rss_mb": children,
    }
    print(f"scan {X.shape[0]}x{X.shape[1]}, {result['runs']} runs, "
          f"{result['fcm_iters']} iterations, c={pooled.selected}")
    print(f"all {len(os.sched_getaffinity(0))} CPUs "
          f"({pooled.workers} workers): {result['all_cpus_s']:.3f} s; "
          f"one CPU: {result['one_cpu_s']:.3f} s ({result['speedup']:.2f}x)")
    write_result(args.out, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
