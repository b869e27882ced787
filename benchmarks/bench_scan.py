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
The two `ValidityScan`s must be equal, run records included.
Best-of-N seconds, the CPU count, the kernel backend, the workers' peak RSS
and the git SHA go to `BENCH_scan.json`.  OpenBLAS runs one thread unless
`OPENBLAS_NUM_THREADS` says otherwise.

    PYTHONPATH=src python3 benchmarks/bench_scan.py --repeats 3
"""

import argparse
import json
import os
import resource
import subprocess
import time

# one BLAS thread per process, as in perfbench: the workers already use
# every CPU, and the pinned run must not gain a second BLAS thread
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from it2fis import kernels
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


def timed_scan(X, cpus, c_max, seeds):
    os.sched_setaffinity(0, cpus)
    t0 = time.perf_counter()
    scan = select_cluster_count(X, c_max=c_max, seeds=seeds)
    return time.perf_counter() - t0, scan


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10,
                             cwd=os.path.dirname(os.path.abspath(__file__)))
        return out.stdout.strip() or None
    except OSError:
        return None


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rows", type=int, default=2080)
    ap.add_argument("--c-max", type=int, default=10)
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="BENCH_scan.json")
    args = ap.parse_args(argv)

    X = joint_matrix(args.rows, args.seed)
    seeds = tuple(range(args.seeds))
    all_cpus = os.sched_getaffinity(0)
    one_cpu = {min(all_cpus)}
    pooled_s, serial_s = [], []
    try:
        for _ in range(args.repeats):
            t, pooled = timed_scan(X, all_cpus, args.c_max, seeds)
            pooled_s.append(t)
            t, serial = timed_scan(X, one_cpu, args.c_max, seeds)
            serial_s.append(t)
            if pooled != serial:
                raise SystemExit("scan on all CPUs differs from one CPU")
    finally:
        os.sched_setaffinity(0, all_cpus)

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
        "cores": len(all_cpus),
        "workers": pooled.workers,
        "all_cpus_s": min(pooled_s),
        "one_cpu_s": min(serial_s),
        "speedup": min(serial_s) / min(pooled_s),
        "parent_max_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "workers_max_rss_mb": children,
        "backend": kernels.backend(),
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
    }
    print(f"scan {X.shape[0]}x{X.shape[1]}, {result['runs']} runs, "
          f"{result['fcm_iters']} iterations, c={pooled.selected}")
    print(f"all {len(all_cpus)} CPUs ({pooled.workers} workers): "
          f"{result['all_cpus_s']:.3f} s; one CPU: {result['one_cpu_s']:.3f} s "
          f"({result['speedup']:.2f}x)")
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
