"""Timing of the KNN baseline at the criterion-7 shape on all CPUs against one.

Generates `synth_covid.generate(--raw-rows, --seed)` (perfbench's synthetic
covid table; 165,000 raw rows clean to about 122k rows and 34 features),
cleans it with the default config and splits it as `it2fis evaluate` does,
then times `evaluation.baseline_knn` on the first --test-rows test rows
(all of them by default) twice per repeat: once on every CPU the process
may use, and once after pinning this process to a single CPU with
`os.sched_setaffinity` (Linux only), which keeps KNN in-process.  The two
label lists must be equal.  Every time, the best and the spread of each
side, the pair count, the block rows, the worker count, the core count,
the kernel backend, the OpenBLAS thread count and the git SHA go to
`BENCH_knn.json`.  OpenBLAS runs one thread unless `OPENBLAS_NUM_THREADS`
says otherwise.

    PYTHONPATH=src python3 benchmarks/bench_knn.py --repeats 3
    PYTHONPATH=src python3 benchmarks/bench_knn.py --test-rows 6000
"""

import argparse
import inspect
import json
import os
import pathlib
import sys
import tempfile
import time

# one BLAS thread per process, as in perfbench and bench_scan
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from bench_scan import git_sha
from it2fis import config as cfgmod, kernels, parallel
from it2fis.evaluation import (KNN_FORK_PAIRS, baseline_knn, knn_block_rows,
                               split, take)
from it2fis.preprocess import load_csv, preprocess

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1]
                       / "perfbench"))
import synth_covid  # noqa: E402


def knn_split(raw_rows, seed, test_rows):
    """(train, test) Datasets of the synthetic table, split as `evaluate`
    splits it with the default config; the test share cut to test_rows."""
    cfg = cfgmod.load_config()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "raw.csv")
        synth_covid.write_csv(path, synth_covid.generate(raw_rows, seed))
        ds, _ = preprocess(load_csv(path), cfgmod.preprocess_config(cfg))
    sp = split(ds, ratio=cfg.get_float("train_ratio"), seed=seed)
    return (take(ds, sp.train_indices),
            take(ds, sp.test_indices[:test_rows]))


def timed_knn(train, test, cpus):
    os.sched_setaffinity(0, cpus)
    t0 = time.perf_counter()
    labels = baseline_knn(train, test)
    return time.perf_counter() - t0, labels


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--raw-rows", type=int, default=165000)
    ap.add_argument("--test-rows", type=int, default=None,
                    help="time the first N test rows (default: all)")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default="BENCH_knn.json")
    args = ap.parse_args(argv)

    train, test = knn_split(args.raw_rows, args.seed, args.test_rows)
    # evaluate --baselines runs KNN with its default k
    k = inspect.signature(baseline_knn).parameters["k"].default
    pairs = train.n_rows * test.n_rows
    rows = knn_block_rows(train.n_rows)
    blocks = max(1, test.n_rows // rows)
    all_cpus = os.sched_getaffinity(0)
    one_cpu = {min(all_cpus)}
    workers = parallel.workers(blocks) if pairs > KNN_FORK_PAIRS else 1
    pooled_s, serial_s = [], []
    try:
        for _ in range(args.repeats):
            t, pooled = timed_knn(train, test, all_cpus)
            pooled_s.append(t)
            t, serial = timed_knn(train, test, one_cpu)
            serial_s.append(t)
            if pooled != serial:
                raise SystemExit("KNN on all CPUs differs from one CPU")
    finally:
        os.sched_setaffinity(0, all_cpus)

    result = {
        "benchmark": "baseline_knn",
        "raw_rows": args.raw_rows,
        "seed": args.seed,
        "train_rows": train.n_rows,
        "test_rows": test.n_rows,
        "features": train.features.shape[1],
        "k": k,
        "pairs": pairs,
        "block_rows": rows,
        "blocks": blocks,
        "repeats": args.repeats,
        "cores": len(all_cpus),
        "workers": workers,
        "all_cpus_s": sorted(pooled_s),
        "one_cpu_s": sorted(serial_s),
        "all_cpus_best_s": min(pooled_s),
        "one_cpu_best_s": min(serial_s),
        "speedup": min(serial_s) / min(pooled_s),
        "labels_equal": True,
        "backend": kernels.backend(),
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": git_sha(),
    }
    print(f"knn {train.n_rows} train x {test.n_rows} test x "
          f"{train.features.shape[1]} features, k={k}: {pairs} pairs, "
          f"{blocks} blocks of {rows}+ rows")
    print(f"all {len(all_cpus)} CPUs ({workers} workers): "
          f"{result['all_cpus_best_s']:.3f} s; one CPU: "
          f"{result['one_cpu_best_s']:.3f} s ({result['speedup']:.2f}x)")
    with open(args.out, "w", encoding="utf-8") as f:
        json.dump(result, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
