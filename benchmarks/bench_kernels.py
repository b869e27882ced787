"""Timings of the numeric kernels in ``it2fis.kernels``.

Runs each hot kernel on representative shapes (ICU-model sized rule bases,
tens of thousands of rows) and prints, over N timed calls, the best time
beside the median and the quartiles: on a shared host the best alone moves
by tens of percent between runs of one tree.  ``topk_select`` runs on one
KNN block as ``evaluation.baseline_knn`` cuts it, ``knn_block_rows(rows)``
query rows against all rows, on integer-rounded distances so that ties are
common; its result is first checked against a stable ``argsort``.
``--rows 85569`` gives the 48 x 85,569 block of a full-size KNN baseline.
The ``topk_select_2080`` line, whatever --rows, runs it on the block that
perfbench's pipeline workload passes it: float32 integer keys, 126 query
rows against 2,080 training rows, k = 5, checked the same way.
The two ``knn_chunk`` lines time one such chunk of the baseline itself,
the distance block plus ``topk_select``, on covid-like integer data:
--features - 1 sparse 0/1 flags and an integer age in 0..100.
``knn_chunk_exact`` takes the float32 integer-key blocks that
``baseline_knn`` uses on such data, ``knn_chunk_f64`` the float64 blocks
of min-max scaled values that it uses on any other.  Both are first
checked against a stable ``argsort`` of the exact keys (span^2 * Hamming +
age difference^2): the exact path must equal it, the float64 path must
pick neighbours at the same exact distances, and the number of rows whose
float64 tie order differs is printed.
The ``fcm`` line is one ``clustering.fcm`` run at the fixed 2,080 x 35
shape of a scaled-down cluster-count scan (34 binary columns and one
continuous), c = 6, with tol=0 and max_iter=50, so it always runs 50
iterations.  The epoch kernels take their data as ``kernels.centre``
returns it, and ``centre`` is timed on its own line: tuning calls it once
per run, not once per epoch.  ``t1_epoch`` and ``it2_epoch`` run on normal
data, whose columns are all wide; ``t1_epoch_onehot`` and
``it2_epoch_onehot`` on covid-like data as the ``knn_chunk`` lines draw
it, whose flags ``centre`` folds into the z products, with each rule's
means near a data row.  ``km_batch`` takes its firings rule-major,
(rules, rows); the ``km_batch_col`` line times it on one column at a time,
``{rules}x1``, walking through --calls columns, as the inference engine
calls it for a single-row ``predict``.  The ``km_batch_2col`` and
``km_batch_32col`` lines time it on narrow blocks, ``{rules}x2`` and
``{rules}x32``, one contiguous block of adjacent columns per call: the
smallest widths past one column, which take the several-column path.  The
``predict_row`` line times ``inference.predict``, a one-row
``predict_batch``, on the bundled model, one call per row of --calls rows
drawn around its rules.
Every line times single calls: N = --repeats calls for the full-size
kernels, N = --calls for the one-column and narrow lines.  OpenBLAS runs one
thread unless OPENBLAS_NUM_THREADS says otherwise.  With ``--json PATH``
the best, quartile and median milliseconds of every line, with its shape,
go to a JSON file together with the environment block of `benchlib`.

    python3 benchmarks/bench_kernels.py --rows 20000 --repeats 7
    python3 benchmarks/bench_kernels.py --rows 6222 --rules 3 --features 34
    python3 benchmarks/bench_kernels.py --rows 85569 --rules 7 --features 34 \
        --json BENCH_kernels.json
"""

import argparse
import time

from benchlib import write_result
import numpy as np
from it2fis import clustering, evaluation, inference, kernels, \
    load_bundled_model
from it2fis.evaluation import knn_block_rows

# the fcm line's fixed shape and run
FCM_ROWS, FCM_BINARY, FCM_CLUSTERS, FCM_ITERS = 2080, 34, 6, 50
# training rows of the topk_select_2080 line, those of perfbench's pipeline KNN
PIPELINE_ROWS = 2080


def times_of(fn, calls):
    """Seconds of each call fn(*args), args in `calls`, after one warm-up call."""
    fn(*calls[0])  # warm-up: fault pages
    times = np.empty(len(calls))
    for i, args in enumerate(calls):
        t0 = time.perf_counter()
        fn(*args)
        times[i] = time.perf_counter() - t0
    return times


def fcm_run(X):
    return clustering.fcm(X, FCM_CLUSTERS, tol=0.0, max_iter=FCM_ITERS)


def covid_like(rng, n, features):
    """(n, features): sparse 0/1 flags, then an integer age in 0..100."""
    flags = rng.random((n, features - 1)) < 0.2
    age = np.clip(np.rint(rng.normal(44.0, 17.0, n)), 0, 100)
    return np.column_stack([flags, age])


def knn_chunk(block, rows, k):
    """One chunk of ``baseline_knn``: its distance block, then top-k."""
    return kernels.topk_select(block(0, rows), k)


def knn_chunk_cases(rng, rows, features, k=5):
    """The exact and float64 KNN chunk lines, checked against exact keys."""
    n_query = knn_block_rows(rows)  # baseline_knn's block rows
    Xtr, Xq = covid_like(rng, rows, features), covid_like(rng, n_query, features)
    Xtr[0, -1], Xtr[1, -1] = 0.0, 100.0
    span2 = 100.0 ** 2
    # the exact keys, one query row at a time in difference form; each is
    # an integer well below 2^53, so float64 holds it exactly
    keys = np.array([span2 * (Xtr[:, :-1] != q[:-1]).sum(axis=1)
                     + (Xtr[:, -1] - q[-1]) ** 2 for q in Xq])
    ref = np.argsort(keys, axis=1, kind="stable")[:, :k]
    scale = np.zeros(features, dtype=bool)
    scale[-1] = True
    exact = evaluation._integer_key_blocks(Xtr, Xq, scale)
    f64 = evaluation._scaled_blocks(Xtr, Xq, scale)
    if exact is None:
        raise SystemExit("knn_chunk_exact: the integer key does not apply")
    if not np.array_equal(knn_chunk(exact, n_query, k), ref):
        raise SystemExit("knn_chunk_exact: differs from the exact order")
    picks = knn_chunk(f64, n_query, k)
    if not np.array_equal(np.take_along_axis(keys, picks, 1),
                          np.take_along_axis(keys, ref, 1)):
        raise SystemExit("knn_chunk_f64: picks a wrong distance")
    print(f"knn_chunk_f64: tie order differs from the exact one in "
          f"{int((picks != ref).any(axis=1).sum())} of {n_query} rows")
    shape = f"{n_query}x{rows}x{features} k={k}"
    return [("knn_chunk_exact", shape, (exact, n_query, k)),
            ("knn_chunk_f64", shape, (f64, n_query, k))]


def onehot_epoch_cases(rng, rows, rules, features, y, cons, repeats):
    """The epoch lines on covid-like rows: each rule's means a data row
    moved by N(0, 0.1), its sigmas 0.3-0.6 on the flags and 10-20 on age."""
    X = covid_like(rng, rows, features)
    means = X[rng.integers(0, rows, rules)] \
        + rng.normal(0.0, 0.1, (rules, features))
    sig_up = rng.uniform(0.3, 0.6, (rules, features))
    sig_up[:, -1] = rng.uniform(10.0, 20.0, rules)
    sig_lo = sig_up * rng.uniform(0.6, 0.9, (rules, features))
    centred = kernels.centre(X)
    shape = f"{rows}x{rules}x{features} 0/1"
    return [("t1_epoch_onehot", shape, kernels.t1_epoch,
             [(centred, y, means, sig_up, cons)] * repeats),
            ("it2_epoch_onehot", shape, kernels.it2_epoch,
             [(centred, y, means, sig_lo, sig_up, cons)] * repeats)]


def build_cases(rows, rules, features, seed, repeats, calls):
    """(name, shape, function, argument tuples: one per timed call)."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(rows, features))
    means = rng.normal(size=(rules, features))
    sig_up = rng.uniform(0.8, 2.0, (rules, features))
    sig_lo = sig_up * rng.uniform(0.6, 0.9, (rules, features))
    cons = rng.uniform(1.0, 2.0, rules)
    y = rng.uniform(1.0, 2.0, rows)

    up = rng.uniform(0.0, 1.0, (rules, rows))
    lo = up * rng.uniform(0.0, 1.0, (rules, rows))
    cents = np.sort(rng.uniform(1.0, 2.0, rules))

    # the clustering kernels are cluster-major: data enter transposed with
    # their squared norms, distances and memberships come out (c, rows)
    xt, xx = np.ascontiguousarray(X.T), (X * X).sum(axis=1)
    centers = rng.normal(size=(8, features))
    d2 = kernels.sq_distances(centers, xt, xx)
    n_query = knn_block_rows(rows)  # baseline_knn's block rows
    queries = rng.normal(size=(n_query, features))
    # rounded to integers so that distances tie, also at the k-th place
    qd2 = np.round(kernels.sq_distances(queries, xt, xx))
    centred = kernels.centre(X)
    Xc = np.column_stack([rng.random((FCM_ROWS, FCM_BINARY)) < 0.3,
                          rng.random(FCM_ROWS)]).astype(float)

    # one column per call, contiguous (rules, 1), as a one-row predict has it
    columns = [(np.ascontiguousarray(lo[:, j:j + 1]),
                np.ascontiguousarray(up[:, j:j + 1]), cents)
               for j in rng.integers(0, rows, calls)]
    # serving rows around the bundled model's rules, so that they fire
    rb = load_bundled_model()
    near = rng.integers(0, rb.n_rules, calls)
    served = rb.means[near] + rng.normal(size=(calls, rb.n_features)) \
        * rb.sigma_upper[near]

    cases = [
        ("sq_distances", f"8 vs {features}x{rows}", (centers, xt, xx)),
        ("fcm_memberships", f"8x{rows} m=2", (d2, 2.0)),
        ("fcm", f"{FCM_ROWS}x{FCM_BINARY + 1} c={FCM_CLUSTERS} "
                f"{FCM_ITERS} it", (Xc,)),
        ("log_firing", f"{rows}x{rules}x{features}", (X, means, sig_up)),
        ("km_batch", f"{rules}x{rows}", (lo, up, cents)),
        ("centre", f"{rows}x{features}", (X,)),
        ("t1_epoch", f"{rows}x{rules}x{features}",
         (centred, y, means, sig_up, cons)),
        ("it2_epoch", f"{rows}x{rules}x{features}",
         (centred, y, means, sig_lo, sig_up, cons)),
        ("topk_select", f"{n_query}x{rows} k=5", (qd2, 5)),
    ]
    cases = [(name, shape, fcm_run if name == "fcm" else getattr(kernels, name),
              [args] * repeats) for name, shape, args in cases]
    cases += [(name, shape, knn_chunk, [args] * repeats)
              for name, shape, args in knn_chunk_cases(rng, rows, features)]
    # drawn last, so that the other lines keep their data
    Xp = rng.normal(size=(PIPELINE_ROWS, features))
    pq = rng.normal(size=(knn_block_rows(PIPELINE_ROWS), features))
    pd2 = np.round(kernels.sq_distances(pq, np.ascontiguousarray(Xp.T),
                                        (Xp * Xp).sum(axis=1)))
    at = [case[0] for case in cases].index("topk_select") + 1
    cases.insert(at, ("topk_select_2080", f"{len(pq)}x{PIPELINE_ROWS} k=5",
                      kernels.topk_select,
                      [(pd2.astype(np.float32), 5)] * repeats))
    narrow = [(f"km_batch_{w}col", f"{rules}x{w}", kernels.km_batch,
               [(np.ascontiguousarray(lo[:, j:j + w]),
                 np.ascontiguousarray(up[:, j:j + w]), cents)
                for j in rng.integers(0, rows - w + 1, calls)])
              for w in (2, 32)]
    at = [case[0] for case in cases].index("it2_epoch") + 1
    cases[at:at] = onehot_epoch_cases(rng, rows, rules, features, y, cons,
                                      repeats)
    return cases + [
        ("km_batch_col", f"{rules}x1", kernels.km_batch, columns),
        *narrow,
        ("predict_row", f"bundled {rb.n_rules}x{rb.n_features}",
         inference.predict, [(rb, x) for x in served]),
    ]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rows", type=int, default=20000)
    ap.add_argument("--rules", type=int, default=5)
    ap.add_argument("--features", type=int, default=27)
    ap.add_argument("--repeats", type=int, default=7)
    ap.add_argument("--calls", type=int, default=2000,
                    help="timed calls of the one-column and narrow lines")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--json", metavar="PATH",
                    help="also write the timings to this JSON file")
    args = ap.parse_args(argv)

    cases = build_cases(args.rows, args.rules, args.features, args.seed,
                        args.repeats, args.calls)
    header = (f"{'kernel':<16} {'shape':<24} {'best':>10} {'q1':>10} "
              f"{'median':>10} {'q3':>10}")
    print(header)
    print("-" * len(header))

    timings = {}
    for name, shape, fn, calls in cases:
        if name.startswith("topk_select"):  # exact: a stable argsort prefix
            d2, k = calls[0]
            if not np.array_equal(fn(d2, k),
                                  np.argsort(d2, axis=1, kind="stable")[:, :k]):
                raise SystemExit("topk_select: differs from a stable argsort")
        ms = 1e3 * times_of(fn, calls)
        q1, med, q3 = np.percentile(ms, [25, 50, 75])
        timings[name] = {"shape": shape, "best_ms": ms.min(), "q1_ms": q1,
                         "median_ms": med, "q3_ms": q3}
        print(f"{name:<16} {shape:<24} {ms.min():8.3f}ms {q1:8.3f}ms "
              f"{med:8.3f}ms {q3:8.3f}ms")

    if args.json:
        result = {
            "benchmark": "kernels",
            "rows": args.rows,
            "rules": args.rules,
            "features": args.features,
            "repeats": args.repeats,
            "calls": args.calls,
            "seed": args.seed,
            "kernels": timings,
        }
        write_result(args.json, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
