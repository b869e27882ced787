"""Shipping gate: one test per release criterion.

Each test prints a single summary line with the measured numbers straight to
the terminal (bypassing capture), so a plain `pytest tests/test_acceptance.py`
run reads as a checklist.  The two dataset-dependent criteria skip with an
explanatory reason unless the ICU admissions CSV is available (set
IT2FIS_COVID_CSV or place it at data/covid.csv).
"""

import os
import time
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from it2fis.cli import main
from it2fis.clustering import fcm, fukuyama_index, select_cluster_count
from it2fis.config import load_config, preprocess_config
from it2fis.evaluation import compute_metrics, split
from it2fis.inference import km_reduce, predict_batch
from it2fis.kernels import centre, it2_epoch, t1_epoch
from it2fis.learning import encode_labels, widen_to_it2
from it2fis.model_io import (load_bundled_model, load_model, save_model)
from it2fis.preprocess import (Dataset, PreprocessConfig, RawTable, load_csv,
                               preprocess)

from conftest import random_it2_base, random_t1_base
from test_clustering import brute_fukuyama, manual_partition
from test_inference import random_km_instance, vertex_oracle
from test_learning import fd_gradient, it2_error, rel_err, t1_error


def report(capsys, line):
    with capsys.disabled():
        print(f"\n{line}")


def covid_csv():
    candidates = [os.environ.get("IT2FIS_COVID_CSV"),
                  os.path.join(os.path.dirname(__file__), "..", "data",
                               "covid.csv")]
    for p in candidates:
        if p and os.path.exists(p):
            return p
    return None


COVID_SKIP = ("ICU admissions CSV not present; set IT2FIS_COVID_CSV or place "
              "it at data/covid.csv (manual Kaggle download)")


# ---------------------------------------------------------------------------
# 1. type reduction against exhaustive vertex enumeration
# ---------------------------------------------------------------------------


def test_criterion_1_km_matches_vertex_oracle(rng, capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        lo, up, cents = random_km_instance(rng, d)
        tri = km_reduce(np.column_stack([lo, up]), cents)
        oyl, oyr = vertex_oracle(lo, up, cents)
        worst = max(worst, abs(tri.y_l - oyl), abs(tri.y_r - oyr))
        assert tri.y_l == pytest.approx(oyl, abs=1e-9, rel=1e-9)
        assert tri.y_r == pytest.approx(oyr, abs=1e-9, rel=1e-9)
    dt = time.perf_counter() - t0
    assert dt < 5.0
    report(capsys, f"criterion 1 PASS: km_reduce == 2^D vertex oracle on "
                   f"1000 instances, worst gap {worst:.2e} ({dt:.2f}s < 5s)")


# ---------------------------------------------------------------------------
# 2. zero-spread IT2 collapses onto the T1 system
# ---------------------------------------------------------------------------


def test_criterion_2_zero_spread_collapse(rng, capsys):
    t1 = random_t1_base(rng, n_rules=5, n_features=4)
    it2 = widen_to_it2(t1, spread=0.0)
    X = rng.normal(size=(1000, 4)) * 2.0
    a = predict_batch(t1, X)
    b = predict_batch(it2, X)
    assert not a.flagged.any() and not b.flagged.any()
    gap = np.abs(a.crisp - b.crisp).max()
    assert gap <= 1e-12
    assert a.labels == b.labels
    report(capsys, f"criterion 2 PASS: spread-0 IT2 crisp == T1 "
                   f"center-of-sets on 1000 inputs, max gap {gap:.2e} "
                   f"(tolerance 1e-12)")


# ---------------------------------------------------------------------------
# 3. analytic gradients against central finite differences
# ---------------------------------------------------------------------------


def test_criterion_3_gradients_match_finite_differences(rng, capsys):
    t0 = time.perf_counter()
    worst_t1, worst_it2 = 0.0, 0.0
    for _ in range(10):
        X = rng.uniform(-2.0, 2.0, (40, 2))
        y = rng.uniform(1.0, 2.0, 40)
        means = rng.uniform(-1.5, 1.5, (3, 2))
        sig = rng.uniform(0.8, 1.5, (3, 2))
        cons = rng.uniform(1.0, 2.0, 3)

        gm, gs, gc, _ = t1_epoch(centre(X), y, means, sig, cons)
        fm, fs, fc = fd_gradient(lambda: t1_error(X, y, means, sig, cons),
                                 [means, sig, cons])
        worst_t1 = max(worst_t1, rel_err(gm, fm), rel_err(gs, fs),
                       rel_err(gc, fc))

        m2 = rng.uniform(-1.5, 1.5, (3, 2))
        su = rng.uniform(1.0, 1.6, (3, 2))
        sl = su * rng.uniform(0.6, 0.9, (3, 2))
        c2 = rng.uniform(1.0, 2.0, 3)
        order = np.argsort(c2, kind="stable")
        gm, gl, gu, gc, _ = it2_epoch(centre(X), y, m2, sl, su, c2, order)
        fm, fl, fu, fc = fd_gradient(lambda: it2_error(X, y, m2, sl, su, c2),
                                     [m2, sl, su, c2])
        worst_it2 = max(worst_it2, rel_err(gm, fm), rel_err(gl, fl),
                        rel_err(gu, fu), rel_err(gc, fc))
    dt = time.perf_counter() - t0
    assert worst_t1 <= 1e-4
    assert worst_it2 <= 1e-3  # switch points frozen across the stencil
    assert dt < 10.0
    report(capsys, f"criterion 3 PASS: finite-difference gradients, worst "
                   f"rel err T1 {worst_t1:.2e} (<=1e-4), IT2 {worst_it2:.2e} "
                   f"(<=1e-3) ({dt:.2f}s < 10s)")


# ---------------------------------------------------------------------------
# 4. validity index against brute force; blob-count recovery
# ---------------------------------------------------------------------------


def test_criterion_4_fukuyama_and_blob_recovery(rng, capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 4))
        X = rng.uniform(-3.0, 3.0, (20, d))
        part = manual_partition(rng, 3, 20, d)
        got = fukuyama_index(X, part)
        want = brute_fukuyama(X, part.U, part.V, part.m)
        worst = max(worst, abs(got - want))
        assert got == pytest.approx(want, abs=1e-9, rel=1e-9)

    centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0],
                        [8.0, 8.0], [4.0, 16.0]])
    hits = 0
    picks = []
    for seed in range(10):
        blob_rng = np.random.default_rng(seed)
        X = np.vstack([c + blob_rng.normal(scale=0.4, size=(100, 2))
                       for c in centers])
        scan = select_cluster_count(X, c_max=10, m=2.0,
                                    seeds=(seed, seed + 100, seed + 200))
        picks.append(scan.selected)
        hits += scan.selected == 5
    dt = time.perf_counter() - t0
    assert hits >= 9
    assert dt < 30.0
    report(capsys, f"criterion 4 PASS: index vs brute force worst gap "
                   f"{worst:.2e} (<=1e-9); 5-blob recovery {hits}/10 seeds "
                   f"(picks {picks}) ({dt:.1f}s < 30s)")


# ---------------------------------------------------------------------------
# 5. FCM partition invariants on 100 random runs
# ---------------------------------------------------------------------------


def test_criterion_5_fcm_invariants(rng, capsys):
    worst_col, worst_rise = 0.0, 0.0
    for run in range(100):
        n = int(rng.integers(30, 150))
        d = int(rng.integers(1, 5))
        c = int(rng.integers(2, 7))
        X = rng.normal(size=(n, d)) * rng.uniform(0.5, 4.0, size=d)
        part = fcm(X, c, m=float(rng.uniform(1.5, 3.0)), seed=run)
        worst_col = max(worst_col, float(np.max(part.colsum_error_trace)))
        trace = np.asarray(part.objective_trace)
        rises = np.diff(trace)
        worst_rise = max(worst_rise, float(rises.max(initial=0.0)))
        assert (part.colsum_error_trace <= 1e-9).all()
        # non-increasing at every iteration, up to float rounding
        assert (rises <= trace[:-1] * 1e-12 + 1e-12).all()
    report(capsys, f"criterion 5 PASS: 100 runs, per-iteration colsum error "
                   f"<= {worst_col:.2e} (<=1e-9), largest objective rise "
                   f"{worst_rise:.2e} (float noise only)")


# ---------------------------------------------------------------------------
# 6. bundled ICU model fidelity
# ---------------------------------------------------------------------------


def test_criterion_6_bundled_model_fidelity(rng, capsys):
    rb = load_bundled_model()
    assert rb.n_rules == 5 and rb.n_features == 27
    # spot anchors: (mean, sigma_upper, sigma_lower) stored to 3 decimals
    assert (rb.means[0, 0], rb.sigma_upper[0, 0], rb.sigma_lower[0, 0]) \
        == (32.562, 9.501, 5.700)
    assert (rb.cons_mean[4], rb.cons_sigma_upper[4], rb.cons_sigma_lower[4]) \
        == (1.164, 0.121, 0.072)
    assert (rb.sigma_lower <= rb.sigma_upper).all()
    assert (rb.cons_sigma_lower <= rb.cons_sigma_upper).all()

    # crisp outputs are convex combinations of the consequent means
    X = np.column_stack([rng.uniform(0.0, 120.0, 1000),
                         rng.uniform(-1.0, 2.0, size=(1000, 26))])
    bp = predict_batch(rb, X)
    assert not bp.flagged.any()
    lo, hi = float(bp.crisp.min()), float(bp.crisp.max())
    assert lo >= 1.066 - 1e-9
    assert hi <= 1.164 + 1e-9
    report(capsys, f"criterion 6 PASS: 5x27 model, anchors exact, crisp "
                   f"range [{lo:.4f}, {hi:.4f}] inside [1.066, 1.164] on "
                   f"1000 random inputs")


# ---------------------------------------------------------------------------
# 7 + 8. real-dataset pipeline (skipped without the manual download)
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def covid_run(tmp_path_factory):
    path = covid_csv()
    if path is None:
        pytest.skip(COVID_SKIP)
    root = tmp_path_factory.mktemp("covid")
    t0 = time.perf_counter()
    table = load_csv(path)
    ds, _ = preprocess(table, preprocess_config(load_config()))
    runs = []
    for seed in range(5):
        model = root / f"seed{seed}.model"
        assert main(["--seed", str(seed), "train", path, "-o",
                     str(model)]) == 0
        prefix = root / f"seed{seed}"
        assert main(["--seed", str(seed), "evaluate", str(model), path,
                     "-o", str(prefix), "--baselines"]) == 0
        with open(f"{prefix}.kv", encoding="utf-8") as f:
            lines = f.read().splitlines()
        kv = dict(l.split("=", 1) for l in lines if l)
        runs.append(kv)
    return {"rows": ds.n_rows, "runs": runs,
            "majority": load_model(str(root / "seed0.model")).label_low,
            "dt": time.perf_counter() - t0}


def test_criterion_7_dataset_pipeline(covid_run, capsys):
    assert covid_run["rows"] == 121788
    maj = covid_run["majority"]

    def band(metric, center):
        vals = [100.0 * float(kv[metric]) for kv in covid_run["runs"]]
        mean = float(np.mean(vals))
        assert center - 2.0 <= mean <= center + 2.0, (metric, vals)
        return mean

    acc = band("type2.accuracy", 91.64)
    f_maj = band(f"type2.f.{maj}", 95.64)
    nb = band("nb.accuracy", 90.79)
    nb_f = band(f"nb.f.{maj}", 95.15)
    knn = band("knn.accuracy", 90.04)
    knn_f = band(f"knn.f.{maj}", 94.73)
    dt = covid_run["dt"]
    assert dt < 15 * 60
    report(capsys, f"criterion 7 PASS: 121788 rows; 5-seed means acc "
                   f"{acc:.2f} / F {f_maj:.2f} (targets 91.64/95.64 +-2.0); "
                   f"NB {nb:.2f}/{nb_f:.2f}; KNN {knn:.2f}/{knn_f:.2f} "
                   f"({dt / 60:.1f} min < 15)")


def test_criterion_8_majority_bound_reported(covid_run, capsys):
    margins = []
    for kv in covid_run["runs"]:
        maj_acc = float(kv["type2.majority_accuracy"])
        tp, fn = int(kv["type2.tp"]), int(kv["type2.fn"])
        fp, tn = int(kv["type2.fp"]), int(kv["type2.tn"])
        n = int(kv["type2.n_test"])
        assert tp + fn + fp + tn == n
        # the sanity bound equals the larger truth-row share of the confusion
        assert maj_acc == pytest.approx(max(tp + fn, fp + tn) / n, abs=1e-12)
        margins.append(float(kv["type2.accuracy"]) - maj_acc)
    report(capsys, f"criterion 8 PASS: majority-baseline accuracy reported "
                   f"and confusion-consistent on all 5 seeds; model margin "
                   f"{100 * min(margins):+.2f}..{100 * max(margins):+.2f} pts")


def test_criterion_7_8_placeholder_note(capsys):
    # make the skip reason visible in the checklist even under plain -q runs
    if covid_csv() is None:
        report(capsys, f"criteria 7/8 SKIP: {COVID_SKIP}")
    else:
        report(capsys, "criteria 7/8: dataset found, full pipeline exercised")


# ---------------------------------------------------------------------------
# 9. counted randomized harness over every module's invariants
# ---------------------------------------------------------------------------


def _cases_sets(rng, n):
    from oracles import (GaussianT1Set, IT2GaussianSet, it2_membership,
                         set_centroid_interval, t1_membership)
    for _ in range(n):
        m = float(rng.uniform(-10.0, 10.0))
        sl = float(rng.uniform(0.05, 2.0))
        su = sl * float(rng.uniform(1.0, 3.0))
        s = IT2GaussianSet(m, sl, su)
        x = m + float(rng.uniform(-3.0, 3.0)) * su
        grade = it2_membership(s, x)
        assert 0.0 < grade.lower <= grade.upper <= 1.0
        mid = t1_membership(GaussianT1Set(m, float(rng.uniform(sl, su))), x)
        assert grade.lower - 1e-15 <= mid <= grade.upper + 1e-15
        far = m + (abs(x - m) + 0.1) * (1.0 if x >= m else -1.0)
        fgrade = it2_membership(s, far)  # monotone decay away from the mean
        assert fgrade.lower <= grade.lower and fgrade.upper <= grade.upper
        tri = set_centroid_interval(s)
        wide = set_centroid_interval(IT2GaussianSet(m, sl, su * 1.5))
        assert wide.y_r - wide.y_l >= tri.y_r - tri.y_l - 1e-12
    return n


def _cases_km(rng, n):
    for _ in range(n):
        d = int(rng.integers(1, 7))
        lo, up, cents = random_km_instance(rng, d)
        tri = km_reduce(np.column_stack([lo, up]), cents)
        assert tri.y_l <= tri.y_r + 1e-12
        assert cents.min() - 1e-9 <= tri.y_l and tri.y_r <= cents.max() + 1e-9
        lam = float(rng.uniform(0.1, 10.0))
        scaled = km_reduce(np.column_stack([lo * lam, up * lam]), cents)
        assert scaled.y_l == pytest.approx(tri.y_l, abs=1e-9)
        assert scaled.y_r == pytest.approx(tri.y_r, abs=1e-9)
        again = km_reduce(np.column_stack([lo, up]), cents)
        assert (again.y_l, again.y_r) == (tri.y_l, tri.y_r)  # purity
        wider = np.column_stack([lo * rng.uniform(0.0, 1.0, d),
                                 up + (1.0 - up) * rng.uniform(0.0, 1.0, d)])
        w = km_reduce(wider, cents)
        assert w.y_l <= tri.y_l + 1e-9 and tri.y_r <= w.y_r + 1e-9
    return n


def _cases_metrics(rng, n):
    for _ in range(n):
        size = int(rng.integers(4, 30))
        truth = list(rng.choice(["1", "2"], size))
        truth[0], truth[1] = "1", "2"
        pred = list(rng.choice(["1", "2"], size))
        a = compute_metrics(pred, truth, positive_class="2")
        perm = rng.permutation(size)
        b = compute_metrics([pred[i] for i in perm], [truth[i] for i in perm],
                            positive_class="2")
        assert a.accuracy == b.accuracy and a.f_measure == b.f_measure
        sw = compute_metrics(pred, truth, positive_class="1")
        assert sw.accuracy == a.accuracy
        assert sw.f_measure["1"] == a.f_measure["1"]
        assert a.accuracy == pytest.approx(
            (a.confusion[0, 0] + a.confusion[1, 1]) / size)
    return n


def _cases_split(rng, n):
    for _ in range(n):
        n_a, n_b = int(rng.integers(4, 40)), int(rng.integers(4, 40))
        ratio = float(rng.uniform(0.3, 0.7))
        labels = ("a",) * n_a + ("b",) * n_b
        total = n_a + n_b
        ds = Dataset(np.arange(float(total))[:, None], labels, ("x",))
        s = split(ds, ratio=ratio, seed=int(rng.integers(1 << 16)))
        assert s.train_indices.size == int(round(ratio * total))
        merged = np.concatenate([s.train_indices, s.test_indices])
        assert np.array_equal(np.sort(merged), np.arange(total))
        counts = Counter(labels[i] for i in s.train_indices)
        assert abs(counts["a"] - ratio * n_a) < 1.0
    return n


def _cases_widen(rng, n):
    for _ in range(n):
        base = random_t1_base(rng, n_rules=int(rng.integers(1, 5)),
                              n_features=int(rng.integers(1, 5)))
        spread = float(rng.uniform(0.0, 0.9))
        it2 = widen_to_it2(base, spread)
        assert (it2.sigma_lower <= it2.sigma_upper).all()
        # collapsing the footprint midpoint recovers the T1 sigmas
        mid = 0.5 * (it2.sigma_lower + it2.sigma_upper)
        assert np.allclose(mid, base.sigma_upper, rtol=0.0, atol=1e-12)
    return n


def _cases_cluster(rng, n):
    count = 0
    for _ in range(n):
        X = rng.uniform(-3.0, 3.0, (15, 2))
        part = manual_partition(rng, 3, 15, 2)
        base = fukuyama_index(X, part)
        assert base == pytest.approx(
            brute_fukuyama(X, part.U, part.V, part.m), abs=1e-9, rel=1e-9)
        perm = rng.permutation(3)  # relabeling clusters changes nothing
        part2 = replace(part, U=part.U[perm], V=part.V[perm])
        assert fukuyama_index(X, part2) == \
            pytest.approx(base, abs=1e-9, rel=1e-9)
        count += 1
    for run in range(60):
        X = np.random.default_rng(run).normal(size=(40, 2))
        a = fcm(X, 3, seed=run)
        b = fcm(X, 3, seed=run)
        assert np.array_equal(a.U, b.U) and np.array_equal(a.V, b.V)
        assert (a.colsum_error_trace <= 1e-9).all()
        count += 1
    return count


def _cases_preprocess(rng, n):
    cfg = PreprocessConfig(label_column="y", corr_threshold=0.9,
                           missing_codes=("99", ""), drop_columns=(),
                           categorical_columns=("cat",), outlier_rules=())
    count = 0
    for _ in range(n):
        rows = []
        size = int(rng.integers(12, 30))
        for i in range(size):
            rows.append([f"{rng.normal():.3f}", f"{rng.normal():.3f}",
                         str(rng.integers(1, 4)),
                         "99" if rng.random() < 0.1 else
                         str(rng.integers(1, 3))])
        table = RawTable(("a", "b", "cat", "y"), rows)
        labels = {r[3] for r in rows} - {"99"}
        if len(labels) != 2:
            continue  # degenerate draw: not counted
        ds, rep = preprocess(table, cfg)
        assert rep.kept_rows + rep.dropped_rows_total == rep.input_rows
        onehot_cols = [j for j, name in enumerate(ds.feature_names)
                       if name.startswith("cat=")]
        group_pruned = any(dropped.startswith("cat=")
                           for dropped, _, _ in rep.pruned)
        if onehot_cols and not group_pruned:
            np.testing.assert_array_equal(
                ds.features[:, onehot_cols].sum(axis=1), 1.0)
        elif onehot_cols:
            # correlation pruning may drop a dummy from the group (an absent
            # category makes two of them perfectly anti-correlated)
            sums = ds.features[:, onehot_cols].sum(axis=1)
            assert np.isin(sums, (0.0, 1.0)).all()
        corr = np.corrcoef(ds.features, rowvar=False)
        off = np.abs(corr - np.eye(corr.shape[0]))
        assert np.nanmax(off) <= 0.9 + 1e-12
        ds2, rep2 = preprocess(table, cfg)
        assert np.array_equal(ds.features, ds2.features) and rep == rep2
        count += 1
    return count


def _cases_model_io(rng, n, tmp_path):
    path = str(tmp_path / "case.model")
    for i in range(n):
        rb = random_it2_base(rng, n_rules=int(rng.integers(1, 4)),
                             n_features=int(rng.integers(1, 4)))
        save_model(rb, path)
        back = load_model(path)
        assert np.array_equal(back.means, rb.means)
        assert np.array_equal(back.sigma_lower, rb.sigma_lower)
        assert np.array_equal(back.cons_mean, rb.cons_mean)
    return n


def _cases_encode(rng, n):
    count = 0
    for _ in range(n):
        size = int(rng.integers(2, 40))
        labels = list(rng.choice(["x", "y"], size))
        if len(set(labels)) != 2:
            continue  # degenerate draw: not counted
        y, low, high = encode_labels(labels)
        n_low, n_high = labels.count(low), labels.count(high)
        assert n_low > n_high or (n_low == n_high and low < high)
        assert ((y == 1.0) == np.array([l == low for l in labels])).all()
        count += 1
    return count


def test_criterion_9_randomized_invariant_harness(rng, capsys, tmp_path):
    t0 = time.perf_counter()
    counts = {
        "sets": _cases_sets(rng, 3000),
        "km": _cases_km(rng, 2500),
        "metrics": _cases_metrics(rng, 1500),
        "split": _cases_split(rng, 800),
        "widen": _cases_widen(rng, 1200),
        "clustering": _cases_cluster(rng, 540),
        "preprocess": _cases_preprocess(rng, 400),
        "model_io": _cases_model_io(rng, 150, tmp_path),
        "encode": _cases_encode(rng, 1000),
    }
    dt = time.perf_counter() - t0
    total = sum(counts.values())
    assert total >= 10_000
    assert dt < 120.0
    detail = " ".join(f"{k}={v}" for k, v in counts.items())
    report(capsys, f"criterion 9 PASS: {total} randomized invariant cases "
                   f"({detail}) in {dt:.1f}s < 120s")
