"""Randomized invariant checks (hypothesis drives the case generation)."""

import tempfile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from it2fis.clustering import fcm
from it2fis.config import DEFAULTS, load_config, parse_config_file
from it2fis.evaluation import compute_metrics, split
from it2fis.inference import defuzzify_t1, km_reduce
from it2fis.learning import encode_labels, targets_for
from it2fis.model_io import load_model, save_model
from it2fis.preprocess import Dataset
from it2fis.rules import t1_rule_base

from conftest import random_it2_base


@st.composite
def km_instances(draw):
    d = draw(st.integers(1, 6))
    fl = st.floats(0.0, 1.0, allow_nan=False)
    cents = np.array(draw(st.lists(
        st.floats(-50.0, 50.0, allow_nan=False), min_size=d, max_size=d)))
    up = np.array(draw(st.lists(fl, min_size=d, max_size=d)))
    frac = np.array(draw(st.lists(fl, min_size=d, max_size=d)))
    assume(up.max() > 1e-12)
    return np.column_stack([up * frac, up]), cents


@given(km_instances())
def test_km_interval_lies_inside_centroid_range(case):
    firing, cents = case
    tri = km_reduce(firing, cents)
    assert tri.y_l <= tri.y_r + 1e-12
    assert cents.min() - 1e-9 <= tri.y_l
    assert tri.y_r <= cents.max() + 1e-9
    assert tri.crisp == pytest.approx(0.5 * (tri.y_l + tri.y_r))


# every rule at one centroid: y_l and y_r come from different sums and once
# rounded an ulp apart the wrong way, so km_reduce raised
_EQUAL_CENTROIDS = (
    np.column_stack([np.zeros(4), [float.fromhex(h) for h in (
        "0x0p+0", "0x1.25p-1", "0x1.b6288b3da0c0ap-2", "0x1.8p-4")]]),
    np.full(4, float.fromhex("0x1.f88779a167b2cp+2")))


@given(km_instances(),
       st.floats(0.1, 10.0, allow_nan=False),
       st.floats(-20.0, 20.0, allow_nan=False))
@example(_EQUAL_CENTROIDS, 1.0, 0.0)
def test_km_affine_equivariance(case, scale, offset):
    firing, cents = case
    a = km_reduce(firing, cents)
    b = km_reduce(firing, cents * scale + offset)
    assert b.y_l == pytest.approx(a.y_l * scale + offset, abs=1e-7)
    assert b.y_r == pytest.approx(a.y_r * scale + offset, abs=1e-7)


@given(km_instances(), st.data())
def test_km_wider_firing_intervals_nest(case, data):
    firing, cents = case
    d = firing.shape[0]
    squeeze = np.array(data.draw(st.lists(
        st.floats(0.0, 1.0, allow_nan=False), min_size=d, max_size=d)))
    grow = np.array(data.draw(st.lists(
        st.floats(0.0, 1.0, allow_nan=False), min_size=d, max_size=d)))
    wider = np.column_stack([
        firing[:, 0] * squeeze,
        firing[:, 1] + (1.0 - firing[:, 1]) * grow,
    ])
    a = km_reduce(firing, cents)
    b = km_reduce(wider, cents)
    assert b.y_l <= a.y_l + 1e-9
    assert a.y_r <= b.y_r + 1e-9


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(2, 5), st.integers(10, 60))
def test_fcm_partition_invariants(seed, c, n):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 2)) * rng.uniform(0.5, 3.0)
    part = fcm(X, c, seed=seed)
    np.testing.assert_allclose(part.U.sum(axis=0), 1.0, atol=1e-9)
    assert (part.U >= 0.0).all()
    trace = np.asarray(part.objective_trace)
    assert (np.diff(trace) <= trace[:-1] * 1e-12 + 1e-12).all()


two_codes = st.sampled_from(["1", "2"])


@given(st.lists(two_codes, min_size=2, max_size=40),
       st.lists(two_codes, min_size=2, max_size=40))
def test_metrics_confusion_accounting(pred, truth):
    n = min(len(pred), len(truth))
    pred, truth = pred[:n], truth[:n]
    assume(len(set(truth)) == 2)
    m = compute_metrics(pred, truth, positive_class="2")
    assert int(m.confusion.sum()) == n
    tp, tn = int(m.confusion[0, 0]), int(m.confusion[1, 1])
    assert m.accuracy == pytest.approx((tp + tn) / n)
    swapped = compute_metrics(pred, truth, positive_class="1")
    assert swapped.accuracy == m.accuracy
    np.testing.assert_array_equal(swapped.confusion, m.confusion[::-1, ::-1])
    assert swapped.macro_f == pytest.approx(m.macro_f)


@given(st.lists(st.sampled_from(["a", "b"]), min_size=2, max_size=50))
def test_label_encoding_roundtrip(labels):
    assume(len(set(labels)) == 2)
    y, low, high = encode_labels(labels)
    assert {low, high} == {"a", "b"}
    assert set(np.unique(y)) <= {1.0, 2.0}
    # the low code is the majority; count ties break lexicographically
    n_low, n_high = labels.count(low), labels.count(high)
    assert n_low > n_high or (n_low == n_high and low < high)
    rb = t1_rule_base([[0.0]], [[1.0]], [1.5], [0.5],
                      label_low=low, label_high=high)
    np.testing.assert_array_equal(targets_for(rb, labels), y)


@given(st.integers(5, 60), st.integers(0, 1000))
def test_yager_weight_one_is_centroid(n, seed):
    rng = np.random.default_rng(seed)
    ys = np.sort(rng.uniform(-5.0, 5.0, size=n))
    mus = rng.uniform(0.0, 1.0, size=n)
    assume(mus.max() > 1e-9)
    c = defuzzify_t1(ys, mus, "centroid")
    y1 = defuzzify_t1(ys, mus, "yager", yager_w=1.0)
    assert y1 == pytest.approx(c, abs=1e-12)


config_value = st.text(
    alphabet=st.characters(min_codepoint=33, max_codepoint=126),
    min_size=1, max_size=20,
).filter(lambda s: not s.startswith("#"))


@settings(max_examples=40, deadline=None)
@given(st.dictionaries(
    st.sampled_from(sorted(k for k in DEFAULTS if k != "label_column")),
    config_value, min_size=1, max_size=6))
def test_config_file_roundtrip(entries):
    with tempfile.NamedTemporaryFile("w", suffix=".cfg", delete=False) as f:
        f.write("# generated\n\n")
        for k, v in entries.items():
            f.write(f"{k} = {v}\n")
        path = f.name
    parsed = parse_config_file(path)
    assert parsed == entries  # embedded '=' must survive the first-split rule
    cfg = load_config(path)
    for k, v in entries.items():
        assert cfg.get(k) == v


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 5), st.integers(1, 6))
def test_model_roundtrip_any_shape(seed, n_rules, n_features):
    rng = np.random.default_rng(seed)
    rb = random_it2_base(rng, n_rules=n_rules, n_features=n_features)
    with tempfile.NamedTemporaryFile(suffix=".model", delete=False) as f:
        path = f.name
    save_model(rb, path)
    back = load_model(path)
    for name in ("means", "sigma_lower", "sigma_upper",
                 "cons_mean", "cons_sigma_lower", "cons_sigma_upper"):
        assert np.array_equal(getattr(back, name), getattr(rb, name)), name


@given(st.integers(4, 40), st.integers(4, 40),
       st.floats(0.3, 0.7, allow_nan=False), st.integers(0, 100))
def test_split_respects_quota_per_class(n_a, n_b, ratio, seed):
    labels = ("a",) * n_a + ("b",) * n_b
    n = n_a + n_b
    ds = Dataset(np.arange(float(n))[:, None], labels, ("x",))
    s = split(ds, ratio=ratio, seed=seed)
    assert s.train_indices.size == int(round(ratio * n))
    merged = np.sort(np.concatenate([s.train_indices, s.test_indices]))
    np.testing.assert_array_equal(merged, np.arange(n))
    train_labels = [labels[i] for i in s.train_indices]
    for code, size in (("a", n_a), ("b", n_b)):
        got = train_labels.count(code)
        assert abs(got - ratio * size) < 1.0  # largest-remainder rounding
