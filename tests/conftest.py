"""Shared fixtures and small builders used across the test modules."""

import numpy as np
import pytest

from it2fis.preprocess import Dataset
from it2fis.rules import KIND_IT2, RuleBase, t1_rule_base


def random_t1_base(rng, n_rules=3, n_features=2, **kw):
    means = rng.uniform(-2.0, 2.0, (n_rules, n_features))
    sig = rng.uniform(0.5, 2.0, (n_rules, n_features))
    cons = rng.uniform(1.0, 2.0, n_rules)
    cons_sig = rng.uniform(0.2, 0.8, n_rules)
    return t1_rule_base(means, sig, cons, cons_sig, **kw)


def random_it2_base(rng, n_rules=3, n_features=2, spread=0.3, **kw):
    means = rng.uniform(-2.0, 2.0, (n_rules, n_features))
    su = rng.uniform(0.5, 2.0, (n_rules, n_features))
    sl = su * (1.0 - spread * rng.random((n_rules, n_features)))
    cons = rng.uniform(1.0, 2.0, n_rules)
    csu = rng.uniform(0.2, 0.8, n_rules)
    csl = csu * (1.0 - spread * rng.random(n_rules))
    kw.setdefault("variable_names",
                  tuple(f"x{f + 1}" for f in range(n_features)))
    return RuleBase(kind=KIND_IT2, means=means, sigma_lower=sl,
                    sigma_upper=su, cons_mean=cons, cons_sigma_lower=csl,
                    cons_sigma_upper=csu, **kw)


def blobs(rng, centers, n_per=60, sigma=0.25):
    """Isotropic Gaussian blobs around the given centers, stacked in order."""
    centers = np.atleast_2d(np.asarray(centers, dtype=float))
    return np.vstack([c + sigma * rng.standard_normal((n_per, centers.shape[1]))
                      for c in centers])


def two_class_dataset(rng, n_major=80, n_minor=40, gap=4.0):
    """One-dimensional two-Gaussian classification data ('a' majority at 0)."""
    x = np.concatenate([rng.normal(0.0, 0.5, n_major),
                        rng.normal(gap, 0.5, n_minor)])
    labels = ("a",) * n_major + ("b",) * n_minor
    return Dataset(x[:, None], labels, ("x1",))


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
