"""The RuleBase constructor's checks on its parameter arrays."""

import numpy as np
import pytest

from it2fis.rules import KIND_IT2, KIND_T1, RuleBase, t1_rule_base

# a valid two-rule, two-feature type-2 base; each case below breaks one field
GOOD = dict(kind=KIND_IT2, variable_names=("a", "b"),
            means=np.zeros((2, 2)), sigma_lower=np.full((2, 2), 0.5),
            sigma_upper=np.ones((2, 2)), cons_mean=[1.0, 2.0],
            cons_sigma_lower=[0.1, 0.1], cons_sigma_upper=[0.2, 0.2])


@pytest.mark.parametrize("change, message", [
    (dict(sigma_upper=np.ones((2, 3))), r"sigma_upper shape \(2, 3\) != \(2, 2\)"),
    (dict(means=np.empty((0, 2)), sigma_lower=np.empty((0, 2)),
          sigma_upper=np.empty((0, 2))),
     "needs at least one rule and one feature"),
    (dict(cons_mean=[1.0, 2.0, 3.0]), "one entry per rule"),
    (dict(variable_names=("a",)), "1 variable names for 2 antecedents"),
    (dict(kind="type-3"), "unknown rule-base kind 'type-3'"),
    (dict(sigma_lower=np.array([[0.5, 0.0], [0.5, 0.5]])),
     "all sigmas must be positive"),
    (dict(sigma_lower=np.full((2, 2), 2.0)),
     "sigma_lower 2.0 exceeds sigma_upper 1.0"),
    (dict(kind=KIND_T1), "type-1 base requires sigma_lower == sigma_upper"),
    # the first bad cell is named, counting rule by rule and a rule's
    # consequent after its antecedents
    (dict(sigma_lower=np.array([[0.5, 0.5], [2.0, 0.5]]),
          cons_sigma_lower=[0.3, 0.1]),
     r"^rule 1, consequent: sigma_lower 0\.3 exceeds sigma_upper 0\.2$"),
    # every cell is checked for a positive sigma before any for the order
    (dict(sigma_lower=np.array([[0.5, 0.5], [2.0, -1.0]])),
     r"^rule 2, b: all sigmas must be positive, got sigma_lower -1\.0$"),
], ids=["shape", "no_rules", "consequent_length", "name_count", "kind",
        "sigma_positive", "lower_above_upper", "type1_unequal",
        "first_bad_cell", "positive_before_order"])
def test_rule_base_rejects_bad_parameters(change, message):
    assert RuleBase(**GOOD).n_rules == 2
    with pytest.raises(ValueError, match=message):
        RuleBase(**{**GOOD, **change})


@pytest.mark.parametrize("name", ["means", "sigma_lower", "sigma_upper",
                                  "cons_mean", "cons_sigma_lower",
                                  "cons_sigma_upper"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_rule_base_rejects_non_finite_parameters(name, value):
    # a nan mean would flag every row, an inf sigma drop its feature, and a
    # nan consequent mean fail inside the type-reduced interval
    arr = np.array(GOOD[name], dtype=float)
    arr.flat[-1] = value
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        RuleBase(**{**GOOD, name: arr})


def test_rule_base_freezes_copies_not_the_callers_arrays():
    # C-contiguous float arrays, which a base could take without a copy
    given = {name: np.array(GOOD[name], dtype=float) for name in
             ("means", "sigma_lower", "sigma_upper", "cons_mean",
              "cons_sigma_lower", "cons_sigma_upper")}
    rb = RuleBase(**{**GOOD, **given})
    m, s = np.zeros((2, 2)), np.ones((2, 2))
    t1 = t1_rule_base(m, s, [1.0, 2.0], [0.1, 0.1])
    for base, arrays in ((rb, given), (t1, {"means": m, "sigma_lower": s})):
        for name, arr in arrays.items():
            assert arr.flags.writeable, name
            assert not getattr(base, name).flags.writeable, name
            arr += 1.0  # the caller's edit leaves the base as it was
            assert not np.array_equal(getattr(base, name), arr), name
