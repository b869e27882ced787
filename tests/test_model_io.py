"""Model-file round trips, structural validation, and the bundled model."""

import json
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from it2fis.errors import ModelError
from it2fis.model_io import (BUNDLED_MODEL, FORMAT_VERSION, dict_to_rule_base,
                             load_bundled_model, load_model,
                             rule_base_to_dict, save_model)
from it2fis.rules import KIND_IT2, KIND_T1

from conftest import random_it2_base, random_t1_base


def roundtrip(rb, tmp_path):
    path = str(tmp_path / "m.model")
    save_model(rb, path)
    return load_model(path)


def dump(doc, tmp_path, name="m.model"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


def test_roundtrip_it2_bit_exact(tmp_path, rng):
    rb = random_it2_base(rng, n_rules=4, n_features=3,
                         provenance=(("built_by", "test"), ("epochs", "7")))
    back = roundtrip(rb, tmp_path)
    assert back.kind == KIND_IT2
    assert back.variable_names == rb.variable_names
    for name in ("means", "sigma_lower", "sigma_upper",
                 "cons_mean", "cons_sigma_lower", "cons_sigma_upper"):
        assert np.array_equal(getattr(back, name), getattr(rb, name)), name
    assert back.label_low == rb.label_low
    assert back.label_high == rb.label_high
    assert back.threshold == rb.threshold
    assert back.provenance == rb.provenance


def test_roundtrip_t1_bit_exact(tmp_path, rng):
    rb = random_t1_base(rng, n_rules=3, n_features=2)
    back = roundtrip(rb, tmp_path)
    assert back.kind == KIND_T1
    assert np.array_equal(back.sigma_lower, back.sigma_upper)
    assert np.array_equal(back.means, rb.means)
    assert np.array_equal(back.cons_mean, rb.cons_mean)


def test_roundtrip_extreme_floats(tmp_path, rng):
    # shortest-round-trip decimals must survive ugly values too
    rb = random_t1_base(rng)
    rb = rb.with_params(rb.means * np.pi * 1e-7, rb.sigma_lower,
                        rb.sigma_upper, rb.cons_mean / 3.0)
    back = roundtrip(rb, tmp_path)
    assert np.array_equal(back.means, rb.means)
    assert np.array_equal(back.cons_mean, rb.cons_mean)


def test_saved_file_is_stable_json(tmp_path, rng):
    rb = random_it2_base(rng)
    p1, p2 = str(tmp_path / "a.model"), str(tmp_path / "b.model")
    save_model(rb, p1)
    save_model(rb, p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()
    doc = json.loads(Path(p1).read_text(encoding="utf-8"))
    assert doc["format_version"] == FORMAT_VERSION
    assert doc["kind"] == KIND_IT2


# ---------------------------------------------------------------------------
# bundled model
# ---------------------------------------------------------------------------


def test_bundled_model_shape_and_anchors():
    rb = load_bundled_model()
    assert rb.kind == KIND_IT2
    assert rb.n_rules == 5
    assert rb.n_features == 27
    assert rb.variable_names == tuple(f"var{i}" for i in range(1, 28))
    # spot anchors; stored to three decimals, so equality is exact
    np.testing.assert_array_equal(
        rb.cons_mean, [1.066, 1.075, 1.082, 1.080, 1.164])
    assert rb.means[1, 0] == 79.019
    assert rb.sigma_upper[1, 0] == 10.240
    assert rb.sigma_lower[1, 0] == 6.144
    assert (rb.sigma_lower <= rb.sigma_upper).all()
    assert (rb.sigma_lower > 0).all()
    assert rb.label_low == "2" and rb.label_high == "1"
    assert rb.threshold == 1.115


def test_bundled_model_roundtrips(tmp_path):
    rb = load_bundled_model()
    back = roundtrip(rb, tmp_path)
    assert np.array_equal(back.means, rb.means)
    assert back.provenance == rb.provenance


# ---------------------------------------------------------------------------
# validation on load
# ---------------------------------------------------------------------------


def test_load_rejects_tampered_sigma_order(tmp_path):
    doc = rule_base_to_dict(load_bundled_model())
    doc["rules"][2]["antecedents"][1]["sigma_lower"] = 99.0
    with pytest.raises(ModelError, match=r"rule 3, var2: sigma_lower 99\.0 "
                                         r"exceeds sigma_upper"):
        load_model(dump(doc, tmp_path))


def test_load_rejects_unknown_format_version(tmp_path, rng):
    doc = rule_base_to_dict(random_t1_base(rng))
    doc["format_version"] = 2
    with pytest.raises(ModelError, match="unrecognized format_version 2"):
        load_model(dump(doc, tmp_path))
    del doc["format_version"]
    with pytest.raises(ModelError, match="no format_version"):
        load_model(dump(doc, tmp_path))


def test_load_rejects_t1_with_spread(tmp_path, rng):
    doc = rule_base_to_dict(random_t1_base(rng))
    doc["rules"][0]["antecedents"][0]["sigma_upper"] *= 2.0
    with pytest.raises(ModelError, match="type-1 model requires"):
        load_model(dump(doc, tmp_path))


def test_load_rejects_nonpositive_sigma(tmp_path, rng):
    doc = rule_base_to_dict(random_t1_base(rng))
    doc["rules"][1]["consequent"]["sigma_lower"] = 0.0
    doc["rules"][1]["consequent"]["sigma_upper"] = 0.0
    with pytest.raises(ModelError, match="rule 2, consequent.*positive"):
        load_model(dump(doc, tmp_path))


def test_load_rejects_non_numeric_fields(tmp_path, rng):
    doc = rule_base_to_dict(random_t1_base(rng))
    doc["inference"]["threshold"] = "high"
    with pytest.raises(ModelError, match="threshold must be a number"):
        load_model(dump(doc, tmp_path))
    doc["inference"]["threshold"] = float("inf")
    with pytest.raises(ModelError, match="threshold must be finite"):
        load_model(dump(doc, tmp_path))

    doc = rule_base_to_dict(random_t1_base(rng))
    doc["rules"][0]["antecedents"][1]["mean"] = None
    with pytest.raises(ModelError, match="missing or non-numeric 'mean'"):
        load_model(dump(doc, tmp_path))

    doc = rule_base_to_dict(random_t1_base(rng))
    doc["rules"][0]["antecedents"][1]["mean"] = True  # bools are not numbers
    with pytest.raises(ModelError, match="missing or non-numeric 'mean'"):
        load_model(dump(doc, tmp_path))


def test_load_rejects_bad_labels(tmp_path, rng):
    doc = rule_base_to_dict(random_t1_base(rng))
    doc["label"] = {"low": "1", "high": "1"}
    with pytest.raises(ModelError, match="two distinct string codes"):
        load_model(dump(doc, tmp_path))


def test_load_defaults_for_optional_blocks(tmp_path, rng):
    doc = rule_base_to_dict(random_t1_base(rng))
    del doc["label"]
    del doc["inference"]
    del doc["provenance"]
    rb = load_model(dump(doc, tmp_path))
    assert (rb.label_low, rb.label_high) == ("1", "2")
    assert rb.threshold is None
    assert rb.provenance == ()


def test_load_rejects_structural_damage(tmp_path, rng):
    doc = rule_base_to_dict(random_t1_base(rng, n_features=2))
    doc["rules"][1]["antecedents"] = doc["rules"][1]["antecedents"][:1]
    with pytest.raises(ModelError, match="rule 2: expected 2 antecedents, got 1"):
        load_model(dump(doc, tmp_path))

    doc = rule_base_to_dict(random_t1_base(rng))
    doc["kind"] = "type-3"
    with pytest.raises(ModelError, match="unrecognized kind 'type-3'"):
        load_model(dump(doc, tmp_path))

    doc = rule_base_to_dict(random_t1_base(rng))
    doc["variable_names"] = []
    with pytest.raises(ModelError, match="variable_names"):
        load_model(dump(doc, tmp_path))

    doc = rule_base_to_dict(random_t1_base(rng))
    doc["rules"] = []
    with pytest.raises(ModelError, match="rules must be a non-empty list"):
        load_model(dump(doc, tmp_path))

    with pytest.raises(ModelError, match="JSON object"):
        dict_to_rule_base([1, 2, 3])


def test_load_rejects_invalid_inference_values(tmp_path, rng):
    doc = rule_base_to_dict(random_t1_base(rng))
    doc["inference"]["tnorm"] = "lukasiewicz"
    with pytest.raises(ModelError, match="invalid model parameters"):
        load_model(dump(doc, tmp_path))


def test_load_rejects_type1_mamdani_model(tmp_path, rng):
    # center-of-sets would score this file differently from its writer
    doc = rule_base_to_dict(random_t1_base(rng))
    doc["inference"]["aggregation"] = "mamdani"
    with pytest.raises(ModelError, match="inference.aggregation 'mamdani'"):
        load_model(dump(doc, tmp_path))


def test_load_ignores_defuzzifier_keys(tmp_path, rng):
    # they never changed a center-of-sets or type-2 score; the bundled model
    # says "yager" and still loads
    text = (resources.files("it2fis") / BUNDLED_MODEL).read_text("utf-8")
    assert json.loads(text)["inference"]["defuzzifier"] == "yager"
    load_bundled_model()
    rb = random_it2_base(rng)
    doc = rule_base_to_dict(rb)
    doc["inference"].update(defuzzifier="bisector", yager_w=-3.0,
                            aggregation="mamdani")
    back = load_model(dump(doc, tmp_path))
    assert np.array_equal(back.means, rb.means)


def test_load_io_errors(tmp_path):
    with pytest.raises(ModelError, match="cannot read model"):
        load_model(str(tmp_path / "absent.model"))
    bad = tmp_path / "garbage.model"
    bad.write_text("{ not json", encoding="utf-8")
    with pytest.raises(ModelError, match="cannot parse model"):
        load_model(str(bad))
