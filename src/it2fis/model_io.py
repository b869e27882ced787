"""Versioned model-file serialization and the bundled pretrained model.

The on-disk format is JSON: human-diffable, and floats are written in their
shortest round-trip decimal form, so serialize-then-parse reproduces every
parameter bit-exactly.  Loading checks the JSON structure and the numbers
in it; RuleBase checks the parameters, and its errors name the offending
rule and variable.

`load_bundled_model` returns the pretrained 5-rule / 27-input ICU admission
classifier shipped with the package (antecedent and consequent parameters
stored to three decimals).
"""

from __future__ import annotations

import json
import math
from importlib import resources

import numpy as np

from .errors import ModelError
from .rules import KIND_T1, RuleBase

FORMAT_VERSION = 1
BUNDLED_MODEL = "icu_admission.model"


# each rule key in file order, with the antecedent field and the consequent
# field it is read into and written from
_RULE_KEYS = (("mean", "means", "cons_mean"),
              ("sigma_lower", "sigma_lower", "cons_sigma_lower"),
              ("sigma_upper", "sigma_upper", "cons_sigma_upper"))


def rule_base_to_dict(rb: RuleBase) -> dict:
    # tolist gives Python floats, whose repr is the one of float(v)
    ants = [(key, getattr(rb, field).tolist()) for key, field, _ in _RULE_KEYS]
    cons = [(key, getattr(rb, field).tolist()) for key, _, field in _RULE_KEYS]
    rules = [{"antecedents": [{key: v[s][f] for key, v in ants}
                              for f in range(rb.n_features)],
              "consequent": {key: v[s] for key, v in cons}}
             for s in range(rb.n_rules)]
    return {
        "format_version": FORMAT_VERSION,
        "kind": rb.kind,
        "variable_names": list(rb.variable_names),
        "label": {"low": rb.label_low, "high": rb.label_high},
        # the constant keys keep the block that version-1 readers expect
        "inference": {
            "tnorm": "product",
            "defuzzifier": "centroid",
            "yager_w": 2.0,
            "aggregation": "weighted",
            "threshold": rb.threshold,
        },
        "rules": rules,
        "provenance": dict(rb.provenance),
    }


def save_model(rb: RuleBase, path):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(rule_base_to_dict(rb), f, indent=1)
        f.write("\n")


def _num(block, key, where):
    v = block.get(key)
    try:
        ok = (isinstance(v, (int, float)) and not isinstance(v, bool)
              and math.isfinite(v))
    except OverflowError:  # a JSON integer beyond float range
        raise ModelError(
            f"{where}: {key!r} is too large for a float") from None
    if not ok:
        raise ModelError(f"{where}: missing or non-numeric {key!r}")
    return float(v)


def _block(doc, key) -> dict:
    # an optional block: absent or null reads as empty, anything else but a
    # JSON object is malformed
    block = doc.get(key)
    if block is None:
        return {}
    if not isinstance(block, dict):
        raise ModelError(f"{key} block must be a JSON object")
    return block


def _params(block, where) -> list:
    """The rule keys' values of one antecedent or consequent block."""
    if not isinstance(block, dict):
        raise ModelError(f"{where}: malformed parameter block")
    return [_num(block, key, where) for key, _, _ in _RULE_KEYS]


def dict_to_rule_base(doc) -> RuleBase:
    if not isinstance(doc, dict):
        raise ModelError("model file must contain a JSON object")
    version = doc.get("format_version")
    if version is None:
        raise ModelError("model file has no format_version")
    if version != FORMAT_VERSION:
        raise ModelError(f"unrecognized format_version {version!r}")
    kind = doc.get("kind")
    names = doc.get("variable_names")
    if (not isinstance(names, list) or not names
            or not all(isinstance(n, str) for n in names)):
        raise ModelError("variable_names must be a non-empty list of strings")
    rules = doc.get("rules")
    if not isinstance(rules, list) or not rules:
        raise ModelError("rules must be a non-empty list")

    g = len(names)
    ants, cons = [], []
    for s, rule in enumerate(rules):
        if not isinstance(rule, dict):
            raise ModelError(f"rule {s + 1}: malformed rule block")
        blocks = rule.get("antecedents")
        if not isinstance(blocks, list) or len(blocks) != g:
            raise ModelError(
                f"rule {s + 1}: expected {g} antecedents, "
                f"got {len(blocks) if isinstance(blocks, list) else 'none'}"
            )
        ants.append([_params(block, f"rule {s + 1}, {names[f]}")
                     for f, block in enumerate(blocks)])
        cons.append(_params(rule.get("consequent"), f"rule {s + 1}, consequent"))
    # (rules, features, key) and (rules, key), the keys in _RULE_KEYS order
    ants, cons = np.array(ants), np.array(cons)
    params = {}
    for k, (_, ant_field, cons_field) in enumerate(_RULE_KEYS):
        params[ant_field], params[cons_field] = ants[:, :, k], cons[:, k]

    label = _block(doc, "label")
    low = label.get("low", "1")
    high = label.get("high", "2")
    if not isinstance(low, str) or not isinstance(high, str) or low == high:
        raise ModelError("label block needs two distinct string codes")

    # defuzzifier and yager_w never changed a center-of-sets or type-2 score,
    # so they are ignored; a type-1 Mamdani model would score differently
    # here, so it is refused rather than read as center-of-sets
    inf = _block(doc, "inference")
    tnorm = inf.get("tnorm", "product")
    if tnorm != "product":
        raise ModelError(
            f"invalid model parameters: unsupported inference.tnorm {tnorm!r}")
    aggregation = inf.get("aggregation", "weighted")
    if kind == KIND_T1 and aggregation != "weighted":
        raise ModelError(
            f"unsupported inference.aggregation {aggregation!r}: type-1 "
            f"models are scored center-of-sets ('weighted') only")
    threshold = inf.get("threshold")
    if threshold is not None:
        if (not isinstance(threshold, (int, float))
                or isinstance(threshold, bool)):
            raise ModelError("inference.threshold must be a number or null")
        try:
            threshold = float(threshold)
        except OverflowError:  # a JSON integer beyond float range
            raise ModelError(
                "inference.threshold is too large for a float") from None
    prov = _block(doc, "provenance")
    try:
        return RuleBase(
            kind=kind, variable_names=tuple(names), **params,
            threshold=threshold,
            label_low=low, label_high=high,
            provenance=tuple((str(k), str(v)) for k, v in prov.items()),
        )
    except ValueError as exc:
        raise ModelError(f"invalid model parameters: {exc}") from exc


def load_model(path) -> RuleBase:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as exc:
        raise ModelError(f"cannot read model {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # bad JSON or UTF-8, a 4,300+ digit integer
        raise ModelError(f"cannot parse model {path}: {exc}") from exc
    return dict_to_rule_base(doc)


def load_bundled_model() -> RuleBase:
    """The pretrained 5-rule, 27-input ICU admission model."""
    ref = resources.files(__package__) / BUNDLED_MODEL
    with resources.as_file(ref) as path:
        return load_model(path)
