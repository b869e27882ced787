"""Versioned model-file serialization and the bundled pretrained model.

The on-disk format is JSON: human-diffable, and floats are written in their
shortest round-trip decimal form, so serialize-then-parse reproduces every
parameter bit-exactly.  Loading validates the whole structure up front and
names the offending rule/variable instead of surfacing a numpy error later.

`load_bundled_model` returns the pretrained 5-rule / 27-input ICU admission
classifier shipped with the package (antecedent and consequent parameters
stored to three decimals).
"""

from __future__ import annotations

import json
from importlib import resources

import numpy as np

from .errors import ModelError
from .rules import KIND_IT2, KIND_T1, RuleBase

FORMAT_VERSION = 1
BUNDLED_MODEL = "icu_admission.model"


def rule_base_to_dict(rb: RuleBase) -> dict:
    rules = []
    for s in range(rb.n_rules):
        rules.append({
            "antecedents": [
                {"mean": float(rb.means[s, f]),
                 "sigma_lower": float(rb.sigma_lower[s, f]),
                 "sigma_upper": float(rb.sigma_upper[s, f])}
                for f in range(rb.n_features)
            ],
            "consequent": {
                "mean": float(rb.cons_mean[s]),
                "sigma_lower": float(rb.cons_sigma_lower[s]),
                "sigma_upper": float(rb.cons_sigma_upper[s]),
            },
        })
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
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not np.isfinite(v):
        raise ModelError(f"{where}: missing or non-numeric {key!r}")
    return float(v)


def _check_sigmas(where, sl, su, kind):
    if sl <= 0:
        raise ModelError(f"{where}: sigma_lower must be positive, got {sl!r}")
    if sl > su:
        raise ModelError(
            f"{where}: sigma_lower {sl!r} exceeds sigma_upper {su!r}"
        )
    if kind == KIND_T1 and sl != su:
        raise ModelError(
            f"{where}: type-1 model requires sigma_lower == sigma_upper"
        )


def dict_to_rule_base(doc) -> RuleBase:
    if not isinstance(doc, dict):
        raise ModelError("model file must contain a JSON object")
    version = doc.get("format_version")
    if version is None:
        raise ModelError("model file has no format_version")
    if version != FORMAT_VERSION:
        raise ModelError(f"unrecognized format_version {version!r}")
    kind = doc.get("kind")
    if kind not in (KIND_T1, KIND_IT2):
        raise ModelError(f"unrecognized kind {kind!r}")
    names = doc.get("variable_names")
    if (not isinstance(names, list) or not names
            or not all(isinstance(n, str) for n in names)):
        raise ModelError("variable_names must be a non-empty list of strings")
    rules = doc.get("rules")
    if not isinstance(rules, list) or not rules:
        raise ModelError("rules must be a non-empty list")

    g, d = len(names), len(rules)
    means = np.empty((d, g))
    sig_lo = np.empty((d, g))
    sig_up = np.empty((d, g))
    cons = np.empty(d)
    cons_lo = np.empty(d)
    cons_up = np.empty(d)
    for s, rule in enumerate(rules):
        if not isinstance(rule, dict):
            raise ModelError(f"rule {s + 1}: malformed rule block")
        ants = rule.get("antecedents")
        if not isinstance(ants, list) or len(ants) != g:
            raise ModelError(
                f"rule {s + 1}: expected {g} antecedents, "
                f"got {len(ants) if isinstance(ants, list) else 'none'}"
            )
        for f, block in enumerate(ants):
            where = f"rule {s + 1}, {names[f]}"
            if not isinstance(block, dict):
                raise ModelError(f"{where}: malformed parameter block")
            m = _num(block, "mean", where)
            sl = _num(block, "sigma_lower", where)
            su = _num(block, "sigma_upper", where)
            _check_sigmas(where, sl, su, kind)
            means[s, f], sig_lo[s, f], sig_up[s, f] = m, sl, su
        block = rule.get("consequent")
        where = f"rule {s + 1}, consequent"
        if not isinstance(block, dict):
            raise ModelError(f"{where}: malformed parameter block")
        cm = _num(block, "mean", where)
        csl = _num(block, "sigma_lower", where)
        csu = _num(block, "sigma_upper", where)
        _check_sigmas(where, csl, csu, kind)
        cons[s], cons_lo[s], cons_up[s] = cm, csl, csu

    label = doc.get("label") or {}
    low = label.get("low", "1")
    high = label.get("high", "2")
    if not isinstance(low, str) or not isinstance(high, str) or low == high:
        raise ModelError("label block needs two distinct string codes")

    # defuzzifier and yager_w never changed a center-of-sets or type-2 score,
    # so they are ignored; a type-1 Mamdani model would score differently
    # here, so it is refused rather than read as center-of-sets
    inf = doc.get("inference") or {}
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
    if threshold is not None and not isinstance(threshold, (int, float)):
        raise ModelError("inference.threshold must be a number or null")
    try:
        prov = doc.get("provenance") or {}
        return RuleBase(
            kind=kind, variable_names=tuple(names),
            means=means, sigma_lower=sig_lo, sigma_upper=sig_up,
            cons_mean=cons, cons_sigma_lower=cons_lo, cons_sigma_upper=cons_up,
            threshold=None if threshold is None else float(threshold),
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
    except json.JSONDecodeError as exc:
        raise ModelError(f"cannot parse model {path}: {exc}") from exc
    return dict_to_rule_base(doc)


def load_bundled_model() -> RuleBase:
    """The pretrained 5-rule, 27-input ICU admission model."""
    ref = resources.files(__package__) / BUNDLED_MODEL
    with resources.as_file(ref) as path:
        return load_model(path)
