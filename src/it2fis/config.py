"""Key=value configuration of the settings a run may change.

A config file is plain text: one `key=value` per line, `#` comments and blank
lines ignored.  Values stay strings until a typed getter converts them, so
file contents and built-in defaults go through identical parsing.  Unknown
keys are rejected (typo protection); keys starting with `outlier.` are open
ended, each defining one outlier rule as `col=value&col2=value2` conjunctions
(an empty value disables that rule).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DataError
from .learning import TuneConfig
from .preprocess import COVID_CATEGORICAL, OutlierRule, PreprocessConfig

DEFAULTS = {
    # data pipeline
    "label_column": "icu",
    "corr_threshold": "0.85",
    "missing_codes": "97,98,99",
    "drop_columns": "id,entry_date,date_symptoms,date_died",
    "categorical_columns": ",".join(COVID_CATEGORICAL),
    "outlier.male_pregnancy": "sex=2&pregnancy=1",
    # clustering
    "c_max": "10",
    "selection_seeds": "5",
    "cluster_scan_subsample": "20000",
    # tuning
    "learning_rate": "0.01",
    "epochs": "100",
    "patience": "10",
    "spread": "0.2",
    # evaluation
    "train_ratio": "0.7",
}


@dataclass(frozen=True)
class Config:
    values: dict

    @classmethod
    def defaults(cls) -> "Config":
        return cls(dict(DEFAULTS))

    def updated(self, overrides: dict) -> "Config":
        merged = dict(self.values)
        for k, v in overrides.items():
            if k not in DEFAULTS and not k.startswith("outlier."):
                raise DataError(f"unknown config key {k!r}")
            merged[k] = v
        return Config(merged)

    def get(self, key) -> str:
        return self.values[key]

    def get_float(self, key) -> float:
        try:
            return float(self.values[key])
        except ValueError:
            raise DataError(
                f"config {key}={self.values[key]!r} is not a number"
            ) from None

    def get_int(self, key) -> int:
        try:
            return int(self.values[key])
        except ValueError:
            raise DataError(
                f"config {key}={self.values[key]!r} is not an integer"
            ) from None

    def get_list(self, key) -> tuple:
        v = self.values[key].strip()
        return tuple(p.strip() for p in v.split(",") if p.strip()) if v else ()

    def outlier_rules(self) -> tuple:
        rules = []
        for k, v in self.values.items():
            if not k.startswith("outlier."):
                continue
            v = v.strip()
            if not v:
                continue  # empty value disables the rule
            conditions = []
            for clause in v.split("&"):
                col, sep, val = clause.strip().partition("=")
                if not sep or not col.strip():
                    raise DataError(
                        f"config {k}: expected col=value clauses, got {clause!r}"
                    )
                conditions.append((col.strip(), val.strip()))
            rules.append(OutlierRule(k[len("outlier."):], tuple(conditions)))
        return tuple(rules)


def parse_config_file(path) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.readlines()
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc.strerror or exc}") from exc
    out = {}
    for i, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise DataError(f"config {path} line {i}: expected key=value")
        out[key.strip()] = value.strip()
    return out


def load_config(path=None, overrides=None) -> Config:
    cfg = Config.defaults()
    if path is not None:
        cfg = cfg.updated(parse_config_file(path))
    if overrides:
        cfg = cfg.updated({k: str(v) for k, v in overrides.items() if v is not None})
    return cfg


def preprocess_config(cfg: Config) -> PreprocessConfig:
    missing = cfg.get_list("missing_codes") + ("",)  # empty cell always missing
    try:
        return PreprocessConfig(
            label_column=cfg.get("label_column"),
            corr_threshold=cfg.get_float("corr_threshold"),
            missing_codes=missing,
            drop_columns=cfg.get_list("drop_columns"),
            categorical_columns=cfg.get_list("categorical_columns"),
            outlier_rules=cfg.outlier_rules(),
        )
    except ValueError as exc:
        raise DataError(f"config {exc}") from None


def tune_config(cfg: Config) -> TuneConfig:
    try:
        return TuneConfig(
            learning_rate=cfg.get_float("learning_rate"),
            epochs=cfg.get_int("epochs"),
            patience=cfg.get_int("patience"),
        )
    except ValueError as exc:
        raise DataError(f"config {exc}") from None


# the range each key's consumer needs (widen_to_it2, split, the cluster
# scan), so a command can reject a bad value before reading any data
RANGES = {
    "spread": (float, lambda v: 0.0 <= v < 1.0, "must lie in [0, 1)"),
    "train_ratio": (float, lambda v: 0.0 < v < 1.0, "must lie in (0, 1)"),
    "c_max": (int, lambda v: v >= 2, "must be at least 2"),
    "selection_seeds": (int, lambda v: v >= 1, "must be at least 1"),
    # 0 scans every row
    "cluster_scan_subsample": (int, lambda v: v >= 0, "must not be negative"),
}


def check_ranges(cfg: Config, *keys):
    for key in keys:
        kind, ok, need = RANGES[key]
        value = cfg.get_float(key) if kind is float else cfg.get_int(key)
        if not ok(value):
            raise DataError(f"config {key} {need}, got {value!r}")
