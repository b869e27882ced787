"""Seeded synthetic twin of the Kaggle Mexican covid-19 patient table.

The real file (23 columns, one row per patient) cannot be downloaded offline,
so the benchmark generates rows with the same schema and the same coding
conventions: 1 = yes / 2 = no, with 97 ("not applicable"), 98 ("unknown")
and 99 ("not specified") sentinels.  The `icu` label is about 9:1 no/yes and
depends on age and a handful of comorbidities through a logistic model plus
noise, so a classifier can learn it but not perfectly.

Every categorical takes at least two real values and every sentinel has a
rate of at least 1%, so each one-hot column is present and non-constant even
in a few thousand rows, and preprocessing gives the same feature columns for
every seed and size.  The same seed always gives the same bytes.
"""

from __future__ import annotations

import csv

import numpy as np

COLUMNS = (
    "id", "sex", "patient_type", "entry_date", "date_symptoms", "date_died",
    "intubed", "pneumonia", "age", "pregnancy", "diabetes", "copd", "asthma",
    "inmsupr", "hypertension", "other_disease", "cardiovascular", "obesity",
    "renal_chronic", "tobacco", "contact_other_covid", "covid_res", "icu",
)

# (column, P(yes), logit weight on the label, P(98 sentinel))
COMORBIDITIES = (
    ("diabetes", 0.14, 0.45, 0.010),
    ("copd", 0.10, 0.30, 0.010),
    ("asthma", 0.10, 0.00, 0.010),
    ("inmsupr", 0.10, 0.35, 0.010),
    ("hypertension", 0.18, 0.25, 0.010),
    ("other_disease", 0.10, 0.20, 0.010),
    ("cardiovascular", 0.10, 0.35, 0.010),
    ("obesity", 0.16, 0.30, 0.010),
    ("renal_chronic", 0.10, 0.45, 0.010),
    ("tobacco", 0.10, 0.00, 0.010),
)


def _yes_no(rng, n, p_yes):
    return np.where(rng.random(n) < p_yes, 1, 2)


def _with_sentinel(rng, codes, code, rate):
    return np.where(rng.random(codes.size) < rate, code, codes)


def _dates(rng, n):
    day = rng.integers(0, 180, n)
    onset = day - rng.integers(0, 10, n)
    base = np.datetime64("2020-03-01")
    fmt = lambda d: np.datetime_as_string(base + d.astype("timedelta64[D]"))
    return fmt(day), fmt(onset)


def generate(rows: int, seed: int) -> dict:
    """Return the columns of `rows` synthetic patients as string arrays."""
    if rows < 1:
        raise ValueError("rows must be positive")
    rng = np.random.default_rng(seed)
    n = rows

    sex = _yes_no(rng, n, 0.5)  # 1 female, 2 male
    age = np.clip(np.rint(rng.normal(44.0, 17.0, n)), 0, 100).astype(int)
    patient_type = np.where(
        rng.random(n) < 0.75 + 0.004 * (age - 44), 2, 1)  # 2 hospitalized
    hosp = patient_type == 2
    pneumonia = _with_sentinel(
        rng, _yes_no(rng, n, np.where(hosp, 0.55, 0.12)), 99, 0.010)
    intubed = np.where(hosp, _yes_no(rng, n, 0.40), 97)
    intubed = _with_sentinel(rng, intubed, 99, 0.010)
    pregnancy = np.where(sex == 1, _yes_no(rng, n, 0.02), 97)
    pregnancy = np.where((sex == 1) & (rng.random(n) < 0.015), 98, pregnancy)
    # a few impossible rows for the male_pregnancy outlier rule to drop
    pregnancy = np.where((sex == 2) & (rng.random(n) < 0.003), 1, pregnancy)
    contact = _with_sentinel(rng, _yes_no(rng, n, 0.40), 99, 0.030)
    covid_res = rng.choice([1, 2, 3], size=n, p=[0.40, 0.45, 0.15])

    logit = (-5.0 + 0.06 * (age - 44) + 1.5 * (pneumonia == 1)
             + 1.5 * (intubed == 1) + 0.4 * (covid_res == 1)
             + rng.normal(0.0, 0.5, n))
    cols = {}
    for name, p_yes, weight, p98 in COMORBIDITIES:
        p = np.clip(p_yes * (0.4 + age / 44.0 * 0.6), 0.0, 0.9)
        c = _with_sentinel(rng, _yes_no(rng, n, p), 98, p98)
        logit = logit + weight * (c == 1)
        cols[name] = c
    icu = np.where(rng.random(n) < 1.0 / (1.0 + np.exp(-logit)), 1, 2)
    # as in the real file, ICU is "not applicable" for outpatients; a few
    # more rows are "not specified".  Cleaning drops both.
    icu = np.where(hosp, icu, 97)
    icu = np.where(rng.random(n) < 0.01, 99, icu)

    entry, onset = _dates(rng, n)
    died = np.where(rng.random(n) < 0.06, entry, "9999-99-99")
    out = {
        "id": np.array([f"{seed:x}-{i:07x}" for i in range(n)]),
        "sex": sex, "patient_type": patient_type, "entry_date": entry,
        "date_symptoms": onset, "date_died": died, "intubed": intubed,
        "pneumonia": pneumonia, "age": age, "pregnancy": pregnancy,
        **cols, "contact_other_covid": contact, "covid_res": covid_res,
        "icu": icu,
    }
    return {k: np.asarray(out[k]).astype(str) for k in COLUMNS}


def serving_features(rows: int, seed: int, code2_share) -> dict:
    """Unlabeled rows for a model with inputs (age, 26 x 1/2-coded flags).

    `code2_share[k]` is the probability that flag k reads 2; the columns are
    named var1..var27 like the bundled model's inputs.
    """
    rng = np.random.default_rng(seed)
    age = np.clip(np.rint(rng.normal(50.0, 20.0, rows)), 0, 100).astype(int)
    out = {"var1": age.astype(str)}
    for k, p2 in enumerate(code2_share, start=2):
        out[f"var{k}"] = np.where(rng.random(rows) < p2, "2", "1")
    return out


def write_csv(path, columns: dict):
    names = list(columns)
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(names)
        w.writerows(zip(*(columns[k] for k in names)))
