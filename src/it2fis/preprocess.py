"""CSV ingestion and cleaning: missing-label drop, outlier rules, one-hot
encoding, and correlation pruning.

The raw table keeps every cell verbatim.  Cleaning drops rows whose label
cell is one of the configured missing codes, then rows matched by declarative
outlier rules (conjunctions of column == value on the raw cells).  Listed
categorical columns expand to one "col=value" binary column per observed
category (sentinel codes like 97 simply become their own category); the rest
must parse as numbers.  Finally, walking columns left to right, any column
whose |Pearson r| with an already-kept column exceeds the threshold is
dropped, so exactly one member of each offending pair survives.

There is one CSV reader, ``csv_blocks``: it reads a file in blocks of at
most ``_PARSE_ROWS`` records and checks each as it comes.  ``load_csv``
joins its blocks into one table; ``it2fis predict`` scores them one at a
time, so it never holds more than one block of raw cells.  Every error
that names a "data row" counts the records after the header from 1,
blank ones included.
"""

from __future__ import annotations

import csv
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DataError

COVID_CATEGORICAL = (
    "sex", "patient_type", "intubed", "pneumonia", "pregnancy", "diabetes",
    "copd", "asthma", "inmsupr", "hypertension", "other_disease",
    "cardiovascular", "obesity", "renal_chronic", "tobacco",
    "contact_other_covid", "covid_res",
)


@dataclass(frozen=True)
class RawTable:
    column_names: tuple
    rows: list
    first_row: int = 1      # data-row number of the first record read
    blank_rows: tuple = ()  # data-row numbers of the blank records skipped

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    def data_row(self, i) -> int:
        """The file's data-row number of ``rows[i]``: the records after the
        header counted from 1, the skipped blank ones included."""
        row = self.first_row + i
        for blank in self.blank_rows:
            if blank > row:
                break
            row += 1
        return row


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray  # (N, d) float
    labels: tuple         # N verbatim label cells
    feature_names: tuple
    label_name: str = "label"

    def __post_init__(self):
        feats = np.ascontiguousarray(np.asarray(self.features, dtype=float))
        if feats.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        if len(self.labels) != feats.shape[0]:
            raise ValueError("label count does not match feature rows")
        if len(self.feature_names) != feats.shape[1]:
            raise ValueError("feature name count does not match columns")
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]


@dataclass(frozen=True)
class OutlierRule:
    """Drop every row where all (column, value) conditions hold verbatim."""
    name: str
    conditions: tuple  # ((column, value), ...)

    def __post_init__(self):
        if not self.conditions:
            raise ValueError(f"outlier rule {self.name!r} has no conditions")


@dataclass(frozen=True)
class PreprocessConfig:
    label_column: str = "icu"
    corr_threshold: float = 0.85
    missing_codes: tuple = ("97", "98", "99", "")
    drop_columns: tuple = ("id", "entry_date", "date_symptoms", "date_died")
    categorical_columns: tuple = COVID_CATEGORICAL
    outlier_rules: tuple = (
        OutlierRule("male_pregnancy", (("sex", "2"), ("pregnancy", "1"))),
    )

    def __post_init__(self):
        if not (0.0 < self.corr_threshold <= 1.0):
            raise ValueError("corr_threshold must lie in (0, 1], got "
                             f"{self.corr_threshold!r}")


@dataclass(frozen=True)
class PreprocessReport:
    input_rows: int
    input_columns: tuple
    dropped_columns: tuple
    missing_label_rows: int
    outlier_rows: tuple          # ((rule name, rows dropped), ...)
    skipped_rules: tuple         # ((rule name, reason), ...)
    kept_rows: int
    onehot: tuple                # ((column, (new columns...)), ...)
    numeric_columns: tuple
    pruned: tuple                # ((dropped, kept against, r), ...)
    feature_names: tuple
    label_column: str

    @property
    def dropped_rows_total(self) -> int:
        return self.missing_label_rows + sum(n for _, n in self.outlier_rows)

    def text(self) -> str:
        lines = [
            f"input rows: {self.input_rows}",
            f"input columns: {len(self.input_columns)}",
            f"dropped columns (configured): {', '.join(self.dropped_columns) or '-'}",
            f"rows dropped for missing label: {self.missing_label_rows}",
        ]
        for name, n in self.outlier_rows:
            lines.append(f"rows dropped by outlier rule {name}: {n}")
        for name, reason in self.skipped_rules:
            lines.append(f"outlier rule {name} skipped: {reason}")
        lines.append(f"rows kept: {self.kept_rows}")
        for col, new in self.onehot:
            lines.append(f"one-hot {col}: {', '.join(new)}")
        if self.numeric_columns:
            lines.append(f"numeric columns: {', '.join(self.numeric_columns)}")
        for dropped, kept, r in self.pruned:
            lines.append(f"pruned {dropped} (|r|={abs(r):.4f} with {kept})")
        lines.append(f"final feature count: {len(self.feature_names)}")
        lines.append(f"label column: {self.label_column}")
        return "\n".join(lines) + "\n"


# Records per block of `csv_blocks`, and rows per numpy parse call.  numpy
# holds state for every row of one call until it returns: parsing a
# 16,000-row table in one call raised the peak RSS of `predict` by 0.3 MB,
# parsing it in blocks of this many rows did not.
_PARSE_ROWS = 2048


def csv_blocks(path):
    """Read an RFC-4180 CSV with a header row as RawTable blocks, preserving
    cells verbatim.

    The first block holds the header and no rows, so a caller can check the
    header before any body record is read; each later block holds at most
    ``_PARSE_ROWS`` records and the data-row number of its first one.
    Completely empty rows are skipped; any other row whose cell count
    differs from the header is an error naming that data row.
    """
    try:
        f = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from exc
    with f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: no header row")
        header = tuple(header)
        seen = set()
        for name in header:
            if name in seen:
                raise DataError(f"duplicate column name {name!r}")
            seen.add(name)
        width = len(header)
        yield RawTable(header, [])
        first = 1
        while records := list(itertools.islice(reader, _PARSE_ROWS)):
            blank = ()
            # one C-level pass over the row lengths; the records are walked
            # only when some record is empty, to skip it, or bad, to name
            # the first such record
            if set(map(len, records)) - {width}:
                for i, row in enumerate(records, start=first):
                    if row and len(row) != width:
                        raise DataError(
                            f"row {i} has {len(row)} cells; expected {width}")
                blank = tuple(i for i, row in enumerate(records, start=first)
                              if not row)
                records = [row for row in records if row]
            yield RawTable(header, records, first, blank)
            first += len(records) + len(blank)


def load_csv(path) -> RawTable:
    """The whole CSV as one RawTable: the blocks of ``csv_blocks``, the one
    reader, joined, with its checks and messages."""
    blocks = csv_blocks(path)
    header = next(blocks).column_names
    rows, blank = [], []
    for block in blocks:
        rows.extend(block.rows)
        blank.extend(block.blank_rows)
    return RawTable(header, rows, 1, tuple(blank))


def preprocess(table: RawTable, config: PreprocessConfig = PreprocessConfig()):
    """Clean a raw table into a numeric Dataset; returns (Dataset, report)."""
    cols = list(table.column_names)
    if config.label_column not in cols:
        raise DataError(f"label column {config.label_column!r} not found")
    dropped_cols = tuple(c for c in config.drop_columns if c in cols)
    col_idx = {c: i for i, c in enumerate(cols)}
    feature_cols = [c for c in cols
                    if c not in dropped_cols and c != config.label_column]

    label_i = col_idx[config.label_column]
    missing = set(config.missing_codes)
    kept = [r for r in table.rows if r[label_i] not in missing]
    n_missing = table.n_rows - len(kept)

    outlier_counts = []
    skipped_rules = []
    for rule in config.outlier_rules:
        absent = [c for c, _ in rule.conditions if c not in col_idx]
        if absent:
            skipped_rules.append((rule.name, f"column {absent[0]!r} absent"))
            continue
        # one C-level lookup per row: the tuple of the rule's cells, or the
        # cell itself when the rule has one condition
        get = operator.itemgetter(*(col_idx[c] for c, _ in rule.conditions))
        values = tuple(v for _, v in rule.conditions)
        match = values if len(values) > 1 else values[0]
        before = len(kept)
        kept = [r for r in kept if get(r) != match]
        outlier_counts.append((rule.name, before - len(kept)))

    if not kept:
        raise DataError("all rows dropped during preprocessing")

    def kept_row(j):
        # only for an error message: kept holds the table's own row lists,
        # so the j-th kept row is found in the table by identity
        i = next(i for i, r in enumerate(table.rows) if r is kept[j])
        return table.data_row(i)

    # one cell list at a time: transposing every kept row at once with
    # zip(*kept) saved about 6 ms on 12,000 rows but left 1-2 MB more of
    # heap resident, which raised the process's peak RSS
    columns, names = [], []
    onehot, numeric_cols = [], []
    for c in feature_cols:
        i = col_idx[c]
        cells = [r[i] for r in kept]
        if c in config.categorical_columns:
            cats = sorted(set(cells))
            # one pass over the cells maps each to its category's index, and
            # one comparison builds all the indicator columns as a block
            code = {cat: k for k, cat in enumerate(cats)}
            codes = np.fromiter(map(code.__getitem__, cells), dtype=np.intp,
                                count=len(cells))
            block = (codes[:, None] == np.arange(len(cats))).astype(float)
            group = tuple(f"{c}={cat}" for cat in cats)
            names.extend(group)
            columns.extend(block.T)
            onehot.append((c, group))
        else:
            vals = _parse_numbers(cells, (c,), kept_row)[:, 0]
            names.append(c)
            numeric_cols.append(c)
            columns.append(vals)

    if not columns:
        raise DataError("zero surviving feature columns")
    # before the correlations: one kept row leaves one code, and no degrees
    # of freedom for np.corrcoef, which warns
    labels = tuple(r[label_i] for r in kept)
    codes = sorted(set(labels))
    if len(codes) != 2:
        raise DataError(
            f"label must have exactly two codes after cleaning, found {codes}"
        )
    mat = np.column_stack(columns)

    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.corrcoef(mat.T) if mat.shape[1] > 1 else np.ones((1, 1))
    corr = np.nan_to_num(corr, nan=0.0)

    keep_idx, pruned = [], []  # column 0 is always kept
    for j in range(mat.shape[1]):
        against = next((i for i in keep_idx
                        if abs(corr[i, j]) > config.corr_threshold), None)
        if against is None:
            keep_idx.append(j)
        else:
            pruned.append((names[j], names[against], float(corr[against, j])))

    final_names = tuple(names[j] for j in keep_idx)
    ds = Dataset(
        features=np.ascontiguousarray(mat[:, keep_idx]),
        labels=labels,
        feature_names=final_names,
        label_name=config.label_column,
    )
    report = PreprocessReport(
        input_rows=table.n_rows,
        input_columns=table.column_names,
        dropped_columns=dropped_cols,
        missing_label_rows=n_missing,
        outlier_rows=tuple(outlier_counts),
        skipped_rules=tuple(skipped_rules),
        kept_rows=len(kept),
        onehot=tuple(onehot),
        numeric_columns=tuple(numeric_cols),
        pruned=tuple(pruned),
        feature_names=final_names,
        label_column=config.label_column,
    )
    return ds, report


def save_dataset(ds: Dataset, path):
    """Write a Dataset as CSV: feature columns then the label column.

    Floats are written with repr (shortest round-trip form), so saving and
    reloading reproduces every value bit-exactly.
    """
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(list(ds.feature_names) + [ds.label_name])
        for i in range(ds.n_rows):
            w.writerow([repr(float(v)) for v in ds.features[i]] + [ds.labels[i]])


def feature_matrix(table: RawTable) -> np.ndarray:
    """Parse every column of a raw table as numbers (for unlabeled inputs)."""
    return _parse_numbers(table.rows, table.column_names, table.data_row)


def _parse_numbers(rows, names, data_row=None) -> np.ndarray:
    """Parse a grid of cells, one sequence per data row and one name per
    column (or, for one column, just its cells), as a matrix of finite
    floats.

    numpy parses and rejects the same strings as ``float()``, a block of
    rows at a time; only when it rejects one are the cells parsed one by
    one, in row order, so that the DataError names the first bad cell's
    column and data row: ``data_row(j)`` for ``rows[j]``, by default
    ``j + 1``.  A nan or inf cell raises DataError too.
    """
    data_row = data_row or (lambda j: j + 1)
    shape = (len(rows), len(names))
    X = np.empty(shape)
    try:
        for start in range(0, shape[0], _PARSE_ROWS):
            part = rows[start:start + _PARSE_ROWS]
            X[start:start + len(part)] = np.array(
                part, dtype=float).reshape(len(part), shape[1])
    except ValueError:
        for (j, k), v in np.ndenumerate(
                np.array(rows, dtype=object).reshape(shape)):
            try:
                X[j, k] = float(v)
            except ValueError:
                raise DataError(
                    f"column {names[k]!r}, data row {data_row(j)}: "
                    f"cannot parse {v!r} as a number"
                ) from None
    reject_non_finite(X, names, data_row)
    return X


def reject_non_finite(X: np.ndarray, names, data_row=None) -> None:
    """Raise DataError naming the first nan/inf cell's column and data row
    (``data_row(j)`` for row j of X, by default ``j + 1``)."""
    if not np.isfinite(X).all():
        j, k = np.argwhere(~np.isfinite(X))[0]
        row = data_row(j) if data_row else j + 1
        raise DataError(f"column {names[k]!r}, data row {row}: non-finite value")
