"""CSV ingestion, cleaning order, one-hot encoding, correlation pruning."""

import csv
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from it2fis.errors import DataError
from it2fis.preprocess import (Dataset, OutlierRule, PreprocessConfig,
                               feature_matrix, load_csv, preprocess,
                               save_dataset)
from it2fis.preprocess import _parse_numbers


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


RAW = """sex,age,pregnancy,icu
1,34,2,1
2,61,97,2
1,45,1,1
2,29,1,2
1,97,2,99
2,50,97,1
"""


def cfg(**kw):
    base = dict(
        label_column="icu",
        corr_threshold=0.85,
        missing_codes=("97", "98", "99", ""),
        drop_columns=(),
        categorical_columns=("sex", "pregnancy"),
        outlier_rules=(OutlierRule("male_pregnancy",
                                   (("sex", "2"), ("pregnancy", "1"))),),
    )
    base.update(kw)
    return PreprocessConfig(**base)


# ---------------------------------------------------------------------------
# load_csv
# ---------------------------------------------------------------------------


def test_load_csv_verbatim_cells(tmp_path):
    path = write(tmp_path, "t.csv", "a,b\n 1,02\nx y,\n")
    table = load_csv(path)
    assert table.column_names == ("a", "b")
    assert table.rows == [[" 1", "02"], ["x y", ""]]


def test_load_csv_skips_blank_lines(tmp_path):
    path = write(tmp_path, "t.csv", "a,b\n1,2\n\n3,4\n")
    assert load_csv(path).n_rows == 2


def test_load_csv_strips_byte_order_mark(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n")
    assert load_csv(str(p)).column_names == ("a", "b")


def test_load_csv_errors(tmp_path):
    with pytest.raises(DataError, match="cannot read"):
        load_csv(str(tmp_path / "missing.csv"))
    with pytest.raises(DataError, match="no header row"):
        load_csv(write(tmp_path, "e.csv", ""))
    with pytest.raises(DataError, match="duplicate column name 'a'"):
        load_csv(write(tmp_path, "d.csv", "a,a\n1,2\n"))
    with pytest.raises(DataError, match="row 2 has 3 cells; expected 2"):
        load_csv(write(tmp_path, "r.csv", "a,b\n1,2\n1,2,3\n"))
    # blank lines count in the row number; the first bad row is named
    with pytest.raises(DataError, match="row 3 has 1 cells; expected 2"):
        load_csv(write(tmp_path, "b.csv", "a,b\n1,2\n\n1\n1,2,3\n"))


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------


def test_preprocess_pipeline_counts(tmp_path):
    table = load_csv(write(tmp_path, "raw.csv", RAW))
    ds, report = preprocess(table, cfg())
    # row 5 has a missing label (99); rows 4 drops as male+pregnant
    assert report.input_rows == 6
    assert report.missing_label_rows == 1
    assert report.outlier_rows == (("male_pregnancy", 1),)
    assert report.kept_rows == 4
    assert report.dropped_rows_total == 2
    assert ds.n_rows == 4
    assert ds.labels == ("1", "2", "1", "1")


def test_preprocess_missing_label_dropped_before_outlier_rules(tmp_path):
    # a row that is both missing-label and outlier-matched counts as missing
    raw = "sex,pregnancy,icu\n2,1,97\n1,2,1\n2,2,2\n1,1,2\n"
    table = load_csv(write(tmp_path, "raw.csv", raw))
    _, report = preprocess(table, cfg())
    assert report.missing_label_rows == 1
    assert report.outlier_rows == (("male_pregnancy", 0),)


def test_preprocess_onehot_sorted_categories(tmp_path):
    table = load_csv(write(tmp_path, "raw.csv", RAW))
    ds, report = preprocess(table, cfg(corr_threshold=1.0, outlier_rules=()))
    onehot = dict(report.onehot)
    assert onehot["pregnancy"] == ("pregnancy=1", "pregnancy=2", "pregnancy=97")
    # each one-hot group sums to one per row
    cols = [i for i, n in enumerate(ds.feature_names)
            if n.startswith("pregnancy=")]
    np.testing.assert_array_equal(ds.features[:, cols].sum(axis=1), 1.0)
    assert report.numeric_columns == ("age",)


def test_preprocess_prunes_later_duplicate_column(tmp_path):
    raw = "a,b,c,icu\n1,1,5,1\n2,2,1,1\n3,3,2,2\n4,4,8,2\n"
    table = load_csv(write(tmp_path, "raw.csv", raw))
    ds, report = preprocess(table, cfg(categorical_columns=(),
                                       outlier_rules=()))
    # b is an exact copy of a: the later column goes, the earlier stays
    assert ds.feature_names == ("a", "c")
    assert len(report.pruned) == 1
    dropped, kept, r = report.pruned[0]
    assert (dropped, kept) == ("b", "a")
    assert abs(r) == pytest.approx(1.0)


def test_preprocess_constant_column_survives_pruning(tmp_path):
    # a constant column has undefined correlation; treated as uncorrelated
    raw = "a,b,icu\n1,7,1\n2,7,1\n3,7,2\n4,7,2\n"
    table = load_csv(write(tmp_path, "raw.csv", raw))
    ds, _ = preprocess(table, cfg(categorical_columns=(), outlier_rules=()))
    assert ds.feature_names == ("a", "b")


def test_preprocess_drop_columns(tmp_path):
    raw = "id,a,icu\n10,1,1\n11,2,1\n12,3,2\n"
    table = load_csv(write(tmp_path, "raw.csv", raw))
    ds, report = preprocess(table, cfg(drop_columns=("id", "ghost"),
                                       categorical_columns=(),
                                       outlier_rules=()))
    assert report.dropped_columns == ("id",)
    assert ds.feature_names == ("a",)


def test_preprocess_skips_rule_with_absent_column(tmp_path):
    raw = "a,icu\n1,1\n2,2\n"
    table = load_csv(write(tmp_path, "raw.csv", raw))
    _, report = preprocess(table, cfg(categorical_columns=()))
    assert report.skipped_rules == (("male_pregnancy", "column 'sex' absent"),)


def test_preprocess_errors(tmp_path):
    t = load_csv(write(tmp_path, "a.csv", "a,icu\nx,1\n1,2\n"))
    with pytest.raises(DataError, match="column 'a', data row 1"):
        preprocess(t, cfg(categorical_columns=(), outlier_rules=()))

    t = load_csv(write(tmp_path, "b.csv", "a,icu\n1,1\n2,1\n"))
    with pytest.raises(DataError, match="exactly two codes"):
        preprocess(t, cfg(categorical_columns=(), outlier_rules=()))

    t = load_csv(write(tmp_path, "c.csv", "a,b\n1,2\n"))
    with pytest.raises(DataError, match="label column 'icu' not found"):
        preprocess(t, cfg(categorical_columns=(), outlier_rules=()))

    t = load_csv(write(tmp_path, "d.csv", "a,icu\n1,97\n2,98\n"))
    with pytest.raises(DataError, match="all rows dropped"):
        preprocess(t, cfg(categorical_columns=(), outlier_rules=()))

    t = load_csv(write(tmp_path, "e.csv", "id,a,icu\n10,1,1\n11,2,2\n"))
    with pytest.raises(DataError, match="^zero surviving feature columns$"):
        preprocess(t, cfg(drop_columns=("id", "a"), categorical_columns=(),
                          outlier_rules=()))


def rowwise_preprocess(table, config):
    """Oracle: the cleaning done one row and one cell at a time, without
    correlation pruning.  Returns (features, labels, names, report fields)
    or raises the DataError preprocess raises.  Errors name the row's data
    row in the file (the table has no blank rows: its index plus one)."""
    file_row = {id(r): i + 1 for i, r in enumerate(table.rows)}
    idx = {c: i for i, c in enumerate(table.column_names)}
    label_i = idx[config.label_column]
    kept = [r for r in table.rows if r[label_i] not in config.missing_codes]
    counts, skipped = [], []
    for rule in config.outlier_rules:
        absent = [c for c, _ in rule.conditions if c not in idx]
        if absent:
            skipped.append((rule.name, f"column {absent[0]!r} absent"))
            continue
        before = len(kept)
        kept = [r for r in kept
                if not all(r[idx[c]] == v for c, v in rule.conditions)]
        counts.append((rule.name, before - len(kept)))
    if not kept:
        raise DataError("all rows dropped during preprocessing")
    feats = [c for c in table.column_names
             if c not in config.drop_columns and c != config.label_column]
    cats = {c: sorted({r[idx[c]] for r in kept})
            for c in feats if c in config.categorical_columns}
    names = [n for c in feats
             for n in ([f"{c}={v}" for v in cats[c]] if c in cats else [c])]
    rows = []
    for r in kept:
        row = []
        for c in feats:
            v = r[idx[c]]
            if c in cats:
                row.extend(float(v == cat) for cat in cats[c])
                continue
            try:
                row.append(float(v))
            except ValueError:
                raise DataError(f"column {c!r}, data row {file_row[id(r)]}: "
                                f"cannot parse {v!r} as a number") from None
        rows.append(row)
    X = np.array(rows).reshape(len(kept), len(names))
    for k, c in enumerate(names):
        bad = np.flatnonzero(~np.isfinite(X[:, k]))
        if bad.size:
            raise DataError(f"column {c!r}, data row "
                            f"{file_row[id(kept[bad[0]])]}: non-finite value")
    labels = tuple(r[label_i] for r in kept)
    if len(set(labels)) != 2:
        raise DataError(f"label must have exactly two codes after cleaning, "
                        f"found {sorted(set(labels))}")
    onehot = tuple((c, tuple(f"{c}={v}" for v in cats[c])) for c in cats)
    numeric = tuple(c for c in feats if c not in cats)
    report = (len(table.rows) - len(kept) - sum(n for _, n in counts),
              tuple(counts), tuple(skipped), len(kept), onehot, numeric)
    return X, labels, tuple(names), report


# label cells with the missing codes; quoted cells with separators, quotes
# and line breaks; an age column with bad and non-finite cells now and then
_ROW = st.tuples(
    st.sampled_from(["1", "2"]),
    st.sampled_from(["1", "2", "97"]),
    st.sampled_from([str(a) for a in range(0, 100, 7)] * 3 + ["90"] * 3
                    + ["x", "1,5", "", "inf"]),
    st.sampled_from(["a,b", 'q"r', "line\nbreak", " s ", "plain"]),
    st.sampled_from(["1.5", "2", "-0", "1e3"]),
    st.sampled_from(["1", "2", "1", "2", "97", "99", ""]),
)
_RULES = {
    "male_pregnancy": (("sex", "2"), ("pregnancy", "1")),
    "old": (("age", "90"),),                      # a single condition
    "ghost": (("sex", "1"), ("ghost", "1")),      # on an absent column
    "quoted": (("note", "a,b"),),
    "none_such": (("note", "never seen"),),
}


@settings(max_examples=150, deadline=None)
@given(rows=st.lists(_ROW, min_size=1, max_size=25),
       rules=st.lists(st.sampled_from(sorted(_RULES)), unique=True))
def test_preprocess_matches_rowwise_oracle(tmp_path_factory, rows, rules):
    path = tmp_path_factory.mktemp("oracle") / "raw.csv"
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["sex", "pregnancy", "age", "note", "weight", "icu"])
        w.writerows(rows)
    table = load_csv(path)
    # "unseen" is listed as categorical but absent from the table
    config = cfg(corr_threshold=1.0, drop_columns=(),
                 categorical_columns=("sex", "pregnancy", "note", "unseen"),
                 outlier_rules=tuple(OutlierRule(r, _RULES[r])
                                     for r in rules))
    try:
        want = rowwise_preprocess(table, config)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            preprocess(table, config)
        assert str(got.value) == str(exc)
        return
    ds, report = preprocess(table, config)
    X, labels, names, fields = want
    assert ds.features.tobytes() == X.tobytes()
    assert (ds.labels, ds.feature_names) == (labels, names)
    assert (report.missing_label_rows, report.outlier_rows,
            report.skipped_rules, report.kept_rows, report.onehot,
            report.numeric_columns) == fields
    assert report.pruned == ()


def test_outlier_rule_needs_a_condition():
    with pytest.raises(ValueError, match="has no conditions"):
        OutlierRule("empty", ())


def test_preprocess_report_text_is_readable(tmp_path):
    table = load_csv(write(tmp_path, "raw.csv", RAW))
    _, report = preprocess(table, cfg())
    text = report.text()
    assert "rows dropped for missing label: 1" in text
    assert "male_pregnancy" in text
    assert text.endswith("label column: icu\n")


def test_preprocess_deterministic(tmp_path):
    table = load_csv(write(tmp_path, "raw.csv", RAW))
    a, ra = preprocess(table, cfg())
    b, rb = preprocess(table, cfg())
    assert np.array_equal(a.features, b.features)
    assert ra == rb


# ---------------------------------------------------------------------------
# dataset round trip
# ---------------------------------------------------------------------------


def test_save_load_roundtrip_bit_exact(tmp_path, rng):
    ds = Dataset(rng.standard_normal((20, 3)) * np.pi,
                 tuple(rng.choice(["1", "2"], 20)),
                 ("f1", "f2", "f3"), label_name="y")
    path = str(tmp_path / "ds.csv")
    save_dataset(ds, path)
    with open(path, newline="", encoding="utf-8") as f:
        header, *rows = csv.reader(f)
    assert header == ["f1", "f2", "f3", "y"]
    back = np.array([[float(v) for v in row[:-1]] for row in rows])
    assert np.array_equal(back, ds.features)  # repr() is lossless
    assert tuple(row[-1] for row in rows) == ds.labels


def test_save_dataset_deterministic_bytes(tmp_path, rng):
    ds = Dataset(rng.standard_normal((5, 2)), ("1", "2", "1", "1", "2"),
                 ("a", "b"))
    p1, p2 = str(tmp_path / "x1.csv"), str(tmp_path / "x2.csv")
    save_dataset(ds, p1)
    save_dataset(ds, p2)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_feature_matrix_parses_or_raises(tmp_path):
    path = write(tmp_path, "f.csv", "a,b\n1,2\n3,4\n")
    X = feature_matrix(load_csv(path))
    np.testing.assert_array_equal(X, [[1.0, 2.0], [3.0, 4.0]])
    bad = write(tmp_path, "g.csv", "a,b\n1,x\n")
    with pytest.raises(DataError, match="column 'b', data row 1"):
        feature_matrix(load_csv(bad))


# strings numpy and float() both parse, with the same bits, or both reject
PARSE_EDGES = ("1_0", " 12 ", "\xa012", "\u0663.\u0665", "infinity",
               "1e-400", "-0", "1e500", "4.9e-324", "9007199254740993",
               "", "0x1p3", "1,5", "1__0", "_1", "1e", " ")


@pytest.mark.parametrize("cell", PARSE_EDGES)
def test_parse_numbers_agrees_with_float(cell):
    grid = [["1", "2"], ["3", cell]]
    try:
        want = float(cell)
    except ValueError:
        want = "cannot parse .* as a number"
    else:
        if not math.isfinite(want):
            want = "non-finite value"
    if isinstance(want, str):
        with pytest.raises(DataError,
                           match=f"^column 'b', data row 2: {want}$"):
            _parse_numbers(grid, ("a", "b"))
        return
    X = _parse_numbers(grid, ("a", "b"))
    assert X.shape == (2, 2)
    assert X[1, 1].tobytes() == np.float64(want).tobytes()


def test_parse_numbers_names_the_first_bad_cell():
    grid = [["1", "2", "3"], ["4", "5", "y"], ["x", "7", "8"]]
    with pytest.raises(DataError, match="^column 'c', data row 2: "
                                        "cannot parse 'y' as a number$"):
        _parse_numbers(grid, ("a", "b", "c"))
    assert _parse_numbers([], ("a", "b")).shape == (0, 2)
    # numpy parses the rows in blocks: a cell past the first block
    rows = [[str(j), repr(j / 7)] for j in range(5000)]
    X = _parse_numbers(rows, ("a", "b"))
    assert X.tolist() == [[float(j), j / 7] for j in range(5000)]
    rows[4321][1] = "1,5"
    with pytest.raises(DataError, match="^column 'b', data row 4322: "):
        _parse_numbers(rows, ("a", "b"))
    # one column given as its cells alone
    assert _parse_numbers(("1", "2.5"), ("a",)).tolist() == [[1.0], [2.5]]


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
def test_feature_matrix_rejects_non_finite_cells(tmp_path, cell):
    path = write(tmp_path, "f.csv", f"a,b\n1,2\n3,{cell}\n")
    with pytest.raises(DataError,
                       match="column 'b', data row 2: non-finite value"):
        feature_matrix(load_csv(path))


def test_dataset_validation(rng):
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), ("1", "2"), ("a", "b"))
    with pytest.raises(ValueError):
        Dataset(np.zeros((3, 2)), ("1", "2", "1"), ("a",))
    with pytest.raises(ValueError):
        Dataset(np.zeros(3), ("1", "2", "1"), ("a",))


def test_preprocess_config_validation():
    with pytest.raises(ValueError):
        PreprocessConfig(corr_threshold=0.0)
    with pytest.raises(ValueError):
        PreprocessConfig(corr_threshold=1.5)
