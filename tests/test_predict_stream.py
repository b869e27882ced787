"""`predict` reads its input one block of `_PARSE_ROWS` records at a time.

The output must not depend on where the blocks fall, every error must name
the file's data row (the records after the header, blank ones included),
and the memory `predict` holds must not grow with the raw cells of the
whole file.
"""

import csv
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import it2fis
from it2fis.cli import main
from it2fis.inference import predict_batch
from it2fis.model_io import load_bundled_model, save_model
from it2fis.preprocess import _PARSE_ROWS, feature_matrix, load_csv
from it2fis.rules import t1_rule_base

BUNDLED = Path(it2fis.__file__).parent / "icu_admission.model"
NAMES = [f"var{k}" for k in range(1, 28)]


def features(rows, seed=0):
    """Integer cells for the bundled model: an age and 26 flags coded 1/2."""
    rng = np.random.default_rng(seed)
    return np.column_stack([rng.integers(0, 101, rows),
                            rng.integers(1, 3, (rows, 26))])


def write_records(path, header, records):
    """One line per record; "" is a blank record."""
    path.write_text("\n".join([",".join(header), *records]) + "\n",
                    encoding="utf-8")
    return path


def records_of(X):
    return [",".join(map(str, row)) for row in X.tolist()]


def expected_output(X):
    """The predict CSV of one whole-matrix predict_batch over X."""
    bp = predict_batch(load_bundled_model(), X)
    lines = ["row,crisp,y_l,y_r,label,flagged"]
    for i in range(X.shape[0]):
        lines.append(f"{i},{float(bp.crisp[i])!r},{float(bp.y_l[i])!r},"
                     f"{float(bp.y_r[i])!r},{bp.labels[i]},"
                     f"{'true' if bp.flagged[i] else 'false'}")
    return "\n".join(lines) + "\n"


def head_rows(path):
    """The body rows as every earlier load_csv gave them: each non-blank
    record after the header, cells verbatim."""
    with open(path, newline="", encoding="utf-8-sig") as f:
        return [row for row in list(csv.reader(f))[1:] if row]


def predict(path, out, capsys):
    rc = main(["predict", str(BUNDLED), str(path), "-o", str(out)])
    return rc, capsys.readouterr().err


def test_block_edges_leave_the_output_unchanged(tmp_path, capsys):
    X = features(5000)
    path = write_records(tmp_path / "f.csv", NAMES, records_of(X))
    out = tmp_path / "pred.csv"
    assert predict(path, out, capsys) == (0, "")
    assert out.read_bytes() == expected_output(X).encode()
    assert load_csv(path).rows == head_rows(path)


@pytest.mark.parametrize("row", [_PARSE_ROWS, _PARSE_ROWS + 1,
                                 2 * _PARSE_ROWS + 1])
def test_a_bad_cell_is_named_by_its_data_row(tmp_path, capsys, row):
    records = records_of(features(5000))
    cells = records[row - 1].split(",")
    cells[4] = "x"
    records[row - 1] = ",".join(cells)
    path = write_records(tmp_path / "f.csv", NAMES, records)
    out = tmp_path / "pred.csv"
    message = f"column 'var5', data row {row}: cannot parse 'x' as a number"
    assert predict(path, out, capsys) == (
        2, f"data error: [parse_features] {message}\n")
    assert not out.exists()
    with pytest.raises(it2fis.DataError, match=f"^{message}$"):
        feature_matrix(load_csv(path))


def test_a_width_error_in_the_third_block(tmp_path, capsys):
    records = records_of(features(5000))
    records[4499] += ",1"
    path = write_records(tmp_path / "f.csv", NAMES, records)
    out = tmp_path / "pred.csv"
    message = "row 4500 has 28 cells; expected 27"
    assert predict(path, out, capsys) == (
        2, f"data error: [load_csv] {message}\n")
    assert not out.exists()
    with pytest.raises(it2fis.DataError, match=f"^{message}$"):
        load_csv(path)


def test_blank_and_multi_line_records_at_a_block_edge(tmp_path, capsys):
    X = features(5000)
    records = records_of(X)
    # a quoted cell holding a line break, one record over two lines, on
    # either side of the first block edge, and blank records between them
    for i in (_PARSE_ROWS - 2, _PARSE_ROWS + 1):
        cells = records[i].split(",")
        cells[3] = f'"{cells[3]}\n"'
        records[i] = ",".join(cells)
    for i in (_PARSE_ROWS + 1, _PARSE_ROWS, _PARSE_ROWS - 1, 3):
        records.insert(i, "")
    path = write_records(tmp_path / "f.csv", NAMES, records)
    out = tmp_path / "pred.csv"
    assert predict(path, out, capsys) == (0, "")
    assert out.read_bytes() == expected_output(X).encode()
    assert load_csv(path).rows == head_rows(path)

    # the data row counts records, blank ones included, not lines
    row = next(i + 1 for i in range(_PARSE_ROWS, len(records))
               if records[i] and '"' not in records[i])
    cells = records[row - 1].split(",")
    cells[1] = "y"
    records[row - 1] = ",".join(cells)
    write_records(path, NAMES, records)
    message = f"column 'var2', data row {row}: cannot parse 'y' as a number"
    assert predict(path, out, capsys) == (
        2, f"data error: [parse_features] {message}\n")
    with pytest.raises(it2fis.DataError, match=f"^{message}$"):
        feature_matrix(load_csv(path))


def test_the_header_is_checked_before_any_body_row(tmp_path, capsys):
    # a row of the wrong width and a bad cell, both in the first block
    records = records_of(features(10))
    records[0] += ",1"
    records[1] = "x" + records[1]
    header = ["age", *NAMES[1:]]
    path = write_records(tmp_path / "f.csv", header, records)
    out = tmp_path / "pred.csv"
    assert predict(path, out, capsys) == (
        2, "data error: [parse_features] feature mismatch at column 1: "
           "model expects 'var1', data has 'age'\n")
    assert not out.exists()


def test_predict_names_the_data_row_after_a_blank_one(tmp_path, capsys):
    rb = t1_rule_base(np.zeros((2, 2)), np.ones((2, 2)), np.array([1.0, 2.0]),
                      np.array([0.3, 0.3]), variable_names=("a", "b"),
                      label_low="1", label_high="2")
    model = tmp_path / "ab.model"
    save_model(rb, model)
    out = tmp_path / "pred.csv"
    bad = tmp_path / "bad.csv"
    bad.write_text("a,b\n1,2\n\n3,4\n5,x\n", encoding="utf-8")
    assert main(["predict", str(model), str(bad), "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        "data error: [parse_features] column 'b', data row 4: "
        "cannot parse 'x' as a number\n")
    wide = tmp_path / "wide.csv"
    wide.write_text("a,b\n1,2\n\n3,4,5\n", encoding="utf-8")
    assert main(["predict", str(model), str(wide), "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        "data error: [load_csv] row 3 has 3 cells; expected 2\n")
    assert not out.exists()


def test_preprocess_names_the_data_row_before_dropped_rows(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("categorical_columns=sex,cond\ndrop_columns=\n",
                   encoding="utf-8")
    rows = [["1", "1", "30", "1"], ["2", "1", "31", "97"],
            ["1", "2", "32", "97"], ["2", "2", "33", "2"],
            ["1", "1", "34", "1"], ["2", "1", "35", "2"],
            ["1", "2", "36", "1"], ["2", "2", "4x", "2"],
            ["1", "1", "38", "1"]]
    raw = write_records(tmp_path / "raw.csv", ["sex", "cond", "age", "icu"],
                        [",".join(r) for r in rows])
    rc = main(["--config", str(cfg), "preprocess", str(raw),
               "-o", str(tmp_path / "clean.csv")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "data error: [preprocess] column 'age', data row 8: "
        "cannot parse '4x' as a number\n")


def _traced_peak(path, out):
    tracemalloc.start()
    try:
        assert main(["predict", str(BUNDLED), str(path), "-o", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_memory_does_not_grow_with_the_raw_cells(tmp_path, capsys):
    # holding every raw cell of the file, as predict did before it read in
    # blocks, costs about 830 traced bytes per row at 27 features; the
    # scores it keeps are about 35
    peaks = {}
    for rows in (4000, 16000):
        path = write_records(tmp_path / f"f{rows}.csv", NAMES,
                             records_of(features(rows)))
        peaks[rows] = _traced_peak(path, tmp_path / "pred.csv")
    capsys.readouterr()
    slope = (peaks[16000] - peaks[4000]) / 12000
    assert slope < 100, f"{slope:.0f} traced bytes per scored row"
