"""End-to-end command-line tests, run in-process through cli.main."""

import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from it2fis.cli import main
from it2fis.config import load_config
from it2fis.errors import DataError

CONFIG = """\
label_column = icu
categorical_columns = sex, cond
corr_threshold = 0.95
c_max = 3
selection_seeds = 2
cluster_scan_subsample = 0
epochs = 12
learning_rate = 0.5
threshold_sweep = 51
"""


def write_raw(path, n=170, seed=42):
    rng = np.random.default_rng(seed)
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["sex", "age", "cond", "marker", "icu"])
        for i in range(n):
            age = rng.uniform(20.0, 90.0)
            marker = rng.normal(10.0, 3.0)
            risk = (age - 55.0) / 12.0 + (marker - 10.0) / 2.5
            icu = "1" if risk + rng.normal() * 0.6 > 0.8 else "2"
            if i % 41 == 40:
                icu = "97"  # sprinkle a few missing labels
            w.writerow([rng.integers(1, 3), f"{age:.1f}",
                        rng.choice([1, 2, 97]), f"{marker:.2f}", icu])


def read_kv(path):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return dict(line.split("=", 1) for line in lines if line)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One trained model + preprocessed dataset shared by the tests below."""
    root = tmp_path_factory.mktemp("cli")
    raw = root / "raw.csv"
    write_raw(raw)
    cfg = root / "run.cfg"
    cfg.write_text(CONFIG, encoding="utf-8")

    model = root / "fit.model"
    assert main(["--seed", "3", "--config", str(cfg),
                 "train", str(raw), "-o", str(model)]) == 0

    dataset = root / "clean.csv"
    assert main(["--config", str(cfg),
                 "preprocess", str(raw), "-o", str(dataset)]) == 0

    # features-only CSV for `predict`: the dataset minus its label column
    features = root / "features.csv"
    with open(dataset, encoding="utf-8") as f:
        rows = list(csv.reader(f))
    li = rows[0].index("icu")
    with open(features, "w", newline="", encoding="utf-8") as f:
        csv.writer(f, lineterminator="\n").writerows(
            [r[:li] + r[li + 1:] for r in rows])
    return {"root": root, "raw": raw, "cfg": cfg, "model": model,
            "dataset": dataset, "features": features}


def test_train_output_files(workdir):
    doc = json.loads(workdir["model"].read_text(encoding="utf-8"))
    assert doc["kind"] == "interval-type-2"
    assert doc["format_version"] == 1
    prov = doc["provenance"]
    assert prov["global_seed"] == "3"
    assert len(prov["data_sha1"]) == 40

    trace = Path(str(workdir["model"]) + ".trace.txt").read_text(
        encoding="utf-8")
    assert "t1 epoch 0: error=" in trace
    assert "it2 best epoch:" in trace
    assert "np.float64" not in trace  # plain reprs only


def test_train_is_deterministic_per_seed(workdir, tmp_path):
    args = ["--seed", "3", "--config", str(workdir["cfg"]),
            "train", str(workdir["raw"])]
    m1, m2 = tmp_path / "a.model", tmp_path / "b.model"
    assert main(args + ["-o", str(m1)]) == 0
    assert main(args + ["-o", str(m2)]) == 0
    assert m1.read_bytes() == m2.read_bytes()


def _train_fresh(root, capsys, *train_flags):
    """Write the raw CSV and config into `root` and train from them there."""
    root.mkdir(parents=True)
    write_raw(root / "raw.csv")
    (root / "run.cfg").write_text(CONFIG, encoding="utf-8")
    model = root / "fit.model"
    assert main(["--seed", "3", "--config", str(root / "run.cfg"),
                 "train", str(root / "raw.csv"), "-o", str(model),
                 *train_flags]) == 0
    return model, capsys.readouterr().out


def test_model_bytes_do_not_depend_on_the_input_directory(tmp_path, capsys):
    m1, _ = _train_fresh(tmp_path / "a", capsys)
    m2, _ = _train_fresh(tmp_path / "b" / "deeper", capsys)
    assert m1.read_bytes() == m2.read_bytes()
    prov = json.loads(m1.read_text(encoding="utf-8"))["provenance"]
    assert prov["trained_on"] == "raw.csv"


# SHA-256 of the model trained by the test below, recorded with numpy 2.4 on
# x86-64; a change that moves it changes training and must say why
GOLDEN_MODEL_SHA256 = (
    "a85a471908b2f05ebcd10f82d12c9a1cabdffe30f8f17478b1858c050feb3448")


def test_train_golden_model_hash(tmp_path, capsys):
    model, out = _train_fresh(tmp_path / "golden", capsys)
    assert "scan runs: 4, 109 iterations, 4 converged, " in out
    digest = hashlib.sha256(model.read_bytes()).hexdigest()
    assert digest == GOLDEN_MODEL_SHA256


# the same for a type-1-only train of the same input: it pins the type-1
# scoring path and the model file's inference block
GOLDEN_T1_MODEL_SHA256 = (
    "11bae62875d3336ceff0ab0ecfeee6003760369104287c3b5960d05958d85dd7")


def test_train_type1_only_golden_model_hash(tmp_path, capsys):
    model, _ = _train_fresh(tmp_path / "golden", capsys, "--type1-only")
    digest = hashlib.sha256(model.read_bytes()).hexdigest()
    assert digest == GOLDEN_T1_MODEL_SHA256


def test_train_type1_only(workdir, tmp_path, capsys):
    out = tmp_path / "t1.model"
    rc = main(["--seed", "3", "--config", str(workdir["cfg"]), "train",
               str(workdir["raw"]), "-o", str(out), "--type1-only"])
    assert rc == 0
    assert "trained type-1 model" in capsys.readouterr().out
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["kind"] == "type-1"
    ant = doc["rules"][0]["antecedents"][0]
    assert ant["sigma_lower"] == ant["sigma_upper"]


def test_preprocess_report(workdir):
    report = Path(str(workdir["dataset"]) + ".report.txt").read_text(
        encoding="utf-8")
    assert "input rows: 170" in report
    assert "rows dropped for missing label: 4" in report
    with open(workdir["dataset"], encoding="utf-8") as f:
        header = f.readline().strip()
    assert header.split(",")[-1] == "icu"
    assert "sex=1" in header  # one-hot names carry their category


def test_predict_writes_one_row_per_input(workdir, tmp_path, capsys):
    out = tmp_path / "pred.csv"
    rc = main(["predict", str(workdir["model"]), str(workdir["features"]),
               "-o", str(out)])
    assert rc == 0
    with open(out, encoding="utf-8") as f:
        rows = list(csv.reader(f))
    assert rows[0] == ["row", "crisp", "y_l", "y_r", "label", "flagged"]
    assert len(rows) - 1 == 166  # 170 raw minus 4 missing-label rows
    labels = {r[4] for r in rows[1:]}
    assert labels <= {"1", "2"}
    crisp = [float(r[1]) for r in rows[1:]]
    assert all(np.isfinite(crisp))
    assert f"wrote {len(rows) - 1} predictions" in capsys.readouterr().out


def test_predict_header_only_input(workdir, tmp_path):
    with open(workdir["features"], encoding="utf-8") as f:
        header = f.readline()
    empty = tmp_path / "empty.csv"
    empty.write_text(header, encoding="utf-8")
    out = tmp_path / "pred.csv"
    assert main(["predict", str(workdir["model"]), str(empty),
                 "-o", str(out)]) == 0
    assert out.read_text(encoding="utf-8").splitlines() == [
        "row,crisp,y_l,y_r,label,flagged"]


def test_predict_feature_count_mismatch(workdir, tmp_path, capsys):
    with open(workdir["features"], encoding="utf-8") as f:
        rows = list(csv.reader(f))
    short = tmp_path / "short.csv"
    with open(short, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows([r[:-1] for r in rows])
    n = len(rows[0])
    rc = main(["predict", str(workdir["model"]), str(short),
               "-o", str(tmp_path / "x.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"feature-count mismatch: expected {n}, got {n - 1}" in err


def test_predict_rejects_non_finite_cells(workdir, tmp_path, capsys):
    with open(workdir["features"], encoding="utf-8") as f:
        rows = list(csv.reader(f))
    rows[3][1] = "nan"
    bad = tmp_path / "nan.csv"
    with open(bad, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows(rows)
    out = tmp_path / "pred.csv"
    rc = main(["predict", str(workdir["model"]), str(bad), "-o", str(out)])
    assert rc == 2
    assert (f"data error: [parse_features] column {rows[0][1]!r}, data row 3: "
            "non-finite value") in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_split_report(workdir, tmp_path, capsys):
    prefix = tmp_path / "report"
    rc = main(["--seed", "3", "--config", str(workdir["cfg"]), "evaluate",
               str(workdir["model"]), str(workdir["raw"]),
               "-o", str(prefix)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "== type2 ==" in out
    assert "always-majority baseline accuracy" in out
    kv = read_kv(str(prefix) + ".kv")
    assert float(kv["type2.accuracy"]) > 0.6  # clearly better than chance
    assert int(kv["type2.n_test"]) == 50  # round(0.3 * 166)
    assert (prefix.with_suffix(".txt")).exists()


def test_evaluate_baselines(workdir, tmp_path):
    prefix = tmp_path / "base"
    rc = main(["--seed", "3", "--config", str(workdir["cfg"]), "evaluate",
               str(workdir["model"]), str(workdir["raw"]),
               "-o", str(prefix), "--baselines"])
    assert rc == 0
    kv = read_kv(str(prefix) + ".kv")
    for name in ("type2", "nb", "knn"):
        assert 0.0 <= float(kv[f"{name}.accuracy"]) <= 1.0
        assert kv[f"{name}.n_test"] == kv["type2.n_test"]


def test_evaluate_test_only_scores_every_row(workdir, tmp_path):
    prefix = tmp_path / "full"
    rc = main(["--config", str(workdir["cfg"]), "evaluate",
               str(workdir["model"]), str(workdir["raw"]),
               "-o", str(prefix), "--test-only"])
    assert rc == 0
    assert int(read_kv(str(prefix) + ".kv")["type2.n_test"]) == 166


def test_evaluate_baselines_need_a_train_share(workdir, capsys):
    rc = main(["--config", str(workdir["cfg"]), "evaluate",
               str(workdir["model"]), str(workdir["raw"]),
               "--baselines", "--test-only"])
    assert rc == 2
    assert "cannot combine with --test-only" in capsys.readouterr().err


def test_inspect_model(workdir, capsys):
    assert main(["inspect-model", str(workdir["model"])]) == 0
    out = capsys.readouterr().out
    doc = json.loads(workdir["model"].read_text(encoding="utf-8"))
    threshold = doc["inference"]["threshold"]
    assert isinstance(threshold, float)
    assert f"inference: tnorm=product threshold={threshold!r}\n" in out
    assert "kind: interval-type-2" in out
    assert "rule 1: consequent mean=" in out
    assert "labels: low=" in out
    assert "provenance trained_on:" in out
    assert "np.float64" not in out


def test_bad_usage_exits_1(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", str(workdir["raw"])])  # missing -o
    assert exc.value.code == 1
    assert "required: -o/--output" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_input_names_the_stage(workdir, tmp_path, capsys):
    rc = main(["--config", str(workdir["cfg"]), "train",
               str(tmp_path / "absent.csv"), "-o", str(tmp_path / "x.model")])
    assert rc == 2
    assert "data error: [load_csv] cannot read" in capsys.readouterr().err


def test_broken_model_exits_3(workdir, tmp_path, capsys):
    bad = tmp_path / "bad.model"
    bad.write_text("{ nope", encoding="utf-8")
    rc = main(["predict", str(bad), str(workdir["features"]),
               "-o", str(tmp_path / "x.csv")])
    assert rc == 3
    assert "model error: [load_model] cannot parse model" in capsys.readouterr().err


def test_unknown_config_key_is_rejected(workdir, tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("epochz = 5\n", encoding="utf-8")
    rc = main(["--config", str(cfg), "train", str(workdir["raw"]),
               "-o", str(tmp_path / "x.model")])
    assert rc == 2
    assert "epochz" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["batch", "defuzzifier", "yager_w",
                                 "aggregation"])
def test_removed_config_keys_are_unknown(workdir, tmp_path, capsys, key):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(CONFIG + f"{key} = x\n", encoding="utf-8")
    rc = main(["--config", str(cfg), "train", str(workdir["raw"]),
               "-o", str(tmp_path / "x.model")])
    assert rc == 2
    assert f"unknown config key {key!r}" in capsys.readouterr().err
    with pytest.raises(DataError, match=f"unknown config key {key!r}"):
        load_config(overrides={key: "x"})


BAD_VALUES = [
    ("train", ["--epochs", "0"], "", "epochs"),
    ("train", ["--lr", "-1"], "", "learning_rate"),
    ("train", [], "patience = 0", "patience"),
    ("train", ["--spread", "1.5"], "", "spread"),
    ("train", ["--ratio", "1.5"], "", "train_ratio"),
    ("train", ["--fuzziness", "1.0"], "", "fuzziness"),
    ("evaluate", ["--baselines"], "knn_k = 0", "knn_k"),
]


@pytest.mark.parametrize("command, flags, config_line, key", BAD_VALUES,
                         ids=[case[-1] for case in BAD_VALUES])
def test_bad_config_value_fails_before_reading_data(
        workdir, tmp_path, capsys, command, flags, config_line, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(CONFIG + config_line + "\n", encoding="utf-8")
    out = tmp_path / "x.out"
    if command == "train":
        args = ["train", str(workdir["raw"]), "-o", str(out)]
    else:
        args = ["evaluate", str(workdir["model"]), str(workdir["raw"]),
                "-o", str(out)]
    rc = main(["--config", str(cfg), *args, *flags])
    captured = capsys.readouterr()
    assert rc == 2
    assert f"data error: [load_config] config {key}" in captured.err
    assert "cluster scan" not in captured.out
