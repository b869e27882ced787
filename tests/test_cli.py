"""End-to-end command-line tests, run in-process through cli.main."""

import argparse
import builtins
import csv
import hashlib
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

from it2fis import cli
from it2fis.cli import main
from it2fis.config import DEFAULTS, Config, load_config, preprocess_config
from it2fis.errors import DataError
from it2fis.evaluation import split, take
from it2fis.inference import BatchPredictions
from it2fis.learning import encode_labels
from it2fis.preprocess import load_csv, preprocess

README = Path(__file__).resolve().parents[1] / "README.md"

CONFIG = """\
label_column = icu
categorical_columns = sex, cond
corr_threshold = 0.95
c_max = 3
selection_seeds = 2
cluster_scan_subsample = 0
epochs = 12
learning_rate = 0.5
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


def unread(*args, **kwargs):
    raise AssertionError("an input was read")


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
    # the line formats README documents, one line per epoch then the best
    for line in trace.splitlines():
        assert re.fullmatch(r"(t1|it2) (epoch \d+: error=\S+|best epoch: \d+)",
                            line), line


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
# x86-64; a change that moves it changes training and must say why.  Last
# moved when provenance data_sha1 became the digest of the cleaned rows
# instead of the input file's bytes: that value is the only byte change
GOLDEN_MODEL_SHA256 = (
    "d9d57c2d5196fdeeb140792ccb3cae9057c0a10c4c96b69178b3a6e3e39e2aba")


def test_train_golden_model_hash(tmp_path, capsys):
    model, out = _train_fresh(tmp_path / "golden", capsys)
    # the scan's runs stop once their objectives settle and take SQUAREM
    # steps: 109 iterations before the stop, 78 before SQUAREM, and the
    # same selected count each time
    assert "scan runs: 4, 54 iterations, 4 converged, " in out
    digest = hashlib.sha256(model.read_bytes()).hexdigest()
    assert digest == GOLDEN_MODEL_SHA256


# the same for a type-1-only train of the same input: it pins the type-1
# scoring path and the model file's inference block
GOLDEN_T1_MODEL_SHA256 = (
    "54080d980a4d14f1def22041a2b385909c4abc68d2c005d8de3452eeb99116bd")


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
    assert (f"data error: [parse_features] feature-count mismatch: "
            f"expected {n}, got {n - 1}") in err


def test_predict_names_the_first_swapped_feature(workdir, tmp_path, capsys):
    # the same columns in another order must not be scored
    with open(workdir["features"], encoding="utf-8") as f:
        rows = list(csv.reader(f))
    header = rows[0]
    header[1], header[3] = header[3], header[1]
    swapped = tmp_path / "swapped.csv"
    with open(swapped, "w", newline="", encoding="utf-8") as f:
        csv.writer(f).writerows(rows)
    out = tmp_path / "pred.csv"
    rc = main(["predict", str(workdir["model"]), str(swapped), "-o", str(out)])
    assert rc == 2
    assert (f"data error: [parse_features] feature mismatch at column 2: "
            f"model expects {header[3]!r}, data has {header[1]!r}"
            ) in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_feature_count_mismatch_names_the_stage(workdir, tmp_path,
                                                         capsys):
    # a model one input short of the cleaned data
    doc = json.loads(workdir["model"].read_text(encoding="utf-8"))
    doc["variable_names"].pop()
    for rule in doc["rules"]:
        rule["antecedents"].pop()
    short = tmp_path / "short.model"
    short.write_text(json.dumps(doc), encoding="utf-8")
    n = len(doc["variable_names"])
    rc = main(["--config", str(workdir["cfg"]), "evaluate", str(short),
               str(workdir["raw"])])
    assert rc == 2
    assert (f"data error: [preprocess] feature-count mismatch: "
            f"expected {n}, got {n + 1}") in capsys.readouterr().err


def test_evaluate_names_the_first_renamed_feature(workdir, tmp_path, capsys):
    # the same feature count with other columns must not be scored
    doc = json.loads(workdir["model"].read_text(encoding="utf-8"))
    names = doc["variable_names"]
    original = names[2]
    names[2], names[4] = "renamed", "also_renamed"
    renamed = tmp_path / "renamed.model"
    renamed.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["--config", str(workdir["cfg"]), "evaluate", str(renamed),
               str(workdir["raw"])])
    assert rc == 2
    assert (f"data error: [preprocess] feature mismatch at column 3: model "
            f"expects 'renamed', data has {original!r}"
            ) in capsys.readouterr().err


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
    # a file the model was not trained on: the training file is refused
    other = tmp_path / "other.csv"
    write_raw(other, seed=43)
    prefix = tmp_path / "full"
    rc = main(["--config", str(workdir["cfg"]), "evaluate",
               str(workdir["model"]), str(other),
               "-o", str(prefix), "--test-only"])
    assert rc == 0
    assert int(read_kv(str(prefix) + ".kv")["type2.n_test"]) == 166


REFUSALS = {
    "seed": ("0", [], "the model was trained on these rows with global_seed "
                      "3; a split with 0 would score rows it was trained on"),
    "ratio": ("3", ["--ratio", "0.6"],
              "the model was trained on these rows with train_ratio 0.7; "
              "a split with 0.6 would score rows it was trained on"),
    "test_only": ("3", ["--test-only"],
                  "--test-only would score every one of these rows, and this "
                  "model was trained on a share of them"),
}


@pytest.mark.parametrize("data, seed, flags, message", [
    (data, *REFUSALS[case]) for data in ("raw", "dataset") for case in REFUSALS
], ids=[case + suffix for suffix in ("", "_cleaned") for case in REFUSALS])
def test_evaluate_refuses_the_training_rows(workdir, capsys, data, seed, flags,
                                            message):
    # the input holds the model's training rows (its data_sha1 digests the
    # cleaned rows), as the raw file or as preprocess wrote it: another split
    # of them would score rows the model was fitted to
    rc = main(["--seed", seed, "--config", str(workdir["cfg"]), "evaluate",
               str(workdir["model"]), str(workdir[data]), *flags])
    assert rc == 2
    assert capsys.readouterr().err == f"data error: [split] {message}\n"


def test_train_and_evaluate_read_their_input_once(workdir, tmp_path,
                                                  monkeypatch):
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    raw, cfg = str(workdir["raw"]), str(workdir["cfg"])
    model = str(tmp_path / "fit.model")
    assert main(["--seed", "3", "--config", cfg, "train", raw,
                 "-o", model]) == 0
    assert opened.count(raw) == 1
    opened.clear()
    # the model's own split of its training rows: the rows are checked, and
    # not read a second time for that
    assert main(["--seed", "3", "--config", cfg, "evaluate", model, raw]) == 0
    assert opened.count(raw) == 1


def test_evaluate_names_an_unparsable_provenance_value(workdir, tmp_path,
                                                       capsys):
    doc = json.loads(workdir["model"].read_text(encoding="utf-8"))
    doc["provenance"]["global_seed"] = "three"
    bad = tmp_path / "bad.model"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["--seed", "3", "--config", str(workdir["cfg"]), "evaluate",
               str(bad), str(workdir["raw"])])
    assert rc == 3
    assert ("model error: [split] provenance global_seed 'three' does not "
            "parse as int") in capsys.readouterr().err


def test_evaluate_splits_another_file_with_any_seed(workdir, tmp_path):
    other = tmp_path / "other.csv"
    write_raw(other, seed=43)
    prefix = tmp_path / "other"
    rc = main(["--seed", "0", "--config", str(workdir["cfg"]), "evaluate",
               str(workdir["model"]), str(other), "-o", str(prefix)])
    assert rc == 0
    assert int(read_kv(str(prefix) + ".kv")["type2.n_test"]) == 50


def test_evaluate_baselines_need_a_train_share(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(workdir["cfg"]), "evaluate",
              str(workdir["model"]), str(workdir["raw"]),
              "--baselines", "--test-only"])
    assert exc.value.code == 1
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


def test_bad_usage_exits_1(workdir, capsys, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["train", str(workdir["raw"])])  # missing -o
    assert exc.value.code == 1
    assert "required: -o/--output" in capsys.readouterr().err
    # a negative seed fails before any input is read, not in the split
    for stage in ("load_csv", "load_model"):
        monkeypatch.setattr(cli, stage, unread)
    for argv in (["train", str(workdir["raw"]), "-o", "x.model"],
                 ["evaluate", str(workdir["model"]), str(workdir["raw"])]):
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "-1", *argv])
        assert exc.value.code == 1
        assert ("error: argument --seed: must be >= 0, not -1"
                in capsys.readouterr().err)
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:  # a removed flag
        main(["train", str(workdir["raw"]), "-o", "x.model",
              "--fuzziness", "2"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --fuzziness 2" in capsys.readouterr().err


def test_missing_input_names_the_stage(workdir, tmp_path, capsys):
    rc = main(["--config", str(workdir["cfg"]), "train",
               str(tmp_path / "absent.csv"), "-o", str(tmp_path / "x.model")])
    assert rc == 2
    assert "data error: [load_csv] cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["preprocess", "{raw}"], ["train", "{raw}"],
    ["predict", "{model}", "{features}"], ["evaluate", "{model}", "{raw}"]],
    ids=lambda command: command[0])
def test_missing_output_directory_fails_before_reading(
        workdir, tmp_path, capsys, monkeypatch, command):
    for stage in ("load_csv", "csv_blocks", "load_model"):
        monkeypatch.setattr(cli, stage, unread)
    missing = tmp_path / "missing"
    rc = main(["--config", str(workdir["cfg"]),
               *[arg.format(**workdir) for arg in command],
               "-o", str(missing / "out")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert f"no such directory {missing}\n" in err
    assert "cluster scan" not in out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command, stage, suffix", [
    (["preprocess", "{raw}"], "save_dataset", ""),
    (["train", "{raw}"], "save_model", ""),
    (["predict", "{model}", "{features}"], "save_predictions", ""),
    (["evaluate", "{model}", "{raw}"], "save_report", ".txt")],
    ids=["preprocess", "train", "predict", "evaluate"])
def test_directory_output_fails_before_reading(
        workdir, tmp_path, capsys, monkeypatch, command, stage, suffix):
    # the file each command writes first is an existing directory: the
    # command stops before it reads an input, not at its write
    for name in ("load_csv", "csv_blocks", "load_model"):
        monkeypatch.setattr(cli, name, unread)
    target = tmp_path / ("out" + suffix)
    target.mkdir()
    rc = main(["--config", str(workdir["cfg"]),
               *[arg.format(**workdir) for arg in command],
               "-o", str(tmp_path / "out")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert err == (f"data error: [{stage}] cannot write {target}: "
                   "Is a directory\n")
    assert "cluster scan" not in out
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []


def test_failed_write_after_the_check_names_the_stage(workdir, tmp_path,
                                                      capsys, monkeypatch):
    # an OSError while writing (here a full disk) is still a data error of
    # the writing stage that names the file
    out = tmp_path / "clean.csv"

    def full_disk(ds, path):
        raise OSError(28, "No space left on device", path)

    monkeypatch.setattr(cli, "save_dataset", full_disk)
    rc = main(["--config", str(workdir["cfg"]), "preprocess",
               str(workdir["raw"]), "-o", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"data error: [save_dataset] cannot write {out}: "
        "No space left on device\n")


def test_failed_write_names_the_stage_and_the_file(workdir, tmp_path,
                                                   capsys):
    # the directory exists, but the output path is itself a directory
    rc = main(["predict", str(workdir["model"]), str(workdir["features"]),
               "-o", str(tmp_path)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"data error: [save_predictions] cannot write {tmp_path}: "
        "Is a directory\n")


def test_broken_model_exits_3(workdir, tmp_path, capsys):
    huge = json.loads(workdir["model"].read_text(encoding="utf-8"))
    huge["rules"][0]["antecedents"][0]["mean"] = 10 ** 400
    name = huge["variable_names"][0]
    # finite consequent means whose scores overflow: predict used to exit 0
    # with crisp=inf
    overflow = json.loads(workdir["model"].read_text(encoding="utf-8"))
    for rule, mean in zip(overflow["rules"], (1.0e308, 1.2e308, 1.5e308)):
        rule["consequent"]["mean"] = mean
    for text, message in [
            ("{ nope", "cannot parse model"),
            (json.dumps(huge), f"rule 1, {name}: 'mean' is too large"),
            (json.dumps(overflow), "invalid model parameters: rule 1, "
                                   "consequent: mean 1e+308 exceeds")]:
        bad = tmp_path / "bad.model"
        bad.write_text(text, encoding="utf-8")
        rc = main(["predict", str(bad), str(workdir["features"]),
                   "-o", str(tmp_path / "x.csv")])
        assert rc == 3
        assert (f"model error: [load_model] {message}"
                in capsys.readouterr().err)
        assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("path, value, message", [
    (("label",), ["x"], "label block must be a JSON object"),
    (("inference",), ["x"], "inference block must be a JSON object"),
    (("provenance",), ["x"], "provenance block must be a JSON object"),
    (("inference", "threshold"), True,
     "inference.threshold must be a number or null"),
    (("inference", "threshold"), 10 ** 400,
     "inference.threshold is too large for a float"),
    (("rules", 0), ["x"], "rule 1: malformed rule block"),
    (("rules", 0, "antecedents", 0), ["x"],
     "rule 1, {name}: malformed parameter block"),
    (("rules", 0, "consequent"), ["x"],
     "rule 1, consequent: malformed parameter block"),
], ids=["label", "inference", "provenance", "threshold", "huge_threshold",
        "rule", "antecedent", "consequent"])
def test_malformed_model_block_exits_3(workdir, tmp_path, capsys, path,
                                       value, message):
    doc = json.loads(workdir["model"].read_text(encoding="utf-8"))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    bad = tmp_path / "bad.model"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["inspect-model", str(bad)]) == 3
    message = message.format(name=doc["variable_names"][0])
    assert f"model error: [load_model] {message}" in capsys.readouterr().err


def test_unknown_config_key_is_rejected(workdir, tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("epochz = 5\n", encoding="utf-8")
    out = str(tmp_path / "x.out")
    for args in (["preprocess", str(workdir["raw"]), "-o", out],
                 ["train", str(workdir["raw"]), "-o", out],
                 ["evaluate", str(workdir["model"]), str(workdir["raw"])]):
        rc = main(["--config", str(cfg), *args])
        assert rc == 2
        assert ("data error: [load_config] unknown config key 'epochz'"
                in capsys.readouterr().err)


@pytest.mark.parametrize("key", ["batch", "defuzzifier", "yager_w",
                                 "aggregation", "threshold_sweep",
                                 "stratified", "fuzziness", "cluster_tol",
                                 "cluster_max_iter", "gk_regularization",
                                 "knn_k", "nb_alpha"])
def test_removed_config_keys_are_unknown(workdir, tmp_path, capsys, key):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(CONFIG + f"{key} = x\n", encoding="utf-8")
    rc = main(["--config", str(cfg), "train", str(workdir["raw"]),
               "-o", str(tmp_path / "x.model")])
    assert rc == 2
    assert (f"data error: [load_config] unknown config key {key!r}"
            in capsys.readouterr().err)
    with pytest.raises(DataError, match=f"unknown config key {key!r}"):
        load_config(overrides={key: "x"})


def test_every_config_key_is_read_and_documented(workdir, tmp_path,
                                                 monkeypatch):
    """A default key that no command reads is a dead knob, and one that the
    README's config paragraph does not name is a hidden one."""
    read = set()

    def recording(method, keys):
        def wrapper(self, *args):
            read.update(keys(self, *args))
            return method(self, *args)
        return wrapper

    for name in ("get", "get_float", "get_int", "get_list"):
        monkeypatch.setattr(Config, name, recording(
            getattr(Config, name), lambda self, key: [key]))
    monkeypatch.setattr(Config, "outlier_rules", recording(
        Config.outlier_rules,
        lambda self: [k for k in self.values if k.startswith("outlier.")]))
    raw, model = str(workdir["raw"]), str(tmp_path / "fit.model")
    for args in (["preprocess", raw, "-o", str(tmp_path / "clean.csv")],
                 ["train", raw, "-o", model],
                 ["evaluate", model, raw, "--baselines"]):
        assert main(["--seed", "3", "--config", str(workdir["cfg"]),
                     *args]) == 0
    assert read == set(DEFAULTS)

    readme = " ".join(README.read_text(encoding="utf-8").split())
    para = readme[readme.index("Keys cover"):
                  readme.index("`train` and `evaluate` check")]
    # the README names the open-ended outlier keys as one family
    assert set(re.findall(r"`([^`]+)`", para)) == {
        "outlier.<name>" if k.startswith("outlier.") else k for k in DEFAULTS}


def test_train_without_a_finite_train_score_names_the_stage(
        workdir, tmp_path, capsys, monkeypatch):
    def unscored(rb, X):
        nan = np.full(len(X), np.nan)
        return BatchPredictions(crisp=nan, y_l=nan, y_r=nan,
                                labels=[rb.label_low] * len(X),
                                flagged=np.ones(len(X), bool), threshold=0.0)

    monkeypatch.setattr(cli, "predict_batch", unscored)
    out = tmp_path / "x.model"
    rc = main(["--seed", "3", "--config", str(workdir["cfg"]), "train",
               str(workdir["raw"]), "-o", str(out)])
    assert rc == 2
    assert ("data error: [calibrate_threshold] no training row has a "
            "finite crisp score" in capsys.readouterr().err)
    assert not out.exists()


def test_config_flags_are_named_by_their_config_key():
    # _load_config takes every parsed option whose dest is a config key, so
    # a flag under any other dest would be parsed and then ignored
    not_config = {"-o", "--type1-only", "--baselines", "--test-only"}
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    for command in ("preprocess", "train", "evaluate"):
        checked = []
        for action in sub.choices[command]._actions:
            if (not action.option_strings
                    or isinstance(action, argparse._HelpAction)
                    or not_config & set(action.option_strings)):
                continue
            assert action.dest in DEFAULTS, (command, action.option_strings)
            checked.append(action.dest)
        assert "label_column" in checked, command


def test_label_flag_sets_the_label_column(workdir, tmp_path, capsys):
    out = str(tmp_path / "x.out")
    raw = str(workdir["raw"])
    for args in (["preprocess", raw, "-o", out], ["train", raw, "-o", out],
                 ["evaluate", str(workdir["model"]), raw]):
        rc = main(["--config", str(workdir["cfg"]), *args, "--label", "nope"])
        assert rc == 2
        assert ("data error: [preprocess] label column 'nope' not found"
                in capsys.readouterr().err)


BAD_VALUES = [
    ("train", ["--epochs", "0"], "", "epochs"),
    ("train", ["--lr", "-1"], "", "learning_rate"),
    ("train", [], "patience = 0", "patience"),
    ("train", ["--spread", "1.5"], "", "spread"),
    ("train", ["--ratio", "1.5"], "", "train_ratio"),
    ("train", [], "selection_seeds = 0", "selection_seeds"),
    ("train", ["--c-max", "1"], "", "c_max"),
    ("train", [], "cluster_scan_subsample = -5", "cluster_scan_subsample"),
    ("train", ["--corr-threshold", "2"], "", "corr_threshold"),
    ("evaluate", ["--ratio", "0"], "", "train_ratio"),
    # values that do not parse: the whole message after the key
    ("train", [], "epochs = abc", "epochs='abc' is not an integer"),
    ("train", [], "spread = x", "spread='x' is not a number"),
]


@pytest.mark.parametrize("command, flags, config_line, key", BAD_VALUES,
                         ids=[key.split()[0] if command == "train"
                              else f"{command}-{key}"
                              for command, _, _, key in BAD_VALUES])
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


@pytest.mark.parametrize("lr", ["inf", "nan"])
def test_non_finite_learning_rate_fails_before_reading_data(
        workdir, tmp_path, capsys, lr):
    # caught here, an infinite rate cannot reach tuning, whose first
    # gradient step would fail blaming a data row
    rc = main(["--config", str(workdir["cfg"]), "train", str(workdir["raw"]),
               "-o", str(tmp_path / "x.model"), "--lr", lr])
    captured = capsys.readouterr()
    assert rc == 2
    assert ("data error: [load_config] config learning_rate must be finite "
            f"and positive, got {float(lr)!r}" in captured.err)
    assert "cluster scan" not in captured.out


@pytest.mark.parametrize("lr", ["1e200", "1e308"])
def test_diverging_learning_rate_names_the_rate(workdir, tmp_path, capsys, lr):
    # a finite rate this large makes the first step overflow: the run fails
    # in the stage that tuned, names the rate and not a data row, and numpy
    # prints no overflow warnings on the way
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["--config", str(workdir["cfg"]), "train",
                   str(workdir["raw"]), "-o", str(tmp_path / "x.model"),
                   "--lr", lr])
    err = capsys.readouterr().err
    assert rc == 2
    assert ("data error: [tune_t1] the training error stopped being finite "
            f"after a step of learning_rate={float(lr)!r}") in err
    assert "RuntimeWarning" not in err
    assert [w.message for w in caught] == []


def test_config_file_errors_name_the_stage(workdir, tmp_path, capsys):
    no_sep = tmp_path / "no_sep.cfg"
    no_sep.write_text(CONFIG + "epochs 5\n", encoding="utf-8")
    clause = tmp_path / "clause.cfg"
    clause.write_text(CONFIG + "outlier.x = sex\n", encoding="utf-8")
    absent = tmp_path / "absent.cfg"
    out = tmp_path / "x.model"
    line = CONFIG.count("\n") + 1
    for cfg, message in [
            (absent, f"cannot read config {absent}: No such file or directory"),
            (no_sep, f"config {no_sep} line {line}: expected key=value"),
            (clause, "config outlier.x: expected col=value clauses, "
                     "got 'sex'")]:
        rc = main(["--config", str(cfg), "train", str(workdir["raw"]),
                   "-o", str(out)])
        assert rc == 2
        assert (f"data error: [load_config] {message}"
                in capsys.readouterr().err)
        assert not out.exists()

    # an empty value disables a rule, the built-in one included
    raw = tmp_path / "raw.csv"
    raw.write_text("sex,pregnancy,age,icu\n" + "".join(
        f"{1 + i % 2},{1 + i // 2 % 2},{20 + i},{1 + i // 4 % 2}\n"
        for i in range(16)), encoding="utf-8")
    kept = {}
    for extra in ("", "outlier.male_pregnancy =\n"):
        cfg = tmp_path / "outlier.cfg"
        cfg.write_text("label_column = icu\ncategorical_columns = sex\n"
                       + extra, encoding="utf-8")
        dataset = tmp_path / "clean.csv"
        assert main(["--config", str(cfg), "preprocess", str(raw),
                     "-o", str(dataset)]) == 0
        capsys.readouterr()
        kept[extra] = Path(f"{dataset}.report.txt").read_text(encoding="utf-8")
    assert "rows dropped by outlier rule male_pregnancy: 4" in kept[""]
    assert "male_pregnancy" not in kept["outlier.male_pregnancy =\n"]


def test_cluster_scan_subsample_takes_sorted_train_rows(workdir, tmp_path,
                                                        monkeypatch):
    scanned = []
    real = cli.select_cluster_count

    def recording(X, **kw):
        scanned.append(X.copy())
        return real(X, **kw)

    monkeypatch.setattr(cli, "select_cluster_count", recording)

    def scan_rows(cap):
        cfg = tmp_path / "cap.cfg"
        cfg.write_text(CONFIG + f"cluster_scan_subsample = {cap}\n",
                       encoding="utf-8")
        assert main(["--seed", "3", "--config", str(cfg), "train",
                     str(workdir["raw"]), "-o", str(tmp_path / "x.model")]) == 0
        return scanned.pop()

    # the train share's joint (features, encoded label) rows, built as
    # `train` builds them
    cfg = load_config(workdir["cfg"])
    ds, _ = preprocess(load_csv(workdir["raw"]), preprocess_config(cfg))
    train = take(ds, split(ds, cfg.get_float("train_ratio"), seed=3)
                 .train_indices)
    joint = np.column_stack([train.features, encode_labels(train.labels)[0]])
    n = joint.shape[0]
    where = {row.tobytes(): j for j, row in enumerate(joint)}
    assert len(where) == n  # distinct rows: each has one index

    for cap in (0, n, n + 50):
        assert np.array_equal(scan_rows(cap), joint)
    sub = scan_rows(40)
    assert sub.shape == (40, joint.shape[1])
    picked = [where[row.tobytes()] for row in sub]
    assert picked == sorted(set(picked))  # distinct, in the share's order
    assert np.array_equal(scan_rows(40), sub)  # the same for a fixed seed


def test_evaluate_reports_flagged_rows(workdir, tmp_path, capsys,
                                       monkeypatch):
    real = cli.predict_batch

    def overflowing(rb, X):
        # every third row's squared z overflows in every rule, so no rule
        # fires and the engine falls back to the majority label
        X = X.copy()
        X[::3, 0] = 1e180
        return real(rb, X)

    monkeypatch.setattr(cli, "predict_batch", overflowing)
    prefix = tmp_path / "flagged"
    rc = main(["--seed", "3", "--config", str(workdir["cfg"]), "evaluate",
               str(workdir["model"]), str(workdir["raw"]),
               "-o", str(prefix)])
    assert rc == 0
    kv = read_kv(f"{prefix}.kv")
    n_test = int(kv["type2.n_test"])
    flagged = -(-n_test // 3)
    assert flagged > 0
    assert kv["type2.flagged"] == str(flagged)
    line = f"flagged (no-coverage fallback) predictions: {flagged}\n"
    assert line in capsys.readouterr().out
    assert line in Path(f"{prefix}.txt").read_text(encoding="utf-8")
    assert sum(int(kv[f"type2.{k}"]) for k in ("tp", "fn", "fp", "tn")) == n_test
