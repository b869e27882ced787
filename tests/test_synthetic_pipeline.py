"""Synthetic pipeline smoke: `train` and `evaluate --baselines` through
`cli.main` on a few thousand rows of the benchmark's seeded covid twin.

No accuracy bands (the synthetic label is not the real one); the checks are
the exit codes, criterion 8's confusion and majority accounting in the
`.kv` report, that the scan's SQUAREM steps leave the selected cluster
count as plain steps leave it, and that its settled-objective stop leaves
the count and the model file as they are without it.
"""

import importlib
import pathlib
import re
import sys

import pytest

from it2fis import clustering
from it2fis.cli import main

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
ROWS = 3000


@pytest.fixture(scope="module")
def synth_covid():
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("synth_covid")
    finally:
        sys.path.remove(str(PERFBENCH))


def _train(raw, model, seed, capsys):
    """Train; return the selected count and the scan's FCM iterations."""
    assert main(["--seed", str(seed), "train", str(raw), "-o",
                 str(model)]) == 0
    out = capsys.readouterr().out
    return (int(re.search(r"-> c=(\d+)", out).group(1)),
            int(re.search(r"scan runs: \d+, (\d+) iterations", out).group(1)))


def _read_kv(path):
    with open(path, encoding="utf-8") as f:
        return dict(line.split("=", 1) for line in f.read().splitlines()
                    if line)


@pytest.mark.parametrize("seed", [0, 1])
def test_synthetic_train_and_evaluate(synth_covid, seed, tmp_path, capsys,
                                      monkeypatch):
    raw = tmp_path / "raw.csv"
    synth_covid.write_csv(raw, synth_covid.generate(ROWS, seed))
    model = tmp_path / "fit.model"
    selected, iters = _train(raw, model, seed, capsys)
    assert 2 <= selected <= 10

    report = tmp_path / "report"
    assert main(["--seed", str(seed), "evaluate", str(model), str(raw),
                 "-o", str(report), "--baselines"]) == 0
    kv = _read_kv(f"{report}.kv")
    for name in ("type2", "nb", "knn"):
        tp, fn, fp, tn, n = (int(kv[f"{name}.{k}"])
                             for k in ("tp", "fn", "fp", "tn", "n_test"))
        assert n > 0 and tp + fn + fp + tn == n
        assert float(kv[f"{name}.majority_accuracy"]) == pytest.approx(
            max(tp + fn, fp + tn) / n, abs=1e-12)
        assert float(kv[f"{name}.accuracy"]) == pytest.approx(
            (tp + tn) / n, abs=1e-12)

    # with plain steps in place of SQUAREM's the scan runs longer but picks
    # the same count (extract_rules' FCM then takes plain steps too and
    # stops at another point within its tolerance, so the model differs)
    with monkeypatch.context() as patch:
        patch.setattr(clustering, "_extrapolate", lambda v0, v1, v2: None)
        plain_selected, plain_iters = _train(raw, tmp_path / "plain.model",
                                             seed, capsys)
    assert plain_selected == selected and plain_iters > iters

    # without the settled-objective stop the scan runs longer but picks the
    # same count, so extract_rules and the model file do not change
    monkeypatch.setattr(clustering, "SETTLE_RTOL", 0.0)
    free = tmp_path / "free.model"
    free_selected, free_iters = _train(raw, free, seed, capsys)
    assert free_selected == selected and free_iters > iters
    assert free.read_bytes() == model.read_bytes()
