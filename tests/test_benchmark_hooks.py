"""The package names the benchmark's tracer wraps, checked in tier-1, and
smoke runs of the timing scripts in `benchmarks/`.

`perfbench/layers.py` patches package functions from outside, by module
attribute name, and the scripts in `benchmarks/` call kernels and engine
functions by name.  A kernel that is renamed, removed or inlined into its
caller would only show up as a failing benchmark run; these tests make it
fail here instead.  Each script runs as the README runs it, from this
checkout with no PYTHONPATH, and each record it writes must hold the
shared environment block.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from it2fis import cli, clustering, inference, kernels, learning

from conftest import random_t1_base, two_class_dataset

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"

# the lines bench_kernels.py prints, one per timed kernel or call
KERNEL_LINES = ("sq_distances", "fcm_memberships", "fcm", "log_firing",
                "km_batch", "centre", "t1_epoch", "it2_epoch",
                "t1_epoch_onehot", "it2_epoch_onehot", "topk_select",
                "topk_select_2080", "knn_chunk_exact", "knn_chunk_f64",
                "km_batch_col", "km_batch_2col", "km_batch_32col",
                "predict_row")


def _perfbench_module(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def layers():
    return _perfbench_module("layers")


def test_every_traced_name_exists(layers):
    for name in layers.KERNELS:
        assert callable(getattr(kernels, name)), name
    for layer, names in layers.CLI_IMPORTS.items():
        module = importlib.import_module(f"it2fis.{layer}")
        for name in names:
            # cli binds the stage with `from ... import`, so the tracer must
            # patch cli's own name, which must be the layer's function
            assert getattr(cli, name) is getattr(module, name), name
    assert learning.fcm is clustering.fcm
    assert callable(learning.gk) and callable(inference.predict)

    # the tracer records each tuner's epoch count and best epoch from the
    # trace it returns, by these two field names
    rng = np.random.default_rng(0)
    data = two_class_dataset(rng)
    rb = random_t1_base(rng, n_features=1, label_low="a", label_high="b")
    result = learning.tune_t1(rb, data, learning.TuneConfig(epochs=3))
    trace = result[1]
    assert len(trace.epoch_error) == 3 and 0 <= trace.best_epoch < 3
    assert layers._tune_info((), {}, result) == {"epochs": 3,
                                                 "best": trace.best_epoch}


def test_fcm_runs_through_the_traced_kernels(layers):
    tracer = _perfbench_module("tracer").Tracer()
    originals = {name: getattr(kernels, name) for name in layers.KERNELS}
    X = np.random.default_rng(0).random((40, 3))
    layers.install(tracer)
    try:
        clustering.fcm(X, 3, tol=0.0, max_iter=4)
    finally:
        tracer.restore()
    names = [s.name for s in tracer.spans]
    assert names[0] == "clustering.fcm"
    assert names.count("kernels.sq_distances") == 4
    assert names.count("kernels.fcm_memberships") == 4
    assert all(s.parent == 0 for s in tracer.spans[1:])
    assert {name: getattr(kernels, name) for name in layers.KERNELS} == originals


# the keys benchmarks/benchlib.py adds to every record
ENVIRONMENT = {"cores", "backend", "python", "numpy", "openblas_num_threads",
               "git_sha", "src_modified"}


def _run_benchmark(script, *args):
    """Run a script as the README does: from this checkout, no PYTHONPATH."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    return subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / script), *args],
        capture_output=True, text=True, env=env, timeout=300)


def _record(path, label=None):
    """The result a script wrote to path (under label), which must hold the
    environment block."""
    result = json.loads(path.read_text(encoding="utf-8"))
    if label is not None:
        result = result[label]
    assert ENVIRONMENT <= set(result), ENVIRONMENT - set(result)
    return result


def test_bench_kernels_runs_every_line(tmp_path):
    out = tmp_path / "kernels.json"
    run = _run_benchmark("bench_kernels.py", "--rows", "400", "--rules", "3",
                         "--features", "6", "--repeats", "1", "--calls", "20",
                         "--json", str(out))
    assert run.returncode == 0, run.stderr
    printed = {line.split()[0] for line in run.stdout.splitlines() if line}
    assert set(KERNEL_LINES) <= printed
    assert set(_record(out)["kernels"]) == set(KERNEL_LINES)


def test_bench_scan_runs(tmp_path):
    out = tmp_path / "scan.json"
    run = _run_benchmark("bench_scan.py", "--rows", "200", "--c-max", "3",
                         "--seeds", "2", "--repeats", "1", "--fork-work", "0",
                         "--out", str(out))
    assert run.returncode == 0, run.stderr
    result = _record(out)
    # the worker count of the scan on all CPUs, not of the pinned one
    assert result["runs"] > 0
    assert result["workers"] > 1 or result["cores"] == 1


def test_bench_knn_runs(tmp_path):
    out = tmp_path / "knn.json"
    run = _run_benchmark("bench_knn.py", "--raw-rows", "1500",
                         "--test-rows", "60", "--repeats", "1",
                         "--out", str(out))
    assert run.returncode == 0, run.stderr
    result = _record(out)
    assert result["test_rows"] == 60 and result["labels_equal"]


def test_bench_predict_runs(tmp_path):
    out = tmp_path / "predict.json"
    # a label's record goes in beside the others the file holds
    out.write_text('{"parent": {"repeats": 3}}', encoding="utf-8")
    run = _run_benchmark("bench_predict.py", "--rows", "20", "300",
                         "--repeats", "1", "--out", str(out))
    assert run.returncode == 0, run.stderr
    result = _record(out, "change")
    assert json.loads(out.read_text(encoding="utf-8"))["parent"] == {
        "repeats": 3}
    assert [s["rows"] for s in result["sizes"]] == [20, 300]
    commands = [result["inspect_model"], *result["sizes"]]
    assert all(c["min_wall_s"] > 0 and c["peak_rss_mb"][0] > 0
               for c in commands)
    assert "it2fis.model_io" in result["inspect_model"]["modules"]
    assert all("it2fis.inference" in s["modules"] for s in result["sizes"])


def test_bench_pipeline_runs(tmp_path):
    out = tmp_path / "pipeline.json"
    run = _run_benchmark("bench_pipeline.py", "--raw-rows", "1500",
                         "--seeds", "2", "--repeats", "2", "--out", str(out))
    assert run.returncode == 0, run.stderr
    result = _record(out)
    assert len(result["total_s"]) == 2 and set(result["seeds"]) == {"0", "1"}
    seed = result["seeds"]["1"]
    assert len(seed["train_s"]) == len(seed["evaluate_stages"]) == 2
    # every stage the commands run is timed, and none outlasts its command
    assert {"select_cluster_count", "tune_it2"} <= set(seed["train_stages"][0])
    assert {"predict", "baseline_knn"} <= set(seed["evaluate_stages"][0])
    assert sum(seed["evaluate_stages"][0].values()) <= seed["evaluate_s"][0]
    assert "type2.accuracy" in seed["quality"]
