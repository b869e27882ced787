"""Which it2fis functions the traced run wraps, and the per-layer metrics.

Every wrapped name is patched where its caller looks it up, so nothing
inside `src/` changes:

- the names `it2fis.cli` binds with `from ... import` (one per pipeline
  stage the CLI calls);
- `clustering.fcm` (looked up by the cluster-count scan), and
  `learning.fcm` / `learning.gk` (looked up by `extract_rules`);
- the `kernels.*` module attributes, which every caller reads at call time;
- `inference.predict`, which the benchmark's single-row loop looks up.

Counts come from what the functions already return: `FuzzyPartition.n_iter`
and `.converged`, the length and `best_epoch` of `TuneTrace`,
`BatchPredictions.flagged`, row counts of tables and datasets.  GK
iterations are the `kernels.fcm_memberships` calls made directly under a
`clustering.gk` span.
"""

from __future__ import annotations

import numpy as np

from it2fis import cli, clustering, inference, kernels, learning
from tracer import self_times

# the names cli.py imports with `from ... import`, by layer
CLI_IMPORTS = {
    "preprocess": ("load_csv", "preprocess", "feature_matrix", "save_dataset"),
    "clustering": ("select_cluster_count",),
    "learning": ("encode_labels", "extract_rules", "tune_t1", "widen_to_it2",
                 "tune_it2"),
    "inference": ("predict_batch",),
    "evaluation": ("split", "take", "calibrate_threshold", "baseline_nb",
                   "baseline_knn", "compute_metrics"),
    "model_io": ("load_model", "save_model"),
}

KERNELS = ("sq_distances", "fcm_memberships", "log_firing", "km_batch",
           "t1_epoch", "it2_epoch", "topk_select")


def _nbytes(value) -> int:
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_nbytes(v) for v in value)
    return 0


def _kernel_info(args, kwargs, result):
    return {"bytes": _nbytes(args) + _nbytes(tuple(kwargs.values()))
            + _nbytes(result)}


def _partition_info(args, kwargs, p):
    return {"iters": p.n_iter, "converged": bool(p.converged)}


def _tune_info(args, kwargs, result):
    trace = result[1]
    return {"epochs": len(trace.epoch_error), "best": trace.best_epoch}


_INFO = {
    "load_csv": lambda a, k, t: {"rows": t.n_rows},
    "preprocess": lambda a, k, r: {"rows": r[0].n_rows,
                                   "features": len(r[0].feature_names)},
    "feature_matrix": lambda a, k, x: {"rows": x.shape[0]},
    "tune_t1": _tune_info,
    "tune_it2": _tune_info,
    "predict_batch": lambda a, k, bp: {"rows": len(bp.crisp),
                                       "flagged": int(bp.flagged.sum())},
    "baseline_knn": lambda a, k, r: {"pairs": a[0].n_rows * a[1].n_rows},
}


def install(tracer):
    """Patch every traced name; undo with `tracer.restore()`."""
    for layer, names in CLI_IMPORTS.items():
        for name in names:
            tracer.patch(cli, name, f"{layer}.{name}", _INFO.get(name))
    tracer.patch(clustering, "fcm", "clustering.fcm", _partition_info)
    tracer.patch(learning, "fcm", "clustering.fcm", _partition_info)
    tracer.patch(learning, "gk", "clustering.gk", _partition_info)
    for name in KERNELS:
        tracer.patch(kernels, name, f"kernels.{name}", _kernel_info)
    tracer.patch(inference, "predict", "inference.predict")


def command_self_sums(spans) -> list:
    """(name, wall_s, summed_self_s) for every traced CLI command.

    The self times of a command's span and all spans under it add up to the
    command's wall time when every child span lies inside its parent.
    """
    own = self_times(spans)
    root_of = []
    summed = {}
    for i, s in enumerate(spans):
        root_of.append(i if s.parent < 0 else root_of[s.parent])
        summed[root_of[i]] = summed.get(root_of[i], 0.0) + own[i]
    return [(s.name, s.duration, summed[i]) for i, s in enumerate(spans)
            if s.parent < 0 and s.name.startswith("cli.")]


def layer_metrics(spans, run) -> dict:
    """Per-layer metrics of one traced iteration (spans with `.run == run`)."""
    own = self_times(spans)
    by_name = {}
    for i, s in enumerate(spans):
        if s.run == run:
            by_name.setdefault(s.name, []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def total(name):
        return sum(spans[i].duration for i in idx(name))

    def self_total(name):
        return sum(own[i] for i in idx(name))

    def info_sum(name, key):
        return sum(spans[i].info[key] for i in idx(name))

    m = {}
    fcm = idx("clustering.fcm")
    fcm_iters = info_sum("clustering.fcm", "iters")
    m["clustering.select_cluster_count_s"] = total("clustering.select_cluster_count")
    m["clustering.fcm_runs"] = len(fcm)
    m["clustering.fcm_iters"] = fcm_iters
    m["clustering.fcm_converged_ratio"] = (
        sum(spans[i].info["converged"] for i in fcm) / len(fcm) if fcm else 0.0)
    m["clustering.fcm_ms_per_iter"] = (
        1e3 * total("clustering.fcm") / fcm_iters if fcm_iters else 0.0)

    gk = set(idx("clustering.gk"))
    m["clustering.gk_runs"] = len(gk)
    m["clustering.gk_iters"] = sum(
        1 for i in idx("kernels.fcm_memberships") if spans[i].parent in gk)
    m["clustering.gk_fallbacks"] = sum(
        1 for i in gk if spans[i].error == "DataError")
    m["clustering.gk_wasted_s"] = sum(
        spans[i].duration for i in gk if spans[i].error is not None)

    m["learning.extract_rules_self_s"] = self_total("learning.extract_rules")
    for tag in ("t1", "it2"):
        name = f"learning.tune_{tag}"
        m[f"learning.tune_{tag}_s"] = total(name)
        m[f"learning.{tag}_epochs"] = info_sum(name, "epochs")
        m[f"learning.{tag}_epochs_past_best"] = sum(
            spans[i].info["epochs"] - 1 - spans[i].info["best"]
            for i in idx(name))

    # the CLI's split stage is split() followed by take()
    m["evaluation.split_s"] = total("evaluation.split") + total("evaluation.take")
    m["evaluation.calibrate_threshold_s"] = total("evaluation.calibrate_threshold")
    m["evaluation.baseline_nb_s"] = total("evaluation.baseline_nb")
    m["evaluation.baseline_knn_s"] = total("evaluation.baseline_knn")
    m["evaluation.knn_pairs"] = info_sum("evaluation.baseline_knn", "pairs")
    m["evaluation.compute_metrics_s"] = total("evaluation.compute_metrics")

    m["preprocess.load_csv_s"] = total("preprocess.load_csv")
    m["preprocess.rows_read"] = info_sum("preprocess.load_csv", "rows")
    m["preprocess.preprocess_s"] = total("preprocess.preprocess")
    m["preprocess.rows_kept"] = info_sum("preprocess.preprocess", "rows")
    m["preprocess.features_out"] = max(
        (spans[i].info["features"] for i in idx("preprocess.preprocess")),
        default=0)
    m["preprocess.feature_matrix_s"] = total("preprocess.feature_matrix")

    m["inference.predict_batch_s"] = total("inference.predict_batch")
    m["inference.predict_batch_rows"] = info_sum("inference.predict_batch", "rows")
    m["inference.flagged_rows"] = info_sum("inference.predict_batch", "flagged")
    m["inference.predict_calls"] = len(idx("inference.predict"))
    m["inference.predict_s"] = total("inference.predict")

    m["cli.self_s"] = sum(self_total(name) for name in by_name
                          if name.startswith("cli."))
    m["model_io.load_model_s"] = total("model_io.load_model")
    m["model_io.save_model_s"] = total("model_io.save_model")

    for k in KERNELS:
        name = f"kernels.{k}"
        m[f"{name}_calls"] = len(idx(name))
        m[f"{name}_s"] = total(name)
        m[f"{name}_mb"] = info_sum(name, "bytes") / 1e6
    return m
