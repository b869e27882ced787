"""it2fis: interval type-2 fuzzy inference systems learned from tabular data.

The pipeline clusters the joint feature/label space, projects each cluster
into one Gaussian rule, tunes the type-1 system by steepest descent, widens
it to interval type-2, tunes again, and classifies through Karnik-Mendel
center-of-sets type reduction.  A pretrained 5-rule ICU-admission model ships
with the package (`load_bundled_model`).

Importing the package imports none of its modules: each public name and each
submodule is imported on first use (PEP 562), so a process that only reads a
model never loads the training stack.  `it2fis.preprocess` is the module; the
cleaning function is `it2fis.preprocess.preprocess`.
"""

import importlib

__version__ = "0.1.0"

# the public names, by the submodule that defines them
_EXPORTS = {
    "clustering": ("FuzzyPartition", "ValidityScan", "fcm", "fukuyama_index",
                   "gk", "select_cluster_count"),
    "errors": ("DataError", "It2fisError", "ModelError", "NoCoverageError"),
    "evaluation": ("MetricsReport", "Split", "baseline_knn", "baseline_nb",
                   "calibrate_threshold", "compute_metrics", "split", "take"),
    "inference": ("BatchPredictions", "Prediction", "TypeReducedInterval",
                  "km_reduce", "predict", "predict_batch"),
    "kernels": ("backend",),
    "learning": ("TuneConfig", "TuneTrace", "encode_labels", "extract_rules",
                 "tune_it2", "tune_t1", "widen_to_it2"),
    "model_io": ("load_bundled_model", "load_model", "save_model"),
    "preprocess": ("Dataset", "OutlierRule", "PreprocessConfig",
                   "PreprocessReport", "RawTable", "load_csv", "save_dataset"),
    "rules": ("RuleBase", "t1_rule_base"),
}
_SUBMODULES = (*_EXPORTS, "cli", "config", "parallel")
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    if name in _MODULE_OF:
        value = getattr(importlib.import_module(f".{_MODULE_OF[name]}",
                                                __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
