"""it2fis: interval type-2 fuzzy inference systems learned from tabular data.

The pipeline clusters the joint feature/label space, projects each cluster
into one Gaussian rule, tunes the type-1 system by steepest descent, widens
it to interval type-2, tunes again, and classifies through Karnik-Mendel
center-of-sets type reduction.  A pretrained 5-rule ICU-admission model ships
with the package (`load_bundled_model`).
"""

from .clustering import (FuzzyPartition, ValidityScan, fcm, fukuyama_index,
                         gk, select_cluster_count)
from .errors import DataError, It2fisError, ModelError, NoCoverageError
from .evaluation import (MetricsReport, Split, baseline_knn, baseline_nb,
                         calibrate_threshold, compute_metrics, split, take)
from .inference import (BatchPredictions, Prediction, TypeReducedInterval,
                        km_reduce, predict, predict_batch)
from .kernels import backend
from .learning import (TuneConfig, TuneTrace, encode_labels, extract_rules,
                       tune_it2, tune_t1, widen_to_it2)
from .model_io import load_bundled_model, load_model, save_model
from .preprocess import (Dataset, OutlierRule, PreprocessConfig,
                         PreprocessReport, RawTable, load_csv, load_dataset,
                         preprocess, save_dataset)
from .rules import Rule, RuleBase, it2_rule_base, t1_rule_base
from .sets import (GaussianT1Set, IT2GaussianSet, MembershipInterval,
                   it2_membership, set_centroid_interval, t1_membership)

__version__ = "0.1.0"

__all__ = [
    "BatchPredictions", "DataError", "Dataset", "FuzzyPartition",
    "GaussianT1Set", "IT2GaussianSet", "It2fisError", "MembershipInterval",
    "MetricsReport", "ModelError", "NoCoverageError", "OutlierRule",
    "Prediction", "PreprocessConfig", "PreprocessReport", "RawTable", "Rule",
    "RuleBase", "Split", "TuneConfig", "TuneTrace", "TypeReducedInterval",
    "ValidityScan", "backend", "baseline_knn", "baseline_nb",
    "calibrate_threshold", "compute_metrics", "encode_labels",
    "extract_rules", "fcm", "fukuyama_index", "gk", "it2_membership",
    "it2_rule_base", "km_reduce", "load_bundled_model", "load_csv",
    "load_dataset", "load_model", "predict", "predict_batch", "preprocess",
    "save_dataset", "save_model", "select_cluster_count",
    "set_centroid_interval", "split", "t1_membership", "t1_rule_base",
    "take", "tune_it2", "tune_t1", "widen_to_it2",
]
