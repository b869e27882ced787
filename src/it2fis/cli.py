"""Command-line entry points: preprocess, train, predict, evaluate,
inspect-model.

Exit codes: 0 success, 1 usage error, 2 data error, 3 model error.  Pipeline
failures name the stage they happened in (e.g. "[load_csv] cannot read ...").
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import config as cfgmod
from .clustering import select_cluster_count
from .errors import DataError, It2fisError, ModelError
from .evaluation import (baseline_knn, baseline_nb, calibrate_threshold,
                         compute_metrics, split, take)
from .inference import predict_batch
from .learning import (encode_labels, extract_rules, tune_it2, tune_t1,
                       widen_to_it2)
from .model_io import load_model, save_model
from .preprocess import feature_matrix, load_csv, preprocess, save_dataset


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the CLI contract reserves 1 for that."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


@contextmanager
def _stage(name):
    try:
        yield
    except It2fisError as exc:
        raise type(exc)(f"[{name}] {exc}") from exc


def _load_config(args, flag_keys) -> cfgmod.Config:
    overrides = {key: getattr(args, attr) for key, attr in flag_keys.items()}
    return cfgmod.load_config(args.config, overrides)


def _file_sha1(path) -> str:
    h = hashlib.sha1()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def build_parser() -> _Parser:
    p = _Parser(prog="it2fis", description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=0, help="global random seed")
    p.add_argument("--config", metavar="FILE",
                   help="key=value config file overriding built-in defaults")
    sub = p.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("preprocess", help="clean a raw CSV into a dataset CSV")
    sp.add_argument("input")
    sp.add_argument("-o", "--output", required=True,
                    help="dataset CSV path (report goes to <output>.report.txt)")
    sp.add_argument("--label", dest="label", help="label column name")
    sp.add_argument("--corr-threshold", dest="corr_threshold", type=float)
    sp.set_defaults(func=cmd_preprocess)

    sp = sub.add_parser("train", help="fit a rule base on the train share of a CSV")
    sp.add_argument("input")
    sp.add_argument("-o", "--output", required=True, help="model file path")
    sp.add_argument("--label", dest="label")
    sp.add_argument("--corr-threshold", dest="corr_threshold", type=float)
    sp.add_argument("--c-max", dest="c_max", type=int)
    sp.add_argument("--fuzziness", dest="fuzziness", type=float)
    sp.add_argument("--lr", dest="learning_rate", type=float)
    sp.add_argument("--epochs", dest="epochs", type=int)
    sp.add_argument("--spread", dest="spread", type=float)
    sp.add_argument("--ratio", dest="train_ratio", type=float)
    sp.add_argument("--type1-only", action="store_true",
                    help="stop after type-1 tuning")
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("predict", help="score a feature CSV with a model")
    sp.add_argument("model")
    sp.add_argument("input", help="CSV of numeric features, one column per input")
    sp.add_argument("-o", "--output", required=True, help="predictions CSV path")
    sp.set_defaults(func=cmd_predict)

    sp = sub.add_parser("evaluate", help="score the held-out share of a CSV")
    sp.add_argument("model")
    sp.add_argument("input")
    sp.add_argument("-o", "--output",
                    help="report prefix (<prefix>.txt and <prefix>.kv)")
    sp.add_argument("--label", dest="label")
    sp.add_argument("--corr-threshold", dest="corr_threshold", type=float)
    sp.add_argument("--ratio", dest="train_ratio", type=float)
    sp.add_argument("--baselines", action="store_true",
                    help="also train and score NB and KNN on the train share")
    sp.add_argument("--test-only", action="store_true",
                    help="evaluate on every row instead of splitting")
    sp.set_defaults(func=cmd_evaluate)

    sp = sub.add_parser("inspect-model", help="print a model summary")
    sp.add_argument("model")
    sp.set_defaults(func=cmd_inspect)
    return p


_PREP_FLAGS = {"label_column": "label", "corr_threshold": "corr_threshold"}


def cmd_preprocess(args) -> int:
    cfg = _load_config(args, _PREP_FLAGS)
    with _stage("load_csv"):
        table = load_csv(args.input)
    with _stage("preprocess"):
        ds, report = preprocess(table, cfgmod.preprocess_config(cfg))
    save_dataset(ds, args.output)
    with open(args.output + ".report.txt", "w", encoding="utf-8") as f:
        f.write(report.text())
    print(f"kept {ds.n_rows} rows x {len(ds.feature_names)} features "
          f"-> {args.output}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args, {
        **_PREP_FLAGS, "c_max": "c_max", "fuzziness": "fuzziness",
        "learning_rate": "learning_rate", "epochs": "epochs",
        "spread": "spread", "train_ratio": "train_ratio",
    })
    seed = args.seed
    with _stage("load_config"):
        # reject bad values now, not after an hour of tuning
        tc = cfgmod.tune_config(cfg)
        cfgmod.check_ranges(cfg, "spread", "train_ratio", "fuzziness")
    with _stage("load_csv"):
        table = load_csv(args.input)
    with _stage("preprocess"):
        ds, _ = preprocess(table, cfgmod.preprocess_config(cfg))
    with _stage("split"):
        sp = split(ds, ratio=cfg.get_float("train_ratio"), seed=seed,
                   stratified=cfg.get_bool("stratified"))
        train_ds = take(ds, sp.train_indices)

    m = cfg.get_float("fuzziness")
    tol = cfg.get_float("cluster_tol")
    max_iter = cfg.get_int("cluster_max_iter")
    with _stage("select_cluster_count"):
        y, _, _ = encode_labels(train_ds.labels)
        joint = np.column_stack([train_ds.features, y])
        cap = cfg.get_int("cluster_scan_subsample")
        scan_data = joint
        if cap and joint.shape[0] > cap:
            pick = np.random.default_rng(seed).choice(joint.shape[0], cap,
                                                      replace=False)
            scan_data = joint[np.sort(pick)]
        scan = select_cluster_count(
            scan_data, c_max=cfg.get_int("c_max"), m=m,
            seeds=tuple(seed + i for i in range(cfg.get_int("selection_seeds"))),
            tol=tol, max_iter=max_iter)
        print(f"cluster scan: {dict(zip(scan.candidates, [round(v, 3) for v in scan.values]))}"
              f" -> c={scan.selected}")
        print(f"scan runs: {len(scan.runs)}, "
              f"{sum(r[2] for r in scan.runs)} iterations, "
              f"{sum(r[3] for r in scan.runs)} converged, "
              f"{scan.workers} workers")

    with _stage("extract_rules"):
        rb = extract_rules(train_ds, scan.selected, m=m, seed=seed, tol=tol,
                           max_iter=max_iter,
                           gk_regularization=cfg.get_float("gk_regularization"))
    with _stage("tune_t1"):
        rb, trace_t1 = tune_t1(rb, train_ds, tc)
    traces = [("t1", trace_t1)]
    if not args.type1_only:
        with _stage("widen_to_it2"):
            rb = widen_to_it2(rb, cfg.get_float("spread"))
        with _stage("tune_it2"):
            rb, trace_it2 = tune_it2(rb, train_ds, tc)
        traces.append(("it2", trace_it2))

    with _stage("calibrate_threshold"):
        bp = predict_batch(rb, train_ds.features)
        thr = calibrate_threshold(
            bp.crisp, train_ds.labels, rb.label_low,
            float(rb.cons_mean.min()), float(rb.cons_mean.max()),
            n_points=cfg.get_int("threshold_sweep"))
        rb = dataclasses.replace(rb, threshold=thr)

    rb = dataclasses.replace(rb, provenance=rb.provenance + (
        # the file name only: the content is identified by data_sha1, and the
        # model bytes must not depend on where the input lies
        ("trained_on", os.path.basename(args.input)),
        ("data_sha1", _file_sha1(args.input)),
        ("train_rows", str(train_ds.n_rows)),
        ("train_ratio", cfg.get("train_ratio")),
        ("learning_rate", cfg.get("learning_rate")),
        ("epochs", cfg.get("epochs")),
        ("spread", cfg.get("spread")),
        ("global_seed", str(seed)),
        ("label_column", cfg.get("label_column")),
    ))
    with _stage("save_model"):
        save_model(rb, args.output)
    with open(args.output + ".trace.txt", "w", encoding="utf-8") as f:
        for name, tr in traces:
            for e, (err, dig) in enumerate(zip(tr.epoch_error, tr.param_digests)):
                f.write(f"{name} epoch {e}: error={float(err)!r} params={dig}\n")
            f.write(f"{name} best epoch: {tr.best_epoch}\n")
    print(f"trained {rb.kind} model: {rb.n_rules} rules x {rb.n_features} "
          f"antecedents, threshold {thr:.4f} -> {args.output}")
    return 0


def cmd_predict(args) -> int:
    with _stage("load_model"):
        model = load_model(args.model)
    with _stage("load_csv"):
        table = load_csv(args.input)
    if len(table.column_names) != model.n_features:
        raise DataError(
            f"feature-count mismatch: expected {model.n_features}, "
            f"got {len(table.column_names)}"
        )
    with _stage("parse_features"):
        X = feature_matrix(table)
    bp = predict_batch(model, X)
    with open(args.output, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["row", "crisp", "y_l", "y_r", "label", "flagged"])
        for i in range(X.shape[0]):
            w.writerow([i, repr(float(bp.crisp[i])), repr(float(bp.y_l[i])),
                        repr(float(bp.y_r[i])), bp.labels[i],
                        "true" if bp.flagged[i] else "false"])
    print(f"wrote {X.shape[0]} predictions -> {args.output}")
    return 0


def cmd_evaluate(args) -> int:
    if args.baselines and args.test_only:
        raise DataError(
            "--baselines needs a train share; it cannot combine with --test-only"
        )
    cfg = _load_config(args, {**_PREP_FLAGS, "train_ratio": "train_ratio"})
    with _stage("load_config"):
        cfgmod.check_ranges(cfg, "train_ratio", "knn_k")
    with _stage("load_model"):
        model = load_model(args.model)
    with _stage("load_csv"):
        table = load_csv(args.input)
    with _stage("preprocess"):
        ds, _ = preprocess(table, cfgmod.preprocess_config(cfg))
    if len(ds.feature_names) != model.n_features:
        raise DataError(
            f"feature-count mismatch: expected {model.n_features}, "
            f"got {len(ds.feature_names)}"
        )

    if args.test_only:
        train_ds, test_ds = None, ds
    else:
        with _stage("split"):
            sp = split(ds, ratio=cfg.get_float("train_ratio"), seed=args.seed,
                       stratified=cfg.get_bool("stratified"))
            train_ds, test_ds = take(ds, sp.train_indices), take(ds, sp.test_indices)

    with _stage("predict"):
        bp = predict_batch(model, test_ds.features)
    reports = [("type2", compute_metrics(bp.labels, test_ds.labels,
                                         positive_class=model.label_high))]
    if args.baselines:
        with _stage("baseline_nb"):
            nb = baseline_nb(train_ds, test_ds,
                             alpha=cfg.get_float("nb_alpha"))
            reports.append(("nb", compute_metrics(nb, test_ds.labels,
                                                  model.label_high)))
        with _stage("baseline_knn"):
            knn = baseline_knn(train_ds, test_ds, k=cfg.get_int("knn_k"))
            reports.append(("knn", compute_metrics(knn, test_ds.labels,
                                                   model.label_high)))

    text = "".join(r.text(title=name) for name, r in reports)
    flagged = int(bp.flagged.sum())
    if flagged:
        text += f"flagged (no-coverage fallback) predictions: {flagged}\n"
    print(text, end="")
    if args.output:
        with open(args.output + ".txt", "w", encoding="utf-8") as f:
            f.write(text)
        with open(args.output + ".kv", "w", encoding="utf-8") as f:
            for name, r in reports:
                f.write("\n".join(r.machine_lines(prefix=name + ".")) + "\n")
            f.write(f"type2.flagged={flagged}\n")
    return 0


def cmd_inspect(args) -> int:
    with _stage("load_model"):
        model = load_model(args.model)
    print(f"kind: {model.kind}")
    print(f"rules: {model.n_rules}")
    print(f"antecedents per rule: {model.n_features}")
    print(f"variables: {', '.join(model.variable_names)}")
    print(f"labels: low={model.label_low} high={model.label_high}")
    print(f"inference: tnorm=product threshold={model.threshold}")
    for s in range(model.n_rules):
        print(f"rule {s + 1}: consequent mean={model.cons_mean[s]:.6g} "
              f"sigma=[{model.cons_sigma_lower[s]:.6g}, "
              f"{model.cons_sigma_upper[s]:.6g}]")
    for k, v in model.provenance:
        print(f"provenance {k}: {v}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ModelError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3
    except It2fisError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
