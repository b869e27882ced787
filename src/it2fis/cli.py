"""Command-line entry points: preprocess, train, predict, evaluate,
inspect-model.

Exit codes: 0 success, 1 usage error, 2 data error, 3 model error.  Pipeline
failures name the stage they happened in (e.g. "[load_csv] cannot read ...").
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from contextlib import closing, contextmanager

import numpy as np

from .errors import DataError, It2fisError, ModelError


def __getattr__(name):
    """The stage function `name`, its module imported on first use (PEP 562).

    This is the one table of stage names.  A command imports only the stages
    it runs: `inspect-model` loads no training code.  The function is kept as
    a global of this module, and the commands call each stage as
    `_cli.<name>`, so they call whatever `cli.<name>` is bound to when they
    run, and a caller may rebind it (the tests and perfbench's tracer do).
    """
    if name in ("csv_blocks", "feature_matrix", "load_csv", "preprocess",
                "save_dataset"):
        from . import preprocess as module
    elif name == "select_cluster_count":
        from . import clustering as module
    elif name in ("encode_labels", "extract_rules", "tune_it2", "tune_t1",
                  "widen_to_it2"):
        from . import learning as module
    elif name == "predict_batch":
        from . import inference as module
    elif name in ("baseline_knn", "baseline_nb", "calibrate_threshold",
                  "compute_metrics", "split", "take"):
        from . import evaluation as module
    elif name in ("load_model", "save_model"):
        from . import model_io as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(module, name)
    return value


# this module: a bare stage name in a function never reaches __getattr__
_cli = sys.modules[__name__]


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


def _output(stage, path):
    """Check now, before any input is read, that the directory `path` goes
    into exists and that `path` is not itself a directory, and return the
    context to write `path` in.  Every failure, one of these now or an
    OSError in that context (permission denied, a full disk), is a data
    error that names the stage and the file, as a failed read is."""
    folder = os.path.dirname(path) or os.curdir
    with _stage(stage):
        if not os.path.isdir(folder):
            raise DataError(f"cannot write {path}: no such directory {folder}")
        if os.path.isdir(path):
            raise DataError(f"cannot write {path}: Is a directory")

    @contextmanager
    def writing():
        with _stage(stage):
            try:
                yield
            except OSError as exc:
                raise DataError(f"cannot write {exc.filename or path}: "
                                f"{exc.strerror or exc}") from exc
    return writing()


def _check_features(model, names):
    """Raise DataError unless the feature names are the model's inputs, in
    order: one-hot levels, pruning or a reordered CSV can give the same
    count but other columns."""
    if len(names) != model.n_features:
        raise DataError(
            f"feature-count mismatch: expected {model.n_features}, "
            f"got {len(names)}"
        )
    for i, (want, got) in enumerate(zip(model.variable_names, names),
                                    start=1):
        if want != got:
            raise DataError(
                f"feature mismatch at column {i}: model expects "
                f"{want!r}, data has {got!r}")


def _load_config(args):
    """The `config.Config` of the config file overridden by every flag whose
    dest is a config key (None, a flag not given, overrides nothing)."""
    from . import config as cfgmod

    overrides = {k: v for k, v in vars(args).items() if k in cfgmod.DEFAULTS}
    return cfgmod.load_config(args.config, overrides)


def _load_dataset(path, prep):
    """load_csv then preprocess, each under its own stage name."""
    with _stage("load_csv"):
        table = _cli.load_csv(path)
    with _stage("preprocess"):
        return _cli.preprocess(table, prep)


def _rows_sha1(ds) -> str:
    """SHA-1 of a cleaned dataset's feature names, labels and feature
    bytes: the same rows give the same digest whatever file they came from."""
    import hashlib

    h = hashlib.sha1(repr((ds.feature_names, ds.labels)).encode())
    h.update(ds.features)  # C-contiguous floats, as Dataset keeps them
    return h.hexdigest()


def _check_unseen_rows(model, ds, seed, ratio, test_only):
    """Raise unless evaluate scores only rows the model did not train on.

    Only a model whose provenance names these cleaned rows (its data_sha1)
    and the split it trained on is checked; any other model or rows pass.
    """
    prov = dict(model.provenance)
    if (not {"data_sha1", "global_seed", "train_ratio"} <= prov.keys()
            or _rows_sha1(ds) != prov["data_sha1"]):
        return
    if test_only:
        raise DataError("--test-only would score every one of these rows, "
                        "and this model was trained on a share of them")
    for key, parse, given in (("global_seed", int, seed),
                              ("train_ratio", float, ratio)):
        try:
            trained = parse(prov[key])
        except ValueError:
            raise ModelError(f"provenance {key} {prov[key]!r} does not "
                             f"parse as {parse.__name__}") from None
        if trained != given:
            raise DataError(
                f"the model was trained on these rows with {key} {trained!r}; "
                f"a split with {given!r} would score rows it was trained on")


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
    sp.add_argument("--label", dest="label_column", metavar="LABEL",
                    help="label column name")
    sp.add_argument("--corr-threshold", dest="corr_threshold", type=float)
    sp.set_defaults(func=cmd_preprocess)

    sp = sub.add_parser("train", help="fit a rule base on the train share of a CSV")
    sp.add_argument("input")
    sp.add_argument("-o", "--output", required=True, help="model file path")
    sp.add_argument("--label", dest="label_column", metavar="LABEL")
    sp.add_argument("--corr-threshold", dest="corr_threshold", type=float)
    sp.add_argument("--c-max", dest="c_max", type=int)
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
    sp.add_argument("--label", dest="label_column", metavar="LABEL")
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


def cmd_preprocess(args) -> int:
    from . import config as cfgmod

    writing = _output("save_dataset", args.output)
    with _stage("load_config"):
        cfg = _load_config(args)
        prep = cfgmod.preprocess_config(cfg)
    ds, report = _load_dataset(args.input, prep)
    with writing:
        _cli.save_dataset(ds, args.output)
        with open(args.output + ".report.txt", "w", encoding="utf-8") as f:
            f.write(report.text())
    print(f"kept {ds.n_rows} rows x {len(ds.feature_names)} features "
          f"-> {args.output}")
    return 0


def cmd_train(args) -> int:
    from . import config as cfgmod

    writing = _output("save_model", args.output)
    seed = args.seed
    with _stage("load_config"):
        cfg = _load_config(args)
        # reject bad values now, not after an hour of tuning
        prep = cfgmod.preprocess_config(cfg)
        tc = cfgmod.tune_config(cfg)
        cfgmod.check_ranges(cfg, "spread", "train_ratio", "c_max",
                            "selection_seeds", "cluster_scan_subsample")
    ds, _ = _load_dataset(args.input, prep)
    with _stage("split"):
        sp = _cli.split(ds, ratio=cfg.get_float("train_ratio"), seed=seed)
        train_ds = _cli.take(ds, sp.train_indices)

    with _stage("select_cluster_count"):
        y, _, _ = _cli.encode_labels(train_ds.labels)
        joint = np.column_stack([train_ds.features, y])
        cap = cfg.get_int("cluster_scan_subsample")
        scan_data = joint
        if cap and joint.shape[0] > cap:
            pick = np.random.default_rng(seed).choice(joint.shape[0], cap,
                                                      replace=False)
            scan_data = joint[np.sort(pick)]
        scan = _cli.select_cluster_count(
            scan_data, c_max=cfg.get_int("c_max"),
            seeds=tuple(seed + i for i in range(cfg.get_int("selection_seeds"))))
        print(f"cluster scan: {dict(zip(scan.candidates, [round(v, 3) for v in scan.values]))}"
              f" -> c={scan.selected}")
        print(f"scan runs: {len(scan.runs)}, "
              f"{sum(r[2] for r in scan.runs)} iterations, "
              f"{sum(r[3] for r in scan.runs)} converged, "
              f"{scan.workers} workers")

    with _stage("extract_rules"):
        rb = _cli.extract_rules(train_ds, scan.selected, seed=seed)
    with _stage("tune_t1"):
        rb, trace_t1 = _cli.tune_t1(rb, train_ds, tc)
    traces = [("t1", trace_t1)]
    if not args.type1_only:
        with _stage("widen_to_it2"):
            rb = _cli.widen_to_it2(rb, cfg.get_float("spread"))
        with _stage("tune_it2"):
            rb, trace_it2 = _cli.tune_it2(rb, train_ds, tc)
        traces.append(("it2", trace_it2))

    with _stage("calibrate_threshold"):
        bp = _cli.predict_batch(rb, train_ds.features)
        thr = _cli.calibrate_threshold(bp.crisp, train_ds.labels, rb.label_low)
        rb = dataclasses.replace(rb, threshold=thr)

    rb = dataclasses.replace(rb, provenance=rb.provenance + (
        # the file name only: the rows are identified by data_sha1, and the
        # model bytes must not depend on where the input lies
        ("trained_on", os.path.basename(args.input)),
        ("data_sha1", _rows_sha1(ds)),
        ("train_rows", str(train_ds.n_rows)),
        ("train_ratio", cfg.get("train_ratio")),
        ("learning_rate", cfg.get("learning_rate")),
        ("epochs", cfg.get("epochs")),
        ("spread", cfg.get("spread")),
        ("global_seed", str(seed)),
        ("label_column", cfg.get("label_column")),
    ))
    with writing:
        _cli.save_model(rb, args.output)
        with open(args.output + ".trace.txt", "w", encoding="utf-8") as f:
            for name, tr in traces:
                for e, err in enumerate(tr.epoch_error):
                    f.write(f"{name} epoch {e}: error={float(err)!r}\n")
                f.write(f"{name} best epoch: {tr.best_epoch}\n")
    print(f"trained {rb.kind} model: {rb.n_rules} rules x {rb.n_features} "
          f"antecedents, threshold {thr:.4f} -> {args.output}")
    return 0


def cmd_predict(args) -> int:
    import csv

    writing = _output("save_predictions", args.output)
    with _stage("load_model"):
        model = _cli.load_model(args.model)
    # one block of raw cells at a time: only the scores of the blocks read
    # so far are kept, and the output is opened after the last block, so an
    # error leaves no output file
    scored = []
    with closing(_cli.csv_blocks(args.input)) as blocks:
        with _stage("load_csv"):
            header = next(blocks)
        with _stage("parse_features"):
            _check_features(model, header.column_names)
        while True:
            with _stage("load_csv"):
                block = next(blocks, None)
            if block is None:
                break
            with _stage("parse_features"):
                X = _cli.feature_matrix(block)
            with _stage("predict"):
                bp = _cli.predict_batch(model, X)
            scored.append(bp)
    n = 0
    with writing, open(args.output, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["row", "crisp", "y_l", "y_r", "label", "flagged"])
        for bp in scored:
            # tolist gives Python floats, whose repr is the one of float(v)
            w.writerows(zip(
                range(n, n + len(bp.labels)), map(repr, bp.crisp.tolist()),
                map(repr, bp.y_l.tolist()), map(repr, bp.y_r.tolist()),
                bp.labels,
                ["true" if v else "false" for v in bp.flagged.tolist()]))
            n += len(bp.labels)
    print(f"wrote {n} predictions -> {args.output}")
    return 0


def cmd_evaluate(args) -> int:
    from . import config as cfgmod

    writing = args.output and _output("save_report", args.output + ".txt")
    with _stage("load_config"):
        cfg = _load_config(args)
        cfgmod.check_ranges(cfg, "train_ratio")
        prep = cfgmod.preprocess_config(cfg)
    with _stage("load_model"):
        model = _cli.load_model(args.model)
    ds, _ = _load_dataset(args.input, prep)
    with _stage("preprocess"):
        _check_features(model, ds.feature_names)

    with _stage("split"):
        ratio = cfg.get_float("train_ratio")
        _check_unseen_rows(model, ds, args.seed, ratio, args.test_only)
        if args.test_only:
            train_ds, test_ds = None, ds
        else:
            sp = _cli.split(ds, ratio=ratio, seed=args.seed)
            train_ds = _cli.take(ds, sp.train_indices)
            test_ds = _cli.take(ds, sp.test_indices)

    with _stage("predict"):
        bp = _cli.predict_batch(model, test_ds.features)
    reports = [("type2", _cli.compute_metrics(
        bp.labels, test_ds.labels, positive_class=model.label_high))]
    if args.baselines:
        with _stage("baseline_nb"):
            nb = _cli.baseline_nb(train_ds, test_ds)
            reports.append(("nb", _cli.compute_metrics(nb, test_ds.labels,
                                                       model.label_high)))
        with _stage("baseline_knn"):
            knn = _cli.baseline_knn(train_ds, test_ds)
            reports.append(("knn", _cli.compute_metrics(
                knn, test_ds.labels, model.label_high)))

    text = "".join(r.text(title=name) for name, r in reports)
    flagged = int(bp.flagged.sum())
    if flagged:
        text += f"flagged (no-coverage fallback) predictions: {flagged}\n"
    print(text, end="")
    if writing:
        with writing:
            with open(args.output + ".txt", "w", encoding="utf-8") as f:
                f.write(text)
            with open(args.output + ".kv", "w", encoding="utf-8") as f:
                for name, r in reports:
                    f.write("\n".join(r.machine_lines(prefix=name + "."))
                            + "\n")
                f.write(f"type2.flagged={flagged}\n")
    return 0


def cmd_inspect(args) -> int:
    with _stage("load_model"):
        model = _cli.load_model(args.model)
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
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.seed < 0:  # numpy's generators take no negative seed
        parser.error(f"argument --seed: must be >= 0, not {args.seed}")
    if args.command == "evaluate" and args.baselines and args.test_only:
        parser.error("--baselines needs a train share; "
                     "it cannot combine with --test-only")
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
