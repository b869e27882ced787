"""it2fis benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 45 --trace 0

Run from the root of a checkout; the program is imported from `src/`.  The
benchmark generates its inputs from `--seed` (perfbench/synth_covid.py),
drives `it2fis.cli.main` in this process for `train`, `evaluate --baselines`
and `predict`, calls `it2fis.inference.predict` row by row, and repeats that
cycle until `--seconds` have passed.  Every command's exit code and every
output is checked; failures are counted and make the exit code 1.

With `--trace 0` the metrics are the end-to-end ones (fastest repeats and
percentiles over the run).  With `--trace 1` cycles alternate between untraced and traced; the
traced ones wrap the program's functions from outside (perfbench/layers.py)
and give the per-layer metrics plus the tracing overhead, the untraced ones
the unbounded serving figures.  The last line of standard output is one
JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads and metric names.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import ctypes
import dataclasses
import hashlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one BLAS thread: on the two-vCPU reference host a second one gave train no
# speed-up and made run-to-run timings spread wider (README, Noise)
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
BUNDLED_MODEL = SRC / "it2fis" / "icu_admission.model"
SETUP_RUNS = 15     # fresh-interpreter set-up samples per run
SETUP_PER_CYCLE = 3  # taken before the first cycle and after each cycle
WARMUP_CALLS = 10   # untimed single-row calls before each timed block
TRAIN_SETS = 3      # train CSVs per run, one per measured cycle in turn
TRAIN_STREAMS = (0, 3, 4)  # their input streams (1: evaluate, 2: serving)


@dataclasses.dataclass(frozen=True)
class Workload:
    why: str
    train_rows: int    # raw rows of the CSV `train` reads
    eval_rows: int     # raw rows of a separate `evaluate` CSV; 0: the train CSV
    serve_rows: int    # rows `predict` scores: feature rows for the bundled
    #                    model, else raw rows cleaned to the trained features
    bundled: bool      # serve the bundled model, not the trained one
    calls: int         # timed single-row inference.predict calls per cycle
    repeats: tuple     # train, evaluate, predict commands per measured cycle
    config: dict = dataclasses.field(default_factory=dict)  # train/evaluate


WORKLOADS = {
    "pipeline": Workload(
        why="criterion-7 shape scaled down: default-config train, then "
            "evaluate --baselines on the same CSV; FCM scan and KNN dominate",
        train_rows=4000, eval_rows=0, serve_rows=16000, bundled=True,
        calls=1400, repeats=(1, 3, 3)),
    "train_large": Workload(
        why="more rows, narrow scan, 60 tuning epochs: tuning, extract_rules "
            "and preprocess dominate and the scan is small",
        train_rows=12000, eval_rows=2500, serve_rows=16000, bundled=False,
        calls=1400, repeats=(1, 3, 3),
        config={"c_max": "3", "selection_seeds": "1",
                "cluster_scan_subsample": "2000", "epochs": "60",
                "patience": "60"}),
}

END_TO_END = (
    ("setup_s", "s"), ("train_s", "s"), ("evaluate_s", "s"),
    ("score_p90_us", "us"), ("peak_rss_mb", "MB"), ("type2_accuracy", "ratio"),
    ("type2_macro_f", "ratio"), ("knn_accuracy", "ratio"),
)


class Tally:
    """Operations attempted and failed: CLI commands, calls and checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {what}", file=sys.stderr)
        return ok


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def measure_setup(tally, runs) -> list:
    """Wall times of `runs` fresh interpreters running `it2fis inspect-model`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "it2fis", "inspect-model", str(BUNDLED_MODEL)],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, timeout=60)
        times.append(time.perf_counter() - t0)
        tally.check(proc.returncode == 0,
                    f"inspect-model exited {proc.returncode}: "
                    f"{proc.stderr.decode(errors='replace').strip()}")
    return times


def blas_threads():
    """OpenBLAS thread count of this process, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload, seed) -> dict:
    from it2fis import kernels

    git_sha = None
    if (ROOT / ".git").exists():
        git_sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "it2fis").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "workload": workload, "seed": seed,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "backend": kernels.backend(), "blas_threads": blas_threads(),
        "python": platform.python_version(), "numpy": np.__version__,
        "git_sha": git_sha, "src_sha256": digest.hexdigest(),
    }


def run_cli(cli_main, argv, tally) -> bool:
    """Run one CLI command in this process; its stdout is discarded."""
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main(argv)
    except Exception:  # a crash is a failed command, not a benchmark error
        traceback.print_exc()
        rc = None
    return tally.check(rc == 0, f"it2fis {' '.join(argv)} exited {rc}")


def read_kv(path) -> dict:
    with open(path, encoding="utf-8") as f:
        return dict(line.rstrip("\n").split("=", 1) for line in f if "=" in line)


def kv_consistent(kv) -> bool:
    """Criterion-8 accounting: confusion sums to n_test, majority matches."""
    for name in ("type2", "nb", "knn"):
        tp, fn, fp, tn, n = (int(kv[f"{name}.{k}"])
                             for k in ("tp", "fn", "fp", "tn", "n_test"))
        if tp + fn + fp + tn != n or n == 0:
            return False
        if abs(float(kv[f"{name}.majority_accuracy"])
               - max(tp + fn, fp + tn) / n) > 1e-12:
            return False
        if abs(float(kv[f"{name}.accuracy"]) - (tp + tn) / n) > 1e-12:
            return False
    return True


def predictions_match(path, ref) -> bool:
    """The predict CSV has one row per input, bit-equal to `ref`."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))
    if rows[0] != ["row", "crisp", "y_l", "y_r", "label", "flagged"]:
        return False
    body = rows[1:]
    if len(body) != len(ref.crisp):
        return False
    if [int(r[0]) for r in body] != list(range(len(body))):
        return False
    for col, want in ((1, ref.crisp), (2, ref.y_l), (3, ref.y_r)):
        got = np.array([float(r[col]) for r in body])
        if not np.array_equal(got.view(np.uint64), want.view(np.uint64)):
            return False
    flagged = ["true" if f else "false" for f in ref.flagged]
    return ([r[4] for r in body] == list(ref.labels)
            and [r[5] for r in body] == flagged)


def single_row_matches(p, ref, i) -> bool:
    """Crisp score within 1e-12 relative of the batch one, same label.

    A score within that tolerance of the threshold may take either label.
    """
    if bool(p.flagged) != bool(ref.flagged[i]):
        return False
    want = ref.crisp[i]
    if np.isnan(want):
        return bool(np.isnan(p.crisp)) and p.label == ref.labels[i]
    tol = 1e-12 * abs(want)
    if abs(p.crisp - want) > tol:
        return False
    return p.label == ref.labels[i] or abs(want - ref.threshold) <= tol


def write_features(path, names, X):
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(names)
        w.writerows([repr(float(v)) for v in row] for row in X)


class Bench:
    """Inputs, references and measurements of one workload run."""

    def __init__(self, name, seed, work, tally):
        import synth_covid
        from it2fis import cli, config as cfgmod, inference, model_io
        from it2fis.preprocess import load_csv, preprocess

        self.cli, self.inference, self.model_io = cli, inference, model_io
        self.wl = wl = WORKLOADS[name]
        self.seed = seed
        self.tally = tally
        self.work = work

        # each input file has its own stream, derived from the workload seed
        def raw_csv(path, rows, stream):
            synth_covid.write_csv(path, synth_covid.generate(
                rows, seed + stream * 10**6))
            return path

        pcfg = cfgmod.preprocess_config(cfgmod.load_config())

        def clean(path):
            return preprocess(load_csv(path), pcfg)[0]

        self.raws = [raw_csv(work / f"raw{d}.csv", wl.train_rows, stream)
                     for d, stream in enumerate(TRAIN_STREAMS)]
        names = clean(self.raws[0]).feature_names
        for raw in self.raws[1:]:
            tally.check(clean(raw).feature_names == names,
                        "train CSVs clean to different features")
        self.eval_csvs = self.raws
        if wl.eval_rows:
            eval_csv = raw_csv(work / "eval.csv", wl.eval_rows, 1)
            tally.check(clean(eval_csv).feature_names == names,
                        "evaluate CSV cleans to other features than train CSV")
            self.eval_csvs = [eval_csv] * TRAIN_SETS
        self.cfg_args = []
        if wl.config:
            cfg_path = work / "bench.cfg"
            cfg_path.write_text("".join(f"{k}={v}\n" for k, v in wl.config.items()))
            self.cfg_args = ["--config", str(cfg_path)]

        self.models = [work / f"model{d}.json" for d in range(TRAIN_SETS)]
        self.features = work / "features.csv"
        if wl.bundled:
            self.serve_models = [BUNDLED_MODEL] * TRAIN_SETS
            rb = model_io.load_model(BUNDLED_MODEL)
            # flags read 2 about as often as the rules' means suggest
            share = np.clip(rb.means[:, 1:].mean(axis=0) - 1.0, 0.01, 0.99)
            synth_covid.write_csv(self.features, synth_covid.serving_features(
                wl.serve_rows, seed + 2 * 10**6, share))
            self.X = np.array(load_csv(self.features).rows, dtype=float)
        else:
            self.serve_models = self.models
            ds = clean(raw_csv(work / "serve.csv", wl.serve_rows, 2))
            tally.check(ds.feature_names == names,
                        "serving CSV cleans to other features than train CSV")
            self.X = ds.features
            write_features(self.features, ds.feature_names, self.X)
        self.options = ["--seed", str(seed), *self.cfg_args]
        self.tracer = None  # set while a traced cycle runs
        self.d = 0  # the train set (and its model) the cycle uses
        # per serving model: (model, predict_batch on X), set on first use
        self.refs = {}
        self.model_sha = {}  # per train set
        self.scores = {}  # per train set
        # train and evaluate times are kept per train set: "train0",
        # "evaluate0", "train1", ...; predict times in "predict"
        self.times = {"predict": []}
        self.latencies_us = []  # arrays of single-row call times
        self.row = 0  # next serving row for a single-row call

    def _cli(self, options, command, args) -> bool:
        main = self.cli.main
        if self.tracer is not None:
            main = self.tracer.wrap(f"cli.{command}", main)
        return run_cli(main, [*options, command, *args], self.tally)

    def _timed(self, key, record, options, command, args):
        t0 = time.perf_counter()
        ok = self._cli(options, command, args)
        dt = time.perf_counter() - t0
        if record:
            self.times.setdefault(key, []).append(dt)
        return ok, dt

    def _train(self, record) -> float:
        model = self.models[self.d]
        ok, dt = self._timed(f"train{self.d}", record, self.options, "train",
                             [str(self.raws[self.d]), "-o", str(model)])
        if ok:
            digest = sha256(model)
            self.tally.check(
                digest == self.model_sha.setdefault(self.d, digest),
                "same seed gave a different model file")
        serve = self.serve_models[self.d]
        if serve not in self.refs:  # the model file is the same on every train
            rb = self.model_io.load_model(serve)
            self.refs[serve] = rb, self.inference.predict_batch(rb, self.X)
        return dt

    def _evaluate(self, record) -> float:
        report = self.work / "report"
        ok, dt = self._timed(f"evaluate{self.d}", record, self.options,
                             "evaluate",
                             [str(self.models[self.d]),
                              str(self.eval_csvs[self.d]),
                              "--baselines", "-o", str(report)])
        if ok:
            kv = read_kv(f"{report}.kv")
            if self.tally.check(kv_consistent(kv),
                                "evaluate .kv confusion/majority accounting"):
                scores = (float(kv["type2.accuracy"]),
                          float(kv["type2.macro_f"]), float(kv["knn.accuracy"]))
                self.tally.check(
                    scores == self.scores.setdefault(self.d, scores),
                    "same seed gave different evaluate scores")
        return dt

    def _predict(self, record) -> float:
        pred = self.work / "pred.csv"
        serve = self.serve_models[self.d]
        ok, dt = self._timed("predict", record, (), "predict",
                             [str(serve), str(self.features), "-o", str(pred)])
        if ok:
            self.tally.check(predictions_match(pred, self.refs[serve][1]),
                             "predict CSV differs from in-process predict_batch")
        return dt

    def cycle(self, repeats=(1, 1, 1), record=True, train_set=0) -> float:
        """Train on `train_set`, evaluate and predict `repeats` times each,
        in turn; after every command a share of the single-row calls.
        Returns the seconds spent in the program."""
        self.d = train_set
        trains, evaluates, predicts = repeats
        # train, evaluate, predict, train, ...: repeats of one command are
        # spread over the cycle, so their fastest is less often a slow period
        steps = [step for group in itertools.zip_longest(
                     [self._train] * trains, [self._evaluate] * evaluates,
                     [self._predict] * predicts) for step in group if step]
        share, extra = divmod(self.wl.calls, len(steps))
        spent = 0.0
        for k, step in enumerate(steps):
            spent += step(record)
            spent += self._single_rows(share + (k < extra), record)
        return spent

    def _single_rows(self, calls, record) -> float:
        """`calls` timed inference.predict calls after a short warm-up,
        continuing through the serving rows where the last block stopped."""
        (rb, ref), X = self.refs[self.serve_models[self.d]], self.X
        n = X.shape[0]
        for _ in range(WARMUP_CALLS):
            self.inference.predict(rb, X[self.row % n])
        lat = np.empty(calls)
        bad = []
        clock = time.perf_counter_ns
        start = clock()
        for j in range(calls):
            i = self.row % n
            self.row += 1
            t0 = clock()
            try:
                p = self.inference.predict(rb, X[i])
            except Exception as exc:  # counted below as a failed call
                p = exc
            lat[j] = clock() - t0
            if isinstance(p, Exception) or not single_row_matches(p, ref, i):
                bad.append((i, p))
        spent = (clock() - start) / 1e9
        self.tally.attempted += calls
        self.tally.failed += len(bad)
        for i, p in bad[:5]:
            print(f"FAILED: single-row predict of row {i}: {p!r} vs batch "
                  f"crisp {ref.crisp[i]!r}", file=sys.stderr)
        if record:
            self.latencies_us.append(lat / 1e3)
        return spent


def end_to_end(bench, setup_times) -> dict:
    """Timings, memory and scores of a run; see README, End-to-end metrics.

    The host's slow periods only ever add time, so a command's time is the
    fastest of its repeats on the same input, averaged over the train sets.
    """
    t = bench.times
    lat = np.concatenate(bench.latencies_us)

    def fastest(command):
        return statistics.fmean(min(v) for k, v in t.items()
                                if k.startswith(command))

    # each score: the median over the train sets' models
    acc, macro_f, knn = (map(statistics.median, zip(*bench.scores.values()))
                         if bench.scores else (float("nan"),) * 3)
    return {
        "setup_s": min(setup_times),
        "train_s": fastest("train"),
        "evaluate_s": fastest("evaluate"),
        "score_p90_us": float(np.percentile(lat, 90)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "type2_accuracy": acc,
        "type2_macro_f": macro_f,
        "knn_accuracy": knn,
    }


def untraced_serving(bench) -> dict:
    """Serving figures of the untraced cycles of a traced run.

    They swing with the host's clock more than any end-to-end bound allows
    (see README, Noise), so they are reported without a bound.
    """
    lat = np.concatenate(bench.latencies_us)
    return {
        "cli.predict_rows_per_s":
            bench.X.shape[0] / statistics.median(bench.times["predict"]),
        "inference.score_p50_us": float(np.percentile(lat, 50)),
        "inference.score_p99_us": float(np.percentile(lat, 99)),
    }


def more_cycles(start, seconds, walls) -> bool:
    """Whether another cycle ends at most half a cycle past the deadline."""
    elapsed = time.perf_counter() - start
    return elapsed + statistics.median(walls) / 2 < seconds


def measured_run(bench, seconds) -> dict:
    """End-to-end metrics over cycles that rotate through the train sets,
    each used at least once; set-up samples in between."""
    setup = measure_setup(bench.tally, SETUP_PER_CYCLE)
    walls = []
    start = time.perf_counter()
    while len(walls) < TRAIN_SETS or more_cycles(start, seconds, walls):
        t0 = time.perf_counter()
        bench.cycle(bench.wl.repeats, train_set=len(walls) % TRAIN_SETS)
        setup += measure_setup(
            bench.tally, min(SETUP_PER_CYCLE, SETUP_RUNS - len(setup)))
        walls.append(time.perf_counter() - t0)
    setup += measure_setup(bench.tally, SETUP_RUNS - len(setup))
    return end_to_end(bench, setup)


def traced_run(bench, seconds, spans_path) -> dict:
    """Per-layer medians over traced cycles, plus the tracing overhead.

    After a warm-up cycle, traced and untraced cycles alternate until
    `seconds` have passed (warm-up included) and each kind has run once.
    """
    import layers
    from tracer import Tracer

    tracer = Tracer()
    plain, traced, per_cycle = [], [], []
    start = time.perf_counter()
    bench.cycle(record=False)
    walls = [time.perf_counter() - start]
    k = 0
    while not plain or more_cycles(start, seconds, walls):
        t0 = time.perf_counter()
        if k % 2:
            plain.append(bench.cycle())
        else:
            tracer.run = k
            layers.install(tracer)
            bench.tracer = tracer
            try:
                traced.append(bench.cycle(record=False))
            finally:
                bench.tracer = None
                tracer.restore()
            per_cycle.append(layers.layer_metrics(tracer.spans, k))
        walls.append(time.perf_counter() - t0)
        k += 1
    tracer.dump(spans_path)
    for name, wall, summed in layers.command_self_sums(tracer.spans):
        bench.tally.check(abs(summed - wall) <= 1e-9 * max(wall, 1.0),
                          f"{name}: span self times sum to {summed!r} "
                          f"but the command took {wall!r}")
    metrics = {name: statistics.median(c[name] for c in per_cycle)
               for name in per_cycle[0]}
    metrics.update(untraced_serving(bench))
    metrics["trace.overhead_ratio"] = (statistics.median(traced)
                                       / statistics.median(plain) - 1.0)
    metrics["trace.spans_per_cycle"] = len(tracer.spans) / len(traced)
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "it2fis" / "cli.py").is_file():
        print(f"it2fis sources not found under {SRC}; run from the root of "
              f"a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    tally = Tally()
    out = BENCH / "out"
    work = out / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work, tally)
        if args.trace:
            metrics = traced_run(
                bench, args.seconds,
                out / f"spans-{args.workload}-{args.seed}.jsonl")
            units = {}
        else:
            metrics = measured_run(bench, args.seconds)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{name} = {value!r} {units.get(name, '')}".rstrip())
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"failed_ratio = {ratio!r} ({tally.failed} of {tally.attempted})")
    print("env " + json.dumps(environment(args.workload, args.seed)))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value,
                           "unit": units.get(name) or layer_unit(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


def layer_unit(name) -> str:
    if name.endswith("_per_s"):
        return "rows/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_ms_per_iter"):
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
