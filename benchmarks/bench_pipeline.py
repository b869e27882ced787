"""Wall time of the criterion-7 workload at full size, per command and stage.

Generates perfbench's `synth_covid.generate(--raw-rows, 1)` once
(165,000 raw rows clean to 122,241 rows of 34 features), then runs
`it2fis train` and `it2fis evaluate --baselines` on it through `cli.main`,
in this process and with the default config, for seeds 0 to --seeds - 1,
as `tests/test_acceptance.covid_run` runs the real CSV for criterion 7.
The whole pass over the seeds runs --repeats times, so every seed runs at
least twice by default.  Each command's wall time and the seconds of each
CLI stage it ran come from wrapping `cli._stage`; a stage entered more than
once in a command (`save_model` checks its output first, then writes it)
is summed.  The record holds each pass's total over the seeds, the headline
number, with the spread of the totals; per seed the command and stage
seconds of every pass; and each seed's `.kv` quality keys, which must be
the same in every pass.  It goes to --out with the environment block of
`benchlib`.  OpenBLAS runs one thread unless OPENBLAS_NUM_THREADS says
otherwise.

    python3 benchmarks/bench_pipeline.py
    python3 benchmarks/bench_pipeline.py --raw-rows 20000 --seeds 2 \\
        --repeats 1 --out /tmp/pipeline.json
"""

import argparse
import contextlib
import io
import os
import statistics
import tempfile
import time

from benchlib import write_result
import synth_covid
from it2fis import cli

DATA_SEED = 1


@contextlib.contextmanager
def timed_stages(seconds):
    """Wrap `cli._stage` so that each stage's seconds add up in
    seconds[name] while the context is open."""
    stage = cli._stage

    @contextlib.contextmanager
    def timed(name):
        t0 = time.perf_counter()
        try:
            with stage(name):
                yield
        finally:
            seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - t0

    cli._stage = timed
    try:
        yield
    finally:
        cli._stage = stage


def run(argv):
    """(wall seconds, {stage: seconds}) of `it2fis argv`, its output
    discarded; exits naming the command if it fails."""
    stages = {}
    with timed_stages(stages), contextlib.redirect_stdout(io.StringIO()):
        t0 = time.perf_counter()
        rc = cli.main(argv)
        wall = time.perf_counter() - t0
    if rc != 0:
        raise SystemExit(f"it2fis {' '.join(argv)} exited {rc}")
    return wall, stages


def read_kv(path):
    with open(path, encoding="utf-8") as f:
        return dict(line.split("=", 1) for line in f.read().splitlines()
                    if line)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--raw-rows", type=int, default=165000)
    ap.add_argument("--seeds", type=int, default=5,
                    help="run seeds 0 .. N-1")
    ap.add_argument("--repeats", type=int, default=2,
                    help="passes over the seeds")
    ap.add_argument("--out", default="BENCH_pipeline.json")
    args = ap.parse_args(argv)

    seeds = {seed: {"train_s": [], "evaluate_s": [], "train_stages": [],
                    "evaluate_stages": [], "quality": None}
             for seed in range(args.seeds)}
    totals = []
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "raw.csv")
        synth_covid.write_csv(data, synth_covid.generate(args.raw_rows,
                                                         DATA_SEED))
        for _ in range(args.repeats):
            total = 0.0
            for seed, rec in seeds.items():
                model = os.path.join(tmp, f"seed{seed}.model")
                prefix = os.path.join(tmp, f"seed{seed}")
                for command, argv in (
                        ("train", ["train", data, "-o", model]),
                        ("evaluate", ["evaluate", model, data, "-o", prefix,
                                      "--baselines"])):
                    wall, stages = run(["--seed", str(seed), *argv])
                    rec[f"{command}_s"].append(wall)
                    rec[f"{command}_stages"].append(stages)
                    total += wall
                quality = read_kv(prefix + ".kv")
                if rec["quality"] not in (None, quality):
                    raise SystemExit(f"seed {seed}: the .kv keys differ "
                                     "between passes")
                rec["quality"] = quality
            totals.append(total)
            print(f"pass {len(totals)}: {total:.2f} s over "
                  f"{args.seeds} seeds")

    for seed, rec in seeds.items():
        print(f"seed {seed}: train {min(rec['train_s']):.2f} s, evaluate "
              f"{min(rec['evaluate_s']):.2f} s (best of {args.repeats}), "
              f"type-2 accuracy {rec['quality']['type2.accuracy']}")
    result = {
        "benchmark": "pipeline",
        "raw_rows": args.raw_rows,
        "data_seed": DATA_SEED,
        "repeats": args.repeats,
        "total_s": totals,
        "total_best_s": min(totals),
        "total_median_s": statistics.median(totals),
        "total_spread": (max(totals) - min(totals)) / min(totals),
        "seeds": {str(seed): rec for seed, rec in seeds.items()},
    }
    write_result(args.out, result)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
