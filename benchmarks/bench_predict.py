"""Wall time, peak RSS and loaded modules of fresh `it2fis` processes.

Writes bundled-model feature files of each --rows size with perfbench's
`synth_covid.serving_features` (flags read 2 about as often as the rules'
means suggest, as in perfbench's `pipeline` workload), then runs
`python -m it2fis inspect-model` on the bundled model and
`python -m it2fis predict` on it with each file, --repeats rounds of every
command, each in a fresh process.  `inspect-model`'s peak RSS is the
interpreter with the package and the model loaded: the part of predict's
RSS that does not depend on the input.  The smallest --rows size is the
start-up cost of `predict`.  The wall time and peak RSS of each run (from
the rusage `os.wait4` returns for it), the it2fis modules each command
loaded, the SHA-256 of each predict output and the environment block of
`benchlib` (with the git state of --src) go to --out under the key
--label, next to what other labels already hold there, so one file can
compare two source trees:

    python3 benchmarks/bench_predict.py --label change
    python3 benchmarks/bench_predict.py --src ../parent/src --label parent

`--src` is the source tree the child processes import (default: this
checkout's `src/`).
"""

import argparse
import hashlib
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile

from benchlib import SRC, write_result, write_serving_features
from it2fis.model_io import load_bundled_model


# A child's ru_maxrss starts from the RSS of the process that spawned it
# (Linux carries the spawner's high-water mark over the exec), so the
# command is spawned by a fresh interpreter that imports nothing, not by
# this process, which holds numpy and the generated columns.  The command
# runs `python -m it2fis argv` as -m does, then prints the it2fis modules
# loaded by then on its stderr, which the launcher passes on.
LAUNCHER = """\
import os, sys, time
t0 = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, "-c", sys.argv[1],
                                      *sys.argv[2:]],
                     os.environ, file_actions=[
                         (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), time.perf_counter() - t0,
      usage.ru_maxrss)
"""

COMMAND = """\
import runpy, sys
sys.argv[0] = "it2fis"
try:
    runpy.run_module("it2fis", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    if exc.code:
        raise
print(*sorted(m for m in sys.modules if m.split(".")[0] == "it2fis"),
      file=sys.stderr)
"""


def run(argv, src):
    """(wall seconds, peak RSS in MB, it2fis modules loaded) of
    `python -m it2fis argv`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", LAUNCHER, COMMAND, *argv],
                          env=env, capture_output=True, text=True,
                          check=True)
    code, wall, rss = done.stdout.split()
    if code != "0":
        raise SystemExit(f"it2fis {' '.join(argv)} exited {code}: "
                         f"{done.stderr}")
    modules = done.stderr.splitlines()[-1].split()
    return float(wall), int(rss) / 1024, modules  # ru_maxrss is in KiB


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def summary(runs):
    """The record of one command's runs, (wall, RSS, modules) each."""
    walls = [r[0] for r in runs]
    rss = [r[1] for r in runs]
    return {
        "wall_s": sorted(walls),
        "min_wall_s": min(walls),
        "median_wall_s": statistics.median(walls),
        "peak_rss_mb": sorted(rss),
        "median_peak_rss_mb": statistics.median(rss),
        "modules": runs[0][2],
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rows", type=int, nargs="+",
                    default=[200, 16000, 64000, 128000])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--src", default=str(SRC))
    ap.add_argument("--label", default="change")
    ap.add_argument("--out", default="BENCH_predict.json")
    args = ap.parse_args(argv)
    src = pathlib.Path(args.src).resolve()
    model = src / "it2fis" / "icu_admission.model"

    with tempfile.TemporaryDirectory() as tmp:
        argvs = {"inspect-model": ["inspect-model", str(model)]}
        for rows in args.rows:
            features = os.path.join(tmp, f"features{rows}.csv")
            write_serving_features(features, rows, args.seed)
            argvs[rows] = ["predict", str(model), features,
                           "-o", os.path.join(tmp, f"pred{rows}.csv")]
        # the commands alternate within each round, so a drift of the
        # host's speed reaches every command alike
        runs = {name: [] for name in argvs}
        for _ in range(args.repeats):
            for name, cmd in argvs.items():
                runs[name].append(run(cmd, src))
        inspect = summary(runs.pop("inspect-model"))
        sizes = []
        for rows, rows_runs in runs.items():
            size = {"rows": rows, **summary(rows_runs)}
            size["rows_per_s"] = rows / size["median_wall_s"]
            size["added_rss_mb"] = (size["median_peak_rss_mb"]
                                    - inspect["median_peak_rss_mb"])
            size["output_sha256"] = sha256(argvs[rows][-1])
            sizes.append(size)

    print(f"inspect-model: min {inspect['min_wall_s'] * 1e3:.1f} ms, "
          f"peak RSS {inspect['median_peak_rss_mb']:.1f} MB, "
          f"{len(inspect['modules'])} it2fis modules")
    for size in sizes:
        print(f"predict {size['rows']} rows: min "
              f"{size['min_wall_s'] * 1e3:.1f} ms, median "
              f"{size['median_wall_s']:.3f} s, peak RSS "
              f"{size['median_peak_rss_mb']:.1f} MB "
              f"({size['added_rss_mb']:+.1f} over inspect-model), "
              f"{len(size['modules'])} it2fis modules")

    result = {
        "benchmark": "predict",
        "model": "bundled",
        "features": load_bundled_model().n_features,
        "seed": args.seed,
        "repeats": args.repeats,
        "inspect_model": inspect,
        "sizes": sizes,
    }
    write_result(args.out, result, src, args.label)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
