"""Start-up cost of fresh `python -m it2fis` processes.

Runs `python -m it2fis inspect-model` on the bundled model and
`python -m it2fis predict` on it with a small feature file (--rows rows of
perfbench's `synth_covid.serving_features`, as `bench_predict.py` writes
them), --runs times each, the two commands alternating, each in a fresh
interpreter timed from this process.  One more untimed run of each reports
the it2fis modules the command loaded.  The fastest and the median wall
time of each command, those modules and the environment block of
`benchlib` (with the git state of --src) go to --out under the key
--label, next to what other labels already hold there, so one file can
compare two source trees:

    python3 benchmarks/bench_startup.py --label change
    python3 benchmarks/bench_startup.py --src ../parent/src --label parent

`--src` is the source tree the child processes import (default: this
checkout's `src/`).
"""

import argparse
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

from benchlib import SRC, write_result, write_serving_features

# runs `python -m it2fis argv` as -m does, then prints the it2fis modules
# loaded by then as the last line of stderr
LOADED = """\
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


def run(args, src):
    """Wall seconds of a fresh `python args` importing the package from
    src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], env=env, check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


def modules_loaded(argv, src):
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", LOADED, *argv], env=env,
                          check=True, capture_output=True, text=True)
    return done.stderr.splitlines()[-1].split()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=15)
    ap.add_argument("--rows", type=int, default=200)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--src", default=str(SRC))
    ap.add_argument("--label", default="change")
    ap.add_argument("--out", default="BENCH_startup.json")
    args = ap.parse_args(argv)
    src = pathlib.Path(args.src).resolve()
    model = src / "it2fis" / "icu_admission.model"

    commands = {}
    with tempfile.TemporaryDirectory() as tmp:
        features = os.path.join(tmp, "features.csv")
        write_serving_features(features, args.rows, args.seed)
        argvs = {
            "inspect-model": ["inspect-model", str(model)],
            "predict": ["predict", str(model), features,
                        "-o", os.path.join(tmp, "pred.csv")],
        }
        walls = {name: [] for name in argvs}
        for _ in range(args.runs):
            for name, cmd in argvs.items():
                walls[name].append(run(["-m", "it2fis", *cmd], src))
        for name, cmd in argvs.items():
            commands[name] = {
                "min_s": min(walls[name]),
                "median_s": statistics.median(walls[name]),
                "wall_s": sorted(walls[name]),
                "modules": modules_loaded(cmd, src),
            }
            print(f"{name}: min {commands[name]['min_s'] * 1e3:.1f} ms, "
                  f"median {commands[name]['median_s'] * 1e3:.1f} ms, "
                  f"{len(commands[name]['modules'])} it2fis modules")

    result = {
        "benchmark": "startup",
        "runs": args.runs,
        "predict_rows": args.rows,
        "commands": commands,
    }
    write_result(args.out, result, src, args.label)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
