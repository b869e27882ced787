"""Wall time and peak RSS of `it2fis predict` on the bundled model.

Writes bundled-model feature files of each --rows size with perfbench's
`synth_covid.serving_features` (flags read 2 about as often as the rules'
means suggest, as in perfbench's `pipeline` workload), then runs
`python -m it2fis predict` on each in a fresh process, --repeats times, and
once `python -m it2fis inspect-model`, whose peak RSS is the interpreter
with the package and the model loaded: the part of predict's RSS that does
not depend on the input.  The wall time and peak RSS of each run (from the
rusage `os.wait4` returns for it), the SHA-256 of each predict output and
the environment block of `benchlib` (with the git state of --src) go to
--out under the key --label, next to what other labels already hold there,
so one file can compare two source trees:

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
# this process, which holds numpy and the generated columns.
LAUNCHER = """\
import os, sys, time
t0 = time.perf_counter()
pid = os.posix_spawn(sys.executable, [sys.executable, *sys.argv[1:]],
                     os.environ, file_actions=[
                         (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), time.perf_counter() - t0,
      usage.ru_maxrss)
"""


def run(argv, src):
    """(wall seconds, peak RSS in MB) of `python -m it2fis argv`."""
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", LAUNCHER, "-m", "it2fis",
                          *argv], env=env, capture_output=True, text=True,
                         check=True).stdout.split()
    if out[0] != "0":
        raise SystemExit(f"it2fis {' '.join(argv)} exited {out[0]}")
    return float(out[1]), int(out[2]) / 1024  # ru_maxrss is in KiB on Linux


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--rows", type=int, nargs="+",
                    default=[16000, 64000, 128000])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--src", default=str(SRC))
    ap.add_argument("--label", default="change")
    ap.add_argument("--out", default="BENCH_predict.json")
    args = ap.parse_args(argv)
    src = pathlib.Path(args.src).resolve()
    model = src / "it2fis" / "icu_admission.model"

    sizes = []
    with tempfile.TemporaryDirectory() as tmp:
        _, base_mb = run(["inspect-model", str(model)], src)
        for rows in args.rows:
            features = os.path.join(tmp, f"features{rows}.csv")
            out = os.path.join(tmp, "pred.csv")
            write_serving_features(features, rows, args.seed)
            walls, rss = [], []
            for _ in range(args.repeats):
                wall, mb = run(["predict", str(model), features, "-o", out],
                               src)
                walls.append(wall)
                rss.append(mb)
            sizes.append({
                "rows": rows,
                "wall_s": sorted(walls),
                "median_wall_s": statistics.median(walls),
                "rows_per_s": rows / statistics.median(walls),
                "peak_rss_mb": sorted(rss),
                "median_peak_rss_mb": statistics.median(rss),
                "added_rss_mb": statistics.median(rss) - base_mb,
                "output_sha256": sha256(out),
            })
            print(f"predict {rows} rows: {sizes[-1]['median_wall_s']:.3f} s, "
                  f"peak RSS {sizes[-1]['median_peak_rss_mb']:.1f} MB "
                  f"({sizes[-1]['added_rss_mb']:+.1f} over inspect-model)")

    result = {
        "benchmark": "predict",
        "model": "bundled",
        "features": load_bundled_model().n_features,
        "seed": args.seed,
        "repeats": args.repeats,
        "inspect_model_rss_mb": base_mb,
        "sizes": sizes,
    }
    write_result(args.out, result, src, args.label)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
