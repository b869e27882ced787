"""What every script in `benchmarks/` shares.

Importing it sets OPENBLAS_NUM_THREADS to 1 unless it is already set (one
BLAS thread per process, as in perfbench: the forked workers already use
every CPU, and a run pinned to one CPU must not gain a second BLAS thread),
and puts this checkout's `src/` and `perfbench/` first on `sys.path`, so a
script runs from a checkout as it stands, without PYTHONPATH.  Import it
before numpy.

Every result a script writes holds the environment block of `environment`,
through `write_result`.
"""

import json
import os
import pathlib
import platform
import subprocess
import sys
import time

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import synth_covid  # noqa: E402
from it2fis import kernels  # noqa: E402
from it2fis.model_io import load_bundled_model  # noqa: E402


def git_state(src):
    """(commit SHA, whether the files under src differ from it) of the
    checkout holding src; (None, None) outside one."""
    def git(*argv):
        try:
            return subprocess.run(["git", *argv], capture_output=True,
                                  text=True, timeout=10, cwd=src).stdout
        except OSError:
            return ""
    sha = git("rev-parse", "HEAD").strip()
    if not sha:
        return None, None
    return sha, bool(git("status", "--porcelain", "--", "."))


def environment(src=SRC):
    """The keys every result records: the CPUs this process may use, the
    kernel backend, the Python and numpy versions, the OpenBLAS thread
    count, and the git state of the source tree src."""
    sha, modified = git_state(src)
    return {
        "cores": len(os.sched_getaffinity(0)),
        "backend": kernels.backend(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_sha": sha,
        "src_modified": modified,
    }


def write_result(path, result, src=SRC, label=None):
    """Write result, with the environment of src, as JSON to path: the whole
    file, or with a label the entry under that key, beside what other labels
    already hold there."""
    doc = {**result, **environment(src)}
    if label is not None:
        old = {}
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                old = json.load(f)
        doc = {**old, label: doc}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def _timed(fn, cpus):
    os.sched_setaffinity(0, cpus)
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def all_cpus_and_one(fn, repeats, what):
    """Time fn() twice per repeat: on every CPU this process may use, then
    pinned to one of them with `os.sched_setaffinity` (Linux only).

    Exits naming `what` if the two results of a repeat differ.  Returns the
    all-CPUs seconds, the one-CPU seconds and the last all-CPUs result, and
    leaves the affinity as it found it.
    """
    all_cpus = os.sched_getaffinity(0)
    pooled_s, serial_s = [], []
    try:
        for _ in range(repeats):
            t, pooled = _timed(fn, all_cpus)
            pooled_s.append(t)
            t, serial = _timed(fn, {min(all_cpus)})
            serial_s.append(t)
            if pooled != serial:
                raise SystemExit(f"{what} on all CPUs differs from one CPU")
    finally:
        os.sched_setaffinity(0, all_cpus)
    return pooled_s, serial_s, pooled


def write_serving_features(path, rows, seed):
    """Write rows of perfbench's `synth_covid.serving_features` for the
    bundled model to path: each flag reads 2 about as often as the rules'
    means suggest, as in perfbench's `pipeline` workload."""
    share = np.clip(load_bundled_model().means[:, 1:].mean(axis=0) - 1.0,
                    0.01, 0.99)
    synth_covid.write_csv(path, synth_covid.serving_features(rows, seed, share))
