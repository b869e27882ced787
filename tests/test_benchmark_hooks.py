"""The package names the benchmark's tracer wraps, checked in tier-1.

`perfbench/layers.py` patches package functions from outside, by module
attribute name.  A kernel that is renamed, removed or inlined into its
caller would only show up as a failing traced benchmark run; these tests
make it fail here instead.
"""

import importlib
import pathlib
import sys

import numpy as np
import pytest

from it2fis import cli, clustering, inference, kernels, learning

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name):
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.fixture(scope="module")
def layers():
    return _perfbench_module("layers")


def test_every_traced_name_exists(layers):
    for name in layers.KERNELS:
        assert callable(getattr(kernels, name)), name
    for layer, names in layers.CLI_IMPORTS.items():
        module = importlib.import_module(f"it2fis.{layer}")
        for name in names:
            # cli binds the stage with `from ... import`, so the tracer must
            # patch cli's own name, which must be the layer's function
            assert getattr(cli, name) is getattr(module, name), name
    assert learning.fcm is clustering.fcm
    assert callable(learning.gk) and callable(inference.predict)


def test_fcm_runs_through_the_traced_kernels(layers):
    tracer = _perfbench_module("tracer").Tracer()
    originals = {name: getattr(kernels, name) for name in layers.KERNELS}
    X = np.random.default_rng(0).random((40, 3))
    layers.install(tracer)
    try:
        clustering.fcm(X, 3, tol=0.0, max_iter=4)
    finally:
        tracer.restore()
    names = [s.name for s in tracer.spans]
    assert names[0] == "clustering.fcm"
    assert names.count("kernels.sq_distances") == 4
    assert names.count("kernels.fcm_memberships") == 4
    assert all(s.parent == 0 for s in tracer.spans[1:])
    assert {name: getattr(kernels, name) for name in layers.KERNELS} == originals
