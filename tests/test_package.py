"""The package's public surface."""

import ast
import os
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import it2fis
from it2fis.model_io import load_bundled_model


def test_every_exported_name_resolves():
    missing = [name for name in it2fis.__all__ if not hasattr(it2fis, name)]
    assert missing == []
    assert len(set(it2fis.__all__)) == len(it2fis.__all__)
    # the names resolve on first use, so a star import and dir() list them
    # all the same, and an unknown name still fails
    namespace = {}
    exec("from it2fis import *", namespace)
    assert set(it2fis.__all__) <= namespace.keys()
    assert set(it2fis.__all__) <= set(dir(it2fis))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        it2fis.no_such_name


def test_every_module_is_reached_from_the_command_line():
    """Each module in `src/it2fis` is imported, directly or through another,
    by `cli.py`: code that only tests use belongs under `tests/` (as
    `oracles.py`).  Reads the relative imports with `ast`, importing
    nothing."""
    package = Path(it2fis.__file__).parent
    reached, todo = set(), ["cli"]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        tree = ast.parse((package / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                if node.module:
                    todo.append(node.module.split(".")[0])
                else:  # from . import kernels
                    todo.extend(alias.name for alias in node.names)
    modules = {p.stem for p in package.glob("*.py")} - {"__init__", "__main__"}
    assert sorted(modules - reached) == []


PACKAGE = Path(it2fis.__file__).parent
BUNDLED = PACKAGE / "icu_admission.model"


def test_every_stage_a_command_calls_resolves():
    """Each stage a command calls as `_cli.<name>` is in `cli.__getattr__`'s
    table: the function of that name in the module that defines it.  Reads
    the calls with `ast`, so a stage missing from the table fails here, not
    at run time on a path no test takes."""
    from it2fis import cli

    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "_cli"}
    assert names
    for name in sorted(names):
        stage = getattr(cli, name)
        assert stage.__name__ == name
        assert getattr(sys.modules[stage.__module__], name) is stage


def _python(*args):
    """`python args` in a fresh interpreter that imports the package from
    this tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(PACKAGE.parent), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


# runs `python -m it2fis argv` as -m does, then prints the it2fis modules
# loaded by then as the last line of stderr
_LOADED = """\
import runpy, sys
sys.argv[0] = "it2fis"
try:
    runpy.run_module("it2fis", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert exc.code == 0, exc.code
print(*sorted(m for m in sys.modules if m.split(".")[0] == "it2fis"),
      file=sys.stderr)
"""


def _modules_loaded_by(*args):
    """The it2fis modules a fresh `python -m it2fis args` imports."""
    done = _python("-c", _LOADED, *args)
    assert done.returncode == 0, done.stderr
    return set(done.stderr.splitlines()[-1].split())


def test_python_dash_m_runs_the_command_line():
    """`python -m it2fis` runs the command line through `__main__.py`, as
    perfbench's `setup_s` does."""
    done = _python("-m", "it2fis", "inspect-model", str(BUNDLED))
    assert done.returncode == 0, done.stderr
    assert "rules: 5\n" in done.stdout
    done = _python("-m", "it2fis")
    assert done.returncode == 1
    assert "required: command" in done.stderr


def test_reading_a_model_loads_no_training_code(tmp_path):
    """Each command imports only the modules it runs: `inspect-model` the
    model reader, `predict` the engine and the CSV reader, neither the
    cluster scan, the tuners, the baselines nor the config."""
    assert _modules_loaded_by("inspect-model", str(BUNDLED)) == {
        "it2fis", "it2fis.cli", "it2fis.errors", "it2fis.model_io",
        "it2fis.rules"}

    names = load_bundled_model().variable_names
    features = tmp_path / "features.csv"
    features.write_text(",".join(names) + "\n" + ",".join(["1"] * len(names))
                        + "\n", encoding="utf-8")
    loaded = _modules_loaded_by("predict", str(BUNDLED), str(features),
                                "-o", str(tmp_path / "out.csv"))
    assert {"it2fis.inference", "it2fis.preprocess"} <= loaded
    assert loaded.isdisjoint({f"it2fis.{name}" for name in (
        "clustering", "learning", "evaluation", "config", "parallel")})


def test_preprocess_and_evaluate_load_no_training_code(tmp_path):
    """`preprocess` imports the cleaning code alone, and `evaluate
    --baselines` the engine and the baselines besides: neither the cluster
    scan nor the tuners."""
    rng = np.random.default_rng(0)
    columns = [rng.integers(20, 90, 40)] + [rng.integers(1, 3, 40)
                                            for _ in range(27)]
    data = tmp_path / "data.csv"
    np.savetxt(data, np.column_stack(columns), fmt="%d", delimiter=",",
               header=",".join([*load_bundled_model().variable_names, "icu"]),
               comments="")
    assert _modules_loaded_by(
        "preprocess", str(data), "-o", str(tmp_path / "clean.csv")) == {
        "it2fis", "it2fis.cli", "it2fis.config", "it2fis.errors",
        "it2fis.preprocess"}
    assert _modules_loaded_by(
        "evaluate", str(BUNDLED), str(data), "--baselines") == {
        "it2fis", "it2fis.cli", "it2fis.config", "it2fis.errors",
        "it2fis.evaluation", "it2fis.inference", "it2fis.kernels",
        "it2fis.model_io", "it2fis.parallel", "it2fis.preprocess",
        "it2fis.rules"}


def test_preprocess_is_the_module():
    """`it2fis.preprocess` is the submodule however it is reached; the
    cleaning function is `it2fis.preprocess.preprocess`."""
    import it2fis.preprocess as pp

    assert isinstance(pp, types.ModuleType)
    assert it2fis.preprocess is pp is sys.modules["it2fis.preprocess"]
    assert callable(pp.preprocess) and "preprocess" not in it2fis.__all__
