"""The package's public surface."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import it2fis


def test_every_exported_name_resolves():
    missing = [name for name in it2fis.__all__ if not hasattr(it2fis, name)]
    assert missing == []
    assert len(set(it2fis.__all__)) == len(it2fis.__all__)


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


def test_python_dash_m_runs_the_command_line():
    """`python -m it2fis` runs the command line through `__main__.py`, as
    perfbench's `setup_s` does."""
    package = Path(it2fis.__file__).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(package.parent), os.environ.get("PYTHONPATH")) if p))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "it2fis", *args],
                              capture_output=True, text=True, env=env,
                              timeout=120)

    done = run("inspect-model", str(package / "icu_admission.model"))
    assert done.returncode == 0, done.stderr
    assert "rules: 5\n" in done.stdout
    done = run()
    assert done.returncode == 1
    assert "required: command" in done.stderr
