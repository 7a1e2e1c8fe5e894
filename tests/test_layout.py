"""Module layout: no qs4 module imports another module's private names,
every module's __all__ names only what it defines, the guarded band is
computed in one place, importing the CLI loads no heavy scipy subpackage,
and scipy.fft is bound as `sfft` in grid and functional only."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qs4

SRC = Path(qs4.__file__).parent
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")


def _is_private(name: str) -> bool:
    # dunders such as __version__ are public package metadata
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_no_private_cross_module_imports():
    offences = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                offences += [f"{path.name}:{node.lineno} imports {alias.name} from .{node.module or ''}"
                             for alias in node.names if _is_private(alias.name)]
    assert not offences, offences


@pytest.mark.parametrize("name", MODULES)
def test_star_import_exports_all(name):
    module = importlib.import_module(f"qs4.{name}")
    namespace = {}
    exec(f"from qs4.{name} import *", namespace)
    # errors.py has no __all__: its star import takes every public name
    assert set(getattr(module, "__all__", ())) <= namespace.keys()


def test_band_formula_only_in_grid():
    # Grid2D.band is the one product BAND_GUARD_FRACTION * nyquist; other
    # modules may name the constant in a message but not compute with it
    offences = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, (ast.BinOp, ast.Compare)) and any(
                    isinstance(sub, ast.Name) and sub.id == "BAND_GUARD_FRACTION"
                    for sub in ast.walk(node)):
                offences.append(f"{path.name}:{node.lineno}")
    assert offences and all(o.startswith("grid.py:") for o in offences), offences


def test_cli_import_loads_no_heavy_scipy():
    # every qs4 run pays the CLI's import time; scipy.linalg adds about 40 ms
    # to it and scipy.optimize about 145 ms, and nothing in qs4 needs them
    path = [str(SRC.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    heavy = ("scipy.linalg", "scipy.optimize", "scipy.sparse")
    code = f"import sys, qs4.cli; print(sorted(m for m in {heavy!r} if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]", out.stdout


def test_fft_bound_as_sfft_in_grid_and_functional_only():
    # perfbench's tracer proxies the `sfft` binding of these two modules; a
    # transform issued through any other binding would escape the fft.* metrics
    bindings = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                bindings |= {(path.name, alias.asname or alias.name) for alias in node.names
                             if alias.name.startswith("scipy.fft")}
            elif isinstance(node, ast.ImportFrom) and node.module:
                bindings |= {(path.name, alias.asname or alias.name) for alias in node.names
                             if f"{node.module}.{alias.name}".startswith("scipy.fft")}
    assert bindings == {("functional.py", "sfft"), ("grid.py", "sfft")}, bindings
