"""Module layout: no qs4 module imports another module's private names."""

import ast
from pathlib import Path

import qs4

SRC = Path(qs4.__file__).parent


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
