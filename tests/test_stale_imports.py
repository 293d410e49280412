"""Every ``repro`` import in the scripts that live outside ``src/`` resolves.

Examples, CI smoke scripts, benchmarks and test-data generators are not
all run by the test suite, and a linter cannot tell that
``from repro.x import name`` names something that no longer exists.  This
test parses each of them and resolves every imported ``repro`` module and
name, so a removed API cannot linger in them unnoticed.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT_GLOBS = (
    "examples/*.py",
    ".github/workflows/*.py",
    "benchmarks/*.py",
    "tests/data/*.py",
)
SCRIPTS = sorted(p for pattern in SCRIPT_GLOBS for p in ROOT.glob(pattern))


def _repro_imports(path: Path):
    """Yield ``(lineno, module, name)``; ``name`` is None for ``import m``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    yield node.lineno, alias.name, None
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and module.split(".")[0] == "repro":
                for alias in node.names:
                    yield node.lineno, module, alias.name


def _resolves(module: str, name) -> bool:
    try:
        mod = importlib.import_module(module)
    except ImportError:
        return False
    if name is None or name == "*" or hasattr(mod, name):
        return True
    try:  # ``from package import submodule``
        importlib.import_module(f"{module}.{name}")
    except ImportError:
        return False
    return True


def test_script_globs_find_files():
    for pattern in SCRIPT_GLOBS:
        assert list(ROOT.glob(pattern)), f"no files match {pattern}"


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=[str(p.relative_to(ROOT)) for p in SCRIPTS]
)
def test_repro_imports_resolve(path):
    stale = [
        f"{path.relative_to(ROOT)}:{lineno}: {module}"
        + (f" import {name}" if name else "")
        for lineno, module, name in _repro_imports(path)
        if not _resolves(module, name)
    ]
    assert not stale, "stale repro imports:\n" + "\n".join(stale)
