"""Every ``repro`` import in the examples, scripts and benchmarks resolves.

Nothing else imports these files (and ruff skips ``benchmarks/``), so a
deleted or renamed public name would break them silently.  The files are
parsed, never executed: each ``import repro…`` module and each name of a
``from repro… import …`` must exist.
"""

import ast
import importlib
from pathlib import Path
from typing import List, Tuple

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT_DIRS = ("examples", "scripts", "benchmarks")
SCRIPTS = sorted(
    path
    for directory in SCRIPT_DIRS
    for path in (ROOT / directory).rglob("*.py")
)


def _is_repro(module: str) -> bool:
    return module == "repro" or module.startswith("repro.")


def repro_imports(path: Path) -> List[Tuple[int, str, str]]:
    """``(line, module, name)`` per repro import; ``name`` is ``""`` for a
    plain ``import repro…``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found.extend(
                (node.lineno, alias.name, "")
                for alias in node.names
                if _is_repro(alias.name)
            )
        elif isinstance(node, ast.ImportFrom) and _is_repro(
            node.module or ""
        ):
            found.extend(
                (node.lineno, node.module, alias.name)
                for alias in node.names
            )
    return found


def test_scripts_found():
    assert {path.relative_to(ROOT).parts[0] for path in SCRIPTS} == set(
        SCRIPT_DIRS
    )
    assert any(repro_imports(path) for path in SCRIPTS)


@pytest.mark.parametrize(
    "path", SCRIPTS, ids=[str(p.relative_to(ROOT)) for p in SCRIPTS]
)
def test_repro_imports_resolve(path):
    missing = []
    for line, module_name, name in repro_imports(path):
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            missing.append(f"line {line}: import {module_name}: {exc}")
            continue
        if not name or hasattr(module, name):
            continue
        try:  # ``from package import submodule``
            importlib.import_module(f"{module_name}.{name}")
        except ImportError:
            missing.append(f"line {line}: {module_name} has no {name!r}")
    assert not missing, "\n".join(missing)
