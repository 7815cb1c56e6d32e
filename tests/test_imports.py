"""Every name a package module imports is used there.

The one exception is an import marked `# noqa: F401` whose name is in
TRACED_NAMES: bench/tracing.py rebinds those tracker names to trace the
layers, so the tracker keeps them although it no longer calls them."""

import ast
from pathlib import Path

import pytest

import mcmctrack
from test_tracker import TRACED_NAMES

MODULES = sorted(
    path for path in Path(mcmctrack.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def import_faults(source: str) -> list[str]:
    """The imports of a module's source that break the rule: a name the
    module never uses, unless marked noqa: F401, and a noqa: F401 mark on a
    name outside TRACED_NAMES."""
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    faults = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        noqa = any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno])
        for name in bound:
            if noqa and name not in TRACED_NAMES:
                faults.append(f"{name} is marked noqa: F401 but is not a traced name")
            elif not noqa and name not in used:
                faults.append(f"{name} is imported but never used")
    return faults


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_import_is_used(path):
    assert import_faults(path.read_text()) == []


def test_faults_are_found():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from json import dumps, loads  # noqa: F401\n"
        "from .hypotheses import prune  # noqa: F401\n"
        "os.sep\n"
    )
    assert import_faults(source) == [
        "math is imported but never used",
        "dumps is marked noqa: F401 but is not a traced name",
        "loads is marked noqa: F401 but is not a traced name",
    ]
