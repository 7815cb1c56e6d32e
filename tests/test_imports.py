"""Every name a package module imports is used there, every name it
defines is named somewhere, and every instance it makes is built by its
class's constructor.

The one exception to the first rule is an import marked `# noqa: F401`
whose name is in TRACED_NAMES: bench/tracing.py rebinds those tracker names
to trace the layers, so the tracker keeps them although it no longer calls
them. The second rule finds the helpers a deletion leaves behind: each
module-level function, class or constant of a package module but
`__init__`, and each method or property of its module-level classes,
dunders aside, must be named in some file under src/, bench/ or tests/.
The third rule keeps each class's checks in one place: no module
names object.__new__, which builds an instance without running them."""

import ast
import functools
from pathlib import Path

import pytest

import mcmctrack
from test_tracker import TRACED_NAMES

SOURCES = sorted(Path(mcmctrack.__file__).parent.glob("*.py"))
MODULES = [path for path in SOURCES if path.name != "__init__.py"]
ROOT = Path(__file__).resolve().parents[1]


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


def defined_names(source: str) -> list[str]:
    """The functions, classes and constants a module's source defines at
    module level, dunders aside."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [target.id for target in targets if isinstance(target, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def named(source: str) -> set[str]:
    """Every name a source reads, as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


@functools.cache
def named_in_repo() -> set[str]:
    return set().union(*(
        named(path.read_text()) for top in ("src", "bench", "tests")
        for path in (ROOT / top).rglob("*.py")
    ))


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_definition_is_named(path):
    assert [name for name in defined_names(path.read_text())
            if name not in named_in_repo()] == []


def test_orphans_are_found():
    source = (
        "import math\n"
        "LIMIT: int = 3\n"
        "__all__ = ['kept']\n"
        "_SPARE = object()\n"
        "class Helper:\n"
        "    def method(self):\n"
        "        return kept(LIMIT)\n"
        "def kept(x):\n"
        "    return math.sqrt(x)\n"
        "def orphan():\n"
        "    pass\n"
    )
    assert [name for name in defined_names(source) if name not in named(source)] == [
        "_SPARE", "Helper", "orphan",
    ]


def defined_methods(source: str) -> list[str]:
    """The methods and properties of the classes a module's source defines
    at module level, dunders aside, as `Class.name`."""
    return [
        f"{node.name}.{item.name}"
        for node in ast.parse(source).body if isinstance(node, ast.ClassDef)
        for item in node.body if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (item.name.startswith("__") and item.name.endswith("__"))
    ]


@pytest.mark.parametrize("path", MODULES, ids=[path.stem for path in MODULES])
def test_every_method_is_named(path):
    assert [name for name in defined_methods(path.read_text())
            if name.rpartition(".")[2] not in named_in_repo()] == []


def test_orphan_methods_are_found():
    source = (
        "class Track:\n"
        "    def __post_init__(self):\n"
        "        self.check()\n"
        "    def check(self):\n"
        "        pass\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 4\n"
        "    @staticmethod\n"
        "    def spare():\n"
        "        pass\n"
        "    def used_by_name(self):\n"
        "        pass\n"
        "    def _orphan(self):\n"
        "        def check():\n"
        "            pass\n"
        "    LIMIT = 3\n"
        "def build(track):\n"
        "    return track.size, used_by_name\n"
    )
    assert [name for name in defined_methods(source)
            if name.rpartition(".")[2] not in named(source)] == [
        "Track.spare", "Track._orphan",
    ]


def constructor_bypasses(source: str) -> list[int]:
    """The lines of a source that name object.__new__, called or not."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "__new__"
        and isinstance(node.value, ast.Name) and node.value.id == "object"
    )


@pytest.mark.parametrize("path", SOURCES, ids=[path.stem for path in SOURCES])
def test_every_instance_is_built_by_its_constructor(path):
    assert constructor_bypasses(path.read_text()) == []


def test_bypasses_are_found():
    source = (
        "track = object.__new__(GaussianTrack)\n"
        "object.__setattr__(track, 'label', 't00')\n"
        "new = object.__new__\n"
        "matrix = cls.__new__(cls)\n"
        "track = GaussianTrack('t00', mean, cov)\n"
    )
    assert constructor_bypasses(source) == [1, 3]
