"""The package's modules use one another only through public names.

A `_`-prefixed name is private to the module that defines it; when
another module reaches for it, the two can no longer change apart.
Tests may still use private names.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import heapdyck

PACKAGE = Path(heapdyck.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def private_uses(source: str) -> list[str]:
    """Private names of other heapdyck modules that this source uses."""
    tree = ast.parse(source)
    modules = set()  # local names bound to heapdyck modules
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level and not module or module == "heapdyck":
                modules.update(alias.asname or alias.name for alias in node.names)
            elif node.level or module.startswith("heapdyck."):
                uses += [f"{module}.{a.name}" for a in node.names if _is_private(a.name)]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("heapdyck.") and alias.asname:
                    modules.add(alias.asname)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and _is_private(node.attr)
        ):
            uses.append(f"{node.value.id}.{node.attr}")
    return uses


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_module_uses_another_modules_private_names(path):
    assert private_uses(path.read_text()) == []


@pytest.mark.parametrize(
    "source, found",
    [
        ("from . import heaps\nheaps._parse_pairs('', 'dimer')", ["heaps._parse_pairs"]),
        ("from .heaps import Heap, _check_heap", ["heaps._check_heap"]),
        ("from heapdyck import paths as p\np._gen_balanced(2, False)", ["p._gen_balanced"]),
        ("import heapdyck.series as s\ns._ONE", ["s._ONE"]),
        ("from . import heaps\nheaps.drop_columns([0])\nx._private", []),
        ("from os import _exit\nimport heapdyck\nheapdyck.__version__", []),
    ],
    ids=["attribute", "from-import", "aliased-from", "aliased-import", "public", "foreign"],
)
def test_checker_sees_private_uses(source, found):
    assert private_uses(source) == found


def test_every_library_error_is_a_heapdyck_error():
    modules = [importlib.import_module(f"heapdyck.{path.stem}") for path in SOURCES]
    errors = {
        obj
        for module in modules
        for obj in vars(module).values()
        if isinstance(obj, type)
        and issubclass(obj, Exception)
        and obj.__module__.startswith("heapdyck")
    }
    assert len(errors) >= 18
    assert all(issubclass(e, heapdyck.HeapdyckError) for e in errors)


def test_package_root_exports_only_the_error_base_and_version():
    """The modules are the API: importing the root loads none of them but errors."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    probe = "import sys, heapdyck; print(sorted(m for m in sys.modules if m.startswith('heapdyck.')))"
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "['heapdyck.errors']"
    assert heapdyck.__all__ == ["HeapdyckError", "__version__"]
    # __version__ must match the version pyproject.toml declares
    pyproject = (PACKAGE.parent.parent / "pyproject.toml").read_text()
    project = pyproject.split("[project]", 1)[1].split("\n[", 1)[0]
    assert re.search(r'^version = "([^"]+)"$', project, re.M).group(1) == heapdyck.__version__


def test_command_line_imports_without_dataclasses():
    """Result records are NamedTuples and slotted classes, so that a cold
    `heapdyck` call does not load `dataclasses` and the `inspect` it pulls in;
    series hold ints, so it loads neither `fractions` nor the `decimal` behind it."""
    probe = (
        "import sys; sys.path.insert(0, sys.argv[1]); import heapdyck.cli; "
        "print(sorted({'dataclasses', 'inspect', 'fractions', 'decimal'} & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-I", "-c", probe, str(PACKAGE.parent)],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.strip() == "[]"
