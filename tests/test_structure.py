"""Package structure: public names resolve, private names stay in their module."""

import ast
import importlib
import pathlib

import pytest

import c2surf

MODULES = ("f2", "bilinear", "dd", "orbits", "words", "classify", "counting", "gl2", "cli")
SRC = pathlib.Path(c2surf.__file__).parent


@pytest.mark.parametrize("name", ("__init__",) + MODULES)
def test_all_names_exist(name):
    mod = c2surf if name == "__init__" else importlib.import_module(f"c2surf.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []


def _private_imports(path: pathlib.Path):
    """(line, text) for every private name one c2surf module takes from another."""
    tree = ast.parse(path.read_text())
    sibling_modules = set()
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "c2surf"
        if not internal:
            continue
        for alias in node.names:
            if alias.name.startswith("_"):
                found.append((node.lineno, f"from {node.module or '.'} import {alias.name}"))
            elif node.module in (None, "c2surf") and alias.name in MODULES:
                sibling_modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in sibling_modules
            and node.attr.startswith("_")
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_private_cross_module_imports(path):
    assert _private_imports(path) == []


def test_private_import_check_sees_both_forms(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .dd import _helper\nfrom . import f2\nf2._ISOMETRY_CACHE\n")
    assert [text for _, text in _private_imports(probe)] == [
        "from dd import _helper",
        "f2._ISOMETRY_CACHE",
    ]
