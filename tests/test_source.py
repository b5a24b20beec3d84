"""Source-level rules for the package.

Every check in src/gotzmann raises an explicit exception, because `python -O`
strips assert statements and a check that vanishes under -O checks nothing.
The package imports nothing but the standard library and itself.
"""
import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).parents[1] / "src" / "gotzmann").glob("*.py"))


def assert_lines(source: str) -> list[int]:
    """Line numbers of the assert statements in a module's source."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_detector_finds_a_bare_assert():
    assert assert_lines("def f(x):\n    if x:\n        assert x > 0\n    return x\n") == [3]
    assert assert_lines("raise AssertionError('no statement')\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_lines(path.read_text()) == [], f"{path.name} uses assert"


def imported_modules(source: str) -> set[str]:
    """Top-level names of the absolute imports in a module's source."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_import_detector():
    source = "import os.path, json\nfrom . import cli\nfrom .x import y\nfrom numpy import z\n"
    assert imported_modules(source) == {"os", "json", "numpy"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_stdlib_only(path):
    outside = imported_modules(path.read_text()) - sys.stdlib_module_names - {"gotzmann"}
    assert not outside, f"{path.name} imports {sorted(outside)} from outside the standard library"
