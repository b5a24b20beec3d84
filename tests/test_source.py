"""Source-level rules for the package.

Every check in src/gotzmann raises an explicit exception, because `python -O`
strips assert statements and a check that vanishes under -O checks nothing.
The package imports nothing but the standard library and itself.  Every name
the README's library overview lists exists in the module of its row.
"""
import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "gotzmann").glob("*.py"))


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


def overview_rows(readme: str) -> list[tuple[str, list[str]]]:
    """(module, backticked names) for each row of the README's "Library overview" table."""
    section = readme.split("## Library overview", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.split("|")[1:-1]]
        if len(cells) == 2 and (module := re.fullmatch(r"`(gotzmann\.\w+)`", cells[0])):
            rows.append((module[1], re.findall(r"`([^`]*)`", cells[1])))
    return rows


def missing_names(module: str, names: list[str]) -> list[str]:
    """The names that are neither a dotted attribute path of the module nor of a
    class defined in it (a dataclass field counts as an attribute of its class)."""
    mod = importlib.import_module(module)
    owners = [mod] + [v for v in vars(mod).values() if isinstance(v, type) and v.__module__ == module]

    def resolves(owner, name: str) -> bool:
        for part in name.split("."):
            if not (hasattr(owner, part) or part in getattr(owner, "__dataclass_fields__", {})):
                return False
            owner = getattr(owner, part, None)
        return True

    return [name for name in names if not any(resolves(owner, name) for owner in owners)]


OVERVIEW = overview_rows((ROOT / "README.md").read_text())


def test_name_checker():
    names = ["binomial", "minimal_elements", "MacaulayRep.terms", "terms", "coefficients", "k.bit_length()"]
    assert missing_names("gotzmann.combinatorics", names) == ["minimal_elements", "k.bit_length()"]
    names = ["from_faces", "faces", "face_count", "MAX_COMPLEX_FACES", "stanley_reisner"]
    assert missing_names("gotzmann.complexes", names) == ["stanley_reisner"]


def test_overview_has_a_row_per_library_module():
    library = {f"gotzmann.{path.stem}" for path in SOURCES} - {"gotzmann.__init__", "gotzmann.cli"}
    assert {module for module, _ in OVERVIEW} == library


@pytest.mark.parametrize("module, names", OVERVIEW, ids=[module for module, _ in OVERVIEW])
def test_overview_names_exist(module, names):
    assert missing_names(module, names) == [], f"README lists names {module} does not define"
