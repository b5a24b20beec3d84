"""Source-level rules for the package.

Every check in src/gotzmann raises an explicit exception, because `python -O`
strips assert statements and a check that vanishes under -O checks nothing.
No module-level function calls itself, since a recursion deep enough to reach
Python's limit ends in RecursionError, not in a refusal.  Every function cache
has an integer bound, so no cache grows for the life of a process, but for the
verifier's per-n tables, whose keys have n <= 10.
The package imports nothing but the standard library and itself, and a cold
`import gotzmann` loads every library module but neither dataclasses nor
inspect, which cost a CLI call more than the package itself.  Every name
the README's library overview lists exists in the module of its row.  Every
exception class the package raises by name is caught by an except clause of
cli.main, so the CLI turns it into an exit code rather than a traceback.
"""
import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
SOURCES = sorted((ROOT / "src" / "gotzmann").glob("*.py"))
LIBRARY = {f"gotzmann.{path.stem}" for path in SOURCES} - {"gotzmann.__init__", "gotzmann.cli"}


def assert_lines(source: str) -> list[int]:
    """Line numbers of the assert statements in a module's source."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_detector_finds_a_bare_assert():
    assert assert_lines("def f(x):\n    if x:\n        assert x > 0\n    return x\n") == [3]
    assert assert_lines("raise AssertionError('no statement')\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_statements(path):
    assert assert_lines(path.read_text()) == [], f"{path.name} uses assert"


def self_calls(source: str) -> list[str]:
    """Names of the module-level functions whose body calls them by name."""
    return [node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)
            and any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == node.name
                    for call in ast.walk(node))]


def test_detector_finds_a_self_call():
    source = "def f(n):\n    return n and f(n - 1)\n\ndef g(n):\n    return f(n)\n"
    assert self_calls(source) == ["f"]
    assert self_calls("class C:\n    def f(self):\n        return self.f()\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_recursive_functions(path):
    assert self_calls(path.read_text()) == [], f"{path.name} has a function that calls itself"


def cached_functions(source: str) -> list[str]:
    """Names of the functions decorated by functools.lru_cache or functools.cache, however imported."""
    return [node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.FunctionDef)
            and any(ast.unparse(d.func if isinstance(d, ast.Call) else d).split(".")[-1] in {"lru_cache", "cache"}
                    for d in node.decorator_list)]


UNBOUNDED_CACHES = {"certifier": {"_edge_tables", "_representatives", "_tables"}}


def test_detector_finds_a_cached_function():
    source = ("@lru_cache(maxsize=None)\ndef f(n):\n    return n\n\n@functools.cache\ndef g(n):\n    return n\n\n"
              "@staticmethod\ndef h(n):\n    return n\n")
    assert cached_functions(source) == ["f", "g"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_caches_are_bounded(path):
    module = importlib.import_module("gotzmann" if path.stem == "__init__" else f"gotzmann.{path.stem}")
    unbounded = [name for name in cached_functions(path.read_text()) if name not in UNBOUNDED_CACHES.get(path.stem, ())
                 and not isinstance(getattr(module, name).cache_parameters()["maxsize"], int)]
    assert unbounded == [], f"{path.name} caches without an integer maxsize"


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dataclasses(path):
    assert "dataclasses" not in imported_modules(path.read_text()), f"{path.name} imports dataclasses"


def test_cold_import():
    # a fresh interpreter without site, as a CLI call starts; every library module loads at
    # once, so no lazy attribute moves the cost of one into its first use
    code = "import sys; sys.path.insert(0, sys.argv[1]); import gotzmann; print(*sys.modules)"
    out = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(ROOT / "src")],
                         capture_output=True, text=True, check=True, timeout=60)
    loaded = set(out.stdout.split())
    assert not {"dataclasses", "inspect"} & loaded
    assert LIBRARY <= loaded


def raised_names(source: str) -> set[str]:
    """The exception classes a module's source raises by name, as written: raise E(...) or raise m.E."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            names.add(ast.unparse(node.exc.func if isinstance(node.exc, ast.Call) else node.exc))
    return names


def main_handlers(source: str) -> list[str]:
    """The exception types that the except clauses of a module's main() name, as written."""
    (main,) = [node for node in ast.parse(source).body if isinstance(node, ast.FunctionDef) and node.name == "main"]
    return [ast.unparse(node.type) for node in ast.walk(main) if isinstance(node, ast.ExceptHandler) and node.type]


def uncaught(names: set[str], namespace: dict, caught: tuple[type, ...]) -> list[str]:
    """The names whose class, looked up in the namespace, is no subclass of a caught class."""
    return [name for name in sorted(names) if not issubclass(eval(name, namespace), caught)]


def test_detector_finds_raised_and_caught_classes():
    source = ("def main():\n    try:\n        raise m.E('x') from None\n    except (ValueError, m.E):\n"
              "        raise\n    except OSError as exc:\n        raise KeyError\n")
    assert raised_names(source) == {"m.E", "KeyError"}
    assert main_handlers(source) == ["(ValueError, m.E)", "OSError"]
    fileformats = importlib.import_module("gotzmann.fileformats")
    assert uncaught({"KeyError", "InputFormatError"}, vars(fileformats), (ValueError,)) == ["KeyError"]


def test_cli_main_catches_every_raised_class():
    cli = importlib.import_module("gotzmann.cli")
    caught = ()
    for text in main_handlers((ROOT / "src" / "gotzmann" / "cli.py").read_text()):
        value = eval(text, vars(cli))
        caught += value if isinstance(value, tuple) else (value,)
    for path in SOURCES:
        module = importlib.import_module("gotzmann" if path.stem == "__init__" else f"gotzmann.{path.stem}")
        assert uncaught(raised_names(path.read_text()), vars(module), caught) == [], \
            f"{path.name} raises a class that cli.main does not catch"


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
    class defined in it (a namedtuple field is an attribute of its class)."""
    mod = importlib.import_module(module)
    owners = [mod] + [v for v in vars(mod).values() if isinstance(v, type) and v.__module__ == module]

    def resolves(owner, name: str) -> bool:
        for part in name.split("."):
            if not hasattr(owner, part):
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
    assert {module for module, _ in OVERVIEW} == LIBRARY


@pytest.mark.parametrize("module, names", OVERVIEW, ids=[module for module, _ in OVERVIEW])
def test_overview_names_exist(module, names):
    assert missing_names(module, names) == [], f"README lists names {module} does not define"
