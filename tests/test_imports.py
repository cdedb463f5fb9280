"""Every name a library module imports is used in it: deletions must not
leave dead imports behind. A name listed in the module's __all__ counts as
used, since re-exporting it is its purpose. And every function and class a
library module defines serves the library: one that only tests call belongs
in tests/oracles.py, and every one of those serves a test. Every mutation
in tests/mutants.py still edits one place of the source. Importing the CLI
loads no numpy module it does not need yet, and no thread pool."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import child_env

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "fednorm").glob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Every name the module reads, plus the strings in its __all__."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unused = {name: line for name, line in imported_names(tree).items()
              if name not in used_names(tree)}
    assert not unused, f"{path.name}: unused imports {unused}"


def test_unused_import_is_caught():
    tree = ast.parse("from dataclasses import dataclass, replace\n"
                     "import os.path\n"
                     "__all__ = ['x']\n"
                     "from .m import x\n"
                     "@dataclass\nclass A: pass\n")
    unused = set(imported_names(tree)) - used_names(tree)
    assert unused == {"replace", "os"}


def referenced_names(node: ast.AST) -> set[str]:
    """Every name read, read as an attribute or imported under node."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names.update(alias.name for alias in sub.names)
    return names


def launcher_names(tree: ast.Module) -> set[str]:
    """The names benchmark Targets point at: each attribute, and the class
    of an owner written module:Class."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Target":
            owner, attr = (ast.literal_eval(arg) for arg in node.args[1:3])
            names.update((attr, owner.partition(":")[2]))
    return names


def unreferenced(modules: dict[str, ast.Module], text: str, named: set[str]) -> list[str]:
    """Top-level functions and classes of modules that no other top-level
    statement of any module references, that text never mentions as a word,
    and that are not in named."""
    statements = [stmt for tree in modules.values() for stmt in tree.body]
    references = [(stmt, referenced_names(stmt)) for stmt in statements]
    return [f"{module}:{stmt.name}" for module, tree in modules.items() for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not any(stmt.name in names for other, names in references if other is not stmt)
            and not re.search(rf"\b{stmt.name}\b", text) and stmt.name not in named]


def test_every_library_function_and_class_serves_the_library():
    """Referenced elsewhere in src/, in README.md or in demos/, or timed by a
    benchmarks/launch.py target."""
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    text = "\n".join(path.read_text(encoding="utf-8")
                     for path in [ROOT / "README.md", *sorted((ROOT / "demos").glob("*.py"))])
    launcher = ROOT / "benchmarks" / "launch.py"
    named = launcher_names(ast.parse(launcher.read_text(encoding="utf-8")))
    assert unreferenced(modules, text, named) == []


def test_every_oracle_serves_a_test():
    """Every function and class tests/oracles.py defines is referenced by a
    tests/test_*.py module or by another top-level statement of oracles.py:
    reference code that no test reaches is dead."""
    tests = ROOT / "tests"
    modules = {path.name: ast.parse(path.read_text(encoding="utf-8"))
               for path in [tests / "oracles.py", *sorted(tests.glob("test_*.py"))]}
    assert [name for name in unreferenced(modules, "", set())
            if name.startswith("oracles.py:")] == []


def test_test_only_function_is_caught():
    modules = {"a.py": ast.parse("def used(): pass\n"
                                 "def recursive(): return recursive()\n"
                                 "def in_readme(): pass\n"
                                 "def traced(): pass\n"
                                 "class Orphan: pass\n"),
               "b.py": ast.parse("from .a import used\n")}
    named = launcher_names(ast.parse('Target("x", "fednorm.a", "traced")\n'))
    assert unreferenced(modules, "call in_readme()", named) == ["a.py:recursive", "a.py:Orphan"]


def test_every_mutant_edits_one_place_of_the_source():
    """Each entry of tests/mutants.py, the control included, names a file of
    src/fednorm/ whose text holds its old text exactly once, and changes it:
    code that moves takes its mutants along."""
    from mutants import CONTROL, MUTANTS
    assert len({m.name for m in [CONTROL, *MUTANTS]}) == len(MUTANTS) + 1
    for mutant in [CONTROL, *MUTANTS]:
        text = (ROOT / "src" / "fednorm" / mutant.file).read_text(encoding="utf-8")
        assert text.count(mutant.old) == 1 and mutant.new != mutant.old, mutant.name


def loaded(code: str, module: str) -> bool:
    """Whether `module` is in sys.modules after a fresh interpreter runs code."""
    probe = f"import sys\n{code}\nprint({module!r} in sys.modules)"
    return subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=child_env(), timeout=120, check=True).stdout.split()[-1] == "True"


def test_importing_the_cli_leaves_numpy_random_unloaded():
    """numpy 2 loads numpy.random on first use, and the CLI's import must
    not load it either: the seed class that needs it is built on first use."""
    assert (loaded("import fednorm.cli", "numpy.random")
            == loaded("import numpy", "numpy.random"))


def test_only_a_run_that_starts_threads_loads_concurrent_futures(tmp_path):
    """The CLI's import does not load concurrent.futures (with logging,
    queue and traceback), nor does a run of one worker whose rounds fit
    in one block, like desk_quick; a run with a pool does."""
    def run(workers):
        out = str(tmp_path / f"workers{workers}")
        return ("import fednorm.cli\n"
                "fednorm.cli.main(['run', '--preset', 'desk_quick', '--strategies', 'fedavg',"
                f" '--out', {out!r}, '--workers', '{workers}'])")
    baseline = loaded("import numpy, yaml", "concurrent.futures")
    assert loaded("import fednorm.cli", "concurrent.futures") == baseline
    assert loaded(run(1), "concurrent.futures") == baseline
    assert loaded(run(2), "concurrent.futures")
