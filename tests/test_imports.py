"""Every name a library module or tests/oracles.py imports is used in
it, the library imports nothing outside the standard library, every private module-level function or class is used somewhere in
the library, every oracle is used by a test or another oracle, every
memo slot of a library dataclass is invisible to its callers, no module
but formats.dumps writes indented JSON, and every function the bench
tracer wraps exists.

No linter runs on this repository, so a refactor can leave an import or
a helper behind; this reads each module's syntax tree with the stdlib
instead. A private helper only the tests call belongs in tests/, and an
oracle no test calls is reference code for a path that is gone.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "proxlat"
ORACLES = TESTS / "oracles.py"
SPANS = TESTS.parent / "bench" / "spans.py"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _imported(tree: ast.Module) -> dict[str, int]:
    """{bound name: line} for every import outside __future__."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    """Every name the module refers to, in quoted annotations too."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for ann in filter(None, _annotations(tree)):
        for node in ast.walk(ann):
            # a forward reference such as Optional["FiniteLattice"]
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted)
                            if isinstance(n, ast.Name))
    return used


@pytest.mark.parametrize("path", MODULES + [ORACLES], ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = _used(tree)
    unused = sorted((line, name) for name, line in _imported(tree).items()
                    if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from typing import Iterator, Optional\n"
                     "x: 'Optional[int]' = None\n"
                     "y = 'Iterator'\n")
    assert set(_imported(tree)) - _used(tree) == {"Iterator"}


def _non_stdlib_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """(line, module) of each absolute import whose top-level package is
    not in the standard library; relative imports stay in the package."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        out += [(node.lineno, name) for name in names
                if name.split(".")[0] not in sys.stdlib_module_names]
    return out


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_is_stdlib_only(path):
    outside = _non_stdlib_imports(ast.parse(path.read_text()))
    assert not outside, f"{path.name}: imports outside the stdlib {outside}"


def test_the_check_sees_a_third_party_import():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path, numpy as np\n"
                     "from hypothesis import given\n"
                     "from .bitset import bits\n"
                     "from dataclasses import field\n")
    assert _non_stdlib_imports(tree) == [(2, "numpy"), (3, "hypothesis")]


def _is_private(module: str, name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _unreferenced(trees: dict[str, ast.Module], wanted=_is_private) -> list[str]:
    """module.name of each top-level function or class with
    wanted(module, name) that no top-level statement of any module
    uses, its own definition aside."""
    defined = []
    used = set()
    for module, tree in trees.items():
        for stmt in tree.body:
            names = _used(stmt) | {n.attr for n in ast.walk(stmt)
                                   if isinstance(n, ast.Attribute)}
            if isinstance(stmt, DEFS) and wanted(module, stmt.name):
                defined.append((module, stmt.name))
                names.discard(stmt.name)
            used |= names
    return sorted(f"{m}.{name}" for m, name in defined if name not in used)


def test_no_unreferenced_private_definitions():
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    unused = _unreferenced(trees)
    assert not unused, f"private definitions used nowhere in src: {unused}"


def test_every_oracle_has_a_caller():
    paths = [ORACLES] + sorted(TESTS.glob("test_*.py"))
    trees = {p.stem: ast.parse(p.read_text()) for p in paths}
    unused = _unreferenced(trees, lambda module, name: module == "oracles")
    assert not unused, f"oracles no test or oracle uses: {unused}"


def test_the_check_sees_an_unreferenced_private_definition():
    trees = {"a": ast.parse("def _loop(x):\n    return _loop(x - 1)\n"
                            "def _used():\n    pass\n"
                            "class _Kept:\n    pass\n"
                            "def public():\n    return _Kept\n"),
             "b": ast.parse("from a import _used\n_used()\n")}
    assert _unreferenced(trees) == ["a._loop"]
    assert _unreferenced(trees, lambda module, name: module == "a") == \
        ["a._loop", "a.public"]


MEMO_SLOT = "field(default=None, init=False, repr=False, compare=False)"


def _memo_faults(trees: dict[str, ast.Module]) -> list[str]:
    """Each `_`-prefixed field of a dataclass that is not declared as
    MEMO_SLOT, and each object.__setattr__(x, "_name", ...) that names
    no such slot. A memo slot must stay out of the constructor, the
    repr, equality and the hash, so that a filled memo changes nothing
    a caller can see.

    object.__setattr__(x, "__dict__", {...}) builds an instance in one
    store. It passes only with a dict display that names exactly the
    fields of one dataclass, each memo slot among them as None, so that
    it fills no memo either."""
    slots, faults = set(), []
    # per dataclass: its field names, and the memo slots among them
    shapes: list[tuple[set[str], set[str]]] = []
    for module, tree in trees.items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and any(
                    ast.unparse(getattr(d, "func", d)) == "dataclass"
                    for d in cls.decorator_list)):
                continue
            names, memos = set(), set()
            for stmt in cls.body:
                if not (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    continue
                names.add(stmt.target.id)
                if stmt.target.id.startswith("_"):
                    if stmt.value and ast.unparse(stmt.value) == MEMO_SLOT:
                        memos.add(stmt.target.id)
                    else:
                        faults.append(f"{module}.{cls.name}.{stmt.target.id}")
            slots |= memos
            shapes.append((names, memos))
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call)
                    and ast.unparse(node.func) == "object.__setattr__"):
                name = node.args[1]
                if isinstance(name, ast.Constant) and (
                        name.value in slots or name.value == "__dict__"
                        and _whole_instance(node.args[2], shapes)):
                    continue
                faults.append(f"{module}:{node.lineno} sets "
                              f"{ast.unparse(name)}")
    return faults


def _whole_instance(value: ast.expr, shapes) -> bool:
    """A dict display naming exactly the fields of one of `shapes`,
    each of its memo slots as None."""
    if not (isinstance(value, ast.Dict) and all(
            isinstance(k, ast.Constant) for k in value.keys)):
        return False
    given = {k.value: v for k, v in zip(value.keys, value.values)}
    return any(set(given) == names and all(
        isinstance(given[m], ast.Constant) and given[m].value is None
        for m in memos) for names, memos in shapes)


def test_memo_slots_are_invisible():
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    faults = _memo_faults(trees)
    assert not faults, f"memo slots not declared as {MEMO_SLOT}: {faults}"


def test_the_check_sees_a_visible_memo_slot():
    tree = ast.parse(
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        f"    _kept: Optional[int] = {MEMO_SLOT}\n"
        "    _seen: Optional[int] = field(default=None, init=False,\n"
        "                                 repr=False, compare=True)\n"
        "    _bare: int = 0\n"
        "def fill(a):\n"
        "    object.__setattr__(a, '_kept', 1)\n"
        "    object.__setattr__(a, '_seen', 1)\n"
        "    object.__setattr__(a, 'x', 1)\n")
    assert _memo_faults({"a": tree}) == [
        "a.A._seen", "a.A._bare", "a:10 sets '_seen'", "a:11 sets 'x'"]


def test_the_check_sees_a_partial_dict_store():
    tree = ast.parse(
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        f"    _kept: Optional[int] = {MEMO_SLOT}\n"
        "def build(a, d):\n"
        "    object.__setattr__(a, '__dict__', {'x': 1, '_kept': None})\n"
        "    object.__setattr__(a, '__dict__', {'x': 1})\n"
        "    object.__setattr__(a, '__dict__', {'x': 1, '_kept': 2})\n"
        "    object.__setattr__(a, '__dict__', {'x': 1, '_kept': None,"
        " 'y': 2})\n"
        "    object.__setattr__(a, '__dict__', d)\n")
    assert _memo_faults({"a": tree}) == [
        "a:7 sets '__dict__'", "a:8 sets '__dict__'", "a:9 sets '__dict__'",
        "a:10 sets '__dict__'"]


def _indented_json_calls(module: str, tree: ast.Module) -> list[str]:
    """module:line of each json.dumps or json.dump call given an indent=
    keyword. Documents are written by formats.dumps alone, the writer
    tests/test_formats.py holds to json.dumps as its oracle."""
    return [f"{module}:{node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and ast.unparse(node.func) in ("json.dumps", "json.dump")
            and any(kw.arg == "indent" for kw in node.keywords)]


def test_one_json_writer():
    calls = [c for p in sorted(SRC.glob("*.py"))
             for c in _indented_json_calls(p.stem, ast.parse(p.read_text()))]
    assert not calls, f"indented JSON written outside formats.dumps: {calls}"


def test_the_check_sees_an_indented_json_call():
    tree = ast.parse("import json\n"
                     "json.dumps({}, sort_keys=True)\n"
                     "json.dumps({}, indent=2)\n"
                     "json.dump({}, f, indent=None)\n")
    assert _indented_json_calls("a", tree) == ["a:3", "a:4"]


def test_bench_span_targets_exist():
    # bench/spans.py looks each LAYERS entry up with getattr when a
    # traced run starts, so a renamed function would break only there
    spec = importlib.util.spec_from_file_location("spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for paths in spans.LAYERS.values():
        for path in paths:
            module, name = path.split(".")
            if not callable(getattr(importlib.import_module(f"proxlat.{module}"),
                                    name, None)):
                missing.append(path)
    assert not missing, f"bench span targets missing from proxlat: {missing}"
