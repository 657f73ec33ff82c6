"""Every name a library module or tests/oracles.py imports is used in
it, the library imports nothing outside the standard library, every
private module-level function or class is used somewhere in the
library, every oracle is used by a test or another oracle, no module
but formats.dumps writes indented JSON, every function the bench
tracer wraps exists, and no module tests a principal down-set by
indexing `.down` with a join_mask call.

Memos are checked at run time: every memo held by a value is a build
decorated with lattice.kept (listed in KEPT), no dataclass has a private
field, filling every kept build leaves the repr, equality and hash of
its holder unchanged, every relation the library builds holds exactly
its fields, and the build that stores a report's fields as one
__dict__ stores exactly the fields.

No linter runs on this repository, so a refactor can leave an import or
a helper behind; this reads each module's syntax tree with the stdlib
instead. A private helper only the tests call belongs in tests/, and an
oracle no test calls is reference code for a path that is gone.
"""

import ast
import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from oracles import kept_value
from proxlat.canext import CanonicalExtension, pi_extension, verify_extension
from proxlat.fixtures import CORPUS, load
from proxlat.lattice import (
    LatticeMap,
    down_index,
    is_distributive,
    is_homomorphism,
    kept,
    opposite,
)
from proxlat.proximity import (
    AxiomReport,
    ProximityLattice,
    opposite_proximity,
    round_ideal_masks,
    verify_axioms,
)
from proxlat.relations import Relation
from proxlat.spectra import canext_via_duality, spectrum

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


# every build kept on a lattice, a relation, a proximity lattice or an
# extension
KEPT = {
    "lattice": (opposite, is_distributive, down_index),
    "map": (LatticeMap.over,),
    "relation": (Relation.converse,),
    "carrier": (ProximityLattice.mu, opposite_proximity, round_ideal_masks,
                pi_extension, spectrum, canext_via_duality),
    "extension": (CanonicalExtension.over, CanonicalExtension.monotone,
                  CanonicalExtension.f, CanonicalExtension.g, verify_extension),
}
KEPT_CODE = kept(len).__code__  # the code of every kept build's wrapper


def _field_names(x) -> set[str]:
    return {f.name for f in dataclasses.fields(x)}


def _library_classes():
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"proxlat.{path.stem}")
        yield from (value for value in vars(module).values()
                    if isinstance(value, type)
                    and value.__module__ == module.__name__)


def test_no_dataclass_field_is_private():
    """A memo is never a field, so no field starts with `_`: a kept
    value lives under a `_kept_` attribute that no field or class
    attribute shadows."""
    private = [f"{cls.__name__}.{name}" for cls in _library_classes()
               if dataclasses.is_dataclass(cls)
               for name in _field_names(cls) if name.startswith("_")]
    assert not private, f"private dataclass fields: {private}"


def test_every_kept_build_is_listed():
    """KEPT names every function or property of the library that is a
    kept build, found by the code of the wrapper that kept makes."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(f"proxlat.{path.stem}")
        found.update(value for value in vars(module).values()
                     if getattr(value, "__code__", None) is KEPT_CODE)
    for cls in _library_classes():
        for value in vars(cls).values():
            value = getattr(value, "fget", value)
            if getattr(value, "__code__", None) is KEPT_CODE:
                found.add(value)
    listed = {getattr(b, "fget", b) for builds in KEPT.values() for b in builds}
    assert found == listed


def test_kept_builds_are_invisible():
    """Filling every kept build leaves the repr, equality and hash of
    its holder as they were, and each holder gains one attribute per
    build it keeps, named as no class attribute is."""
    seen = set()
    for name in CORPUS:
        p, fresh = load(name), load(name)
        ident = tuple(range(p.size))
        holders = {"lattice": (p.lattice, fresh.lattice),
                   "relation": (p.R, fresh.R), "carrier": (p, fresh),
                   "map": (LatticeMap(p.lattice, p.lattice, ident),
                           LatticeMap(fresh.lattice, fresh.lattice, ident))}
        if p.join_strong:
            holders["extension"] = (pi_extension(p), pi_extension(fresh))
        before = {kind: (repr(x), hash(x)) for kind, (x, _) in holders.items()}
        for build in KEPT["lattice"]:
            build(p.lattice)
        assert p.R.converse() and p.mu and is_homomorphism(holders["map"][0])
        opposite_proximity(p)
        round_ideal_masks(p)
        if p.join_strong:
            if p.distributive:
                canext_via_duality(p)  # and the spectrum
            ext = holders["extension"][0]
            assert ext.f and ext.g and verify_extension(ext)
        for kind, (x, y) in holders.items():
            assert (repr(x), hash(x)) == before[kind], (name, kind)
            assert x == y and hash(x) == hash(y), (name, kind)
            extra = set(vars(x)) - _field_names(x)
            builds = [b for b in KEPT[kind] if kept_value(x, b) is not None]
            assert len(extra) == len(builds), (name, kind, extra)
            assert not any(hasattr(type(x), key) for key in extra), (name, kind)
            seen.update(builds)
    assert seen == {b for builds in KEPT.values() for b in builds}


def test_whole_instance_builds_hold_exactly_the_fields(corpus):
    """Every Relation comes from its one checked constructor, a converse
    and the converse verify_axioms keeps on a proximity relation too:
    each holds exactly its fields and equals the relation built from
    its rows. The first read of a deferred field of a verify_axioms
    report stores all its fields as one __dict__: exactly the fields,
    so nothing is left pending and no memo is filled, and equal to the
    instance the constructor builds."""
    assert "__post_init__" not in vars(Relation)
    c3 = corpus["C3"]
    proximity = Relation(3, 3, c3.R.rows)
    verify_axioms(c3.lattice, proximity)
    for rel in (Relation(2, 3, (1, 6)), Relation(2, 3, (1, 6)).converse(),
                kept_value(proximity, Relation.converse)):
        assert set(vars(rel)) == _field_names(Relation), rel
        built = Relation(rel.source_size, rel.target_size, rel.rows)
        assert rel == built and hash(rel) == hash(built)
    lat = corpus["C3"].lattice
    deferred = _field_names(AxiomReport) - {
        "idempotent", "join_compatible", "meet_compatible"}
    for r in (corpus["C3"].R, Relation(3, 3, (7, 0, 0))):
        for name in sorted(deferred):
            report = verify_axioms(lat, r)
            getattr(report, name)
            assert set(vars(report)) == _field_names(AxiomReport), name
            assert report == AxiomReport(**vars(report)), name


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


def _down_set_of_a_join(module: str, tree: ast.Module) -> list[str]:
    """module:line of each `.down[...]` subscript whose index calls
    join_mask. Whether a mask is a principal down-set is decided by one
    lookup in the down-set index (proximity._tops), not by the O(n) join
    of the mask and a compare with the down-set of that join."""
    def calls_join_mask(node):
        return isinstance(node, ast.Call) and (
            getattr(node.func, "attr", None) == "join_mask"
            or getattr(node.func, "id", None) == "join_mask")
    return [f"{module}:{line}" for line in sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Subscript)
        and getattr(node.value, "attr", None) == "down"
        and any(map(calls_join_mask, ast.walk(node.slice))))]


def test_no_down_set_of_a_join():
    found = [c for p in sorted(SRC.glob("*.py"))
             for c in _down_set_of_a_join(p.stem, ast.parse(p.read_text()))]
    assert not found, f"down-sets indexed by a join_mask call: {found}"


def test_the_check_sees_a_down_set_of_a_join():
    tree = ast.parse("ok = mask == lat.down[lat.join_mask(mask)]\n"
                     "q = lat.join_mask(mask)\n"
                     "ok = mask == lat.down[q]\n"
                     "d = p.lattice.down[join_mask(lat, m & full)]\n"
                     "d = down[lat.join_mask(m)]\n"
                     "d = lat.up[lat.join_mask(m)]\n")
    assert _down_set_of_a_join("a", tree) == ["a:1", "a:4"]


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
