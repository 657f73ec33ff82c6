"""JSON round trips and DOT export."""

import collections
import contextlib
import copy
import io
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import lattice_from_doc_by_warshall
from proxlat import cli, fixtures, formats
from proxlat.errors import NotALattice, ProxlatError
from proxlat.fixtures import CORPUS
from proxlat.formats import (
    ParseError,
    dot_lattice,
    dot_space,
    dumps,
    lattice_from_doc,
    lattice_to_doc,
    morphism_from_doc,
    morphism_to_doc,
    proximity_from_doc,
    proximity_to_doc,
    space_from_doc,
    space_to_doc,
)
from proxlat.lattice import FiniteLattice
from proxlat.proximity import identity_morphism
from proxlat.spectra import finite_space


def test_lattice_doc_round_trip(corpus):
    for name, p in corpus.items():
        doc = lattice_to_doc(p.lattice)
        lat = lattice_from_doc(doc)
        assert lat == p.lattice, name


def test_lattice_doc_applies_closure():
    doc = {"elements": ["0", "a", "1"], "leq": [["0", "a"], ["a", "1"]]}
    lat = lattice_from_doc(doc)
    assert lat.leq(0, 2)


def test_lattice_doc_rejects_cycles():
    doc = {"elements": ["x", "y"], "leq": [["x", "y"], ["y", "x"]]}
    with pytest.raises(ParseError):
        lattice_from_doc(doc)


def test_proximity_doc_round_trip(corpus):
    for name, p in corpus.items():
        back = proximity_from_doc(proximity_to_doc(p))
        assert back.lattice == p.lattice and back.R == p.R, name


def test_morphism_doc_round_trip(corpus):
    t = identity_morphism(corpus["C3R"])
    back = morphism_from_doc(morphism_to_doc(t))
    assert back.T == t.T
    assert back.report.flags() == t.report.flags()


def _b2_swap(target):
    """The swap of p and q on B2, T = {(x, y) : y <= h(x)}, from the
    fixture to `target`, which lists the same elements."""
    doc = fixtures.document("B2")
    source = {"lattice": doc["lattice"], "R": doc["R"]}
    down = {"0": ["0"], "p": ["0", "q"], "q": ["0", "p"], "1": ["0", "p", "q", "1"]}
    return {"kind": "morphism", "source": source, "target": target,
            "T": [[x, y] for x, ys in down.items() for y in ys]}


def test_fixture_documents_are_fresh_dicts():
    """Each fixture file is read once; every call parses its text again,
    so no two calls share a dict and changing one leaves the next
    intact. Unknown names still raise KeyError."""
    for name in CORPUS:
        first, second = fixtures.document(name), fixtures.document(name)
        assert first == second and first is not second
        want = copy.deepcopy(first)
        first["lattice"]["elements"].append("extra")
        first["R"].clear()
        assert fixtures.document(name.lower()) == want
    with pytest.raises(KeyError):
        fixtures.document("C4")


def test_an_endomorphism_document_builds_one_carrier(monkeypatch):
    parsed = []

    def counting(doc):
        parsed.append(doc)
        return real(doc)

    real = formats.proximity_from_doc
    monkeypatch.setattr(formats, "proximity_from_doc", counting)
    doc = fixtures.document("B2")
    same = {"lattice": copy.deepcopy(doc["lattice"]), "R": list(doc["R"])}
    t = morphism_from_doc(_b2_swap(same))
    assert len(parsed) == 1
    assert t.target is t.source and t.is_j

    # a target listing the elements in another order is another document:
    # it is parsed on its own and keeps its own labels
    parsed.clear()
    reordered = dict(same, lattice=dict(same["lattice"],
                                        elements=["1", "q", "p", "0"]))
    u = morphism_from_doc(_b2_swap(reordered))
    assert len(parsed) == 2
    assert u.source.lattice.labels == ("0", "p", "q", "1")
    assert u.target.lattice.labels == ("1", "q", "p", "0")
    assert u.report == t.report

    parsed.clear()
    c3r = fixtures.document("C3R")
    to_c3r = {"kind": "morphism", "source": same,
              "target": {"lattice": c3r["lattice"], "R": c3r["R"]}, "T": []}
    assert not morphism_from_doc(to_c3r).is_proximity
    assert len(parsed) == 2


def test_a_morphism_document_reads_the_source_first():
    good = _b2_swap(None)["source"]
    bad = {"lattice": {"elements": ["0"], "leq": 5}, "R": []}
    for doc, detail in (
            ({"source": good}, "malformed morphism document: 'target'"),
            ({"source": bad}, "malformed lattice document: 'leq' is not an array"),
            ({"source": bad, "target": bad},
             "malformed lattice document: 'leq' is not an array"),
            ({"target": good}, "malformed morphism document: 'source'"),
            ({"source": good, "target": good},
             "malformed morphism document: 'T'")):
        with pytest.raises(ParseError) as raised:
            morphism_from_doc(doc)
        assert str(raised.value) == detail, doc


def test_space_doc_round_trip():
    sp = finite_space(["x", "y"], [0b00, 0b01, 0b11])
    back = space_from_doc(space_to_doc(sp))
    assert back == sp


def test_space_doc_rejects_non_topology():
    doc = {"points": ["x", "y"], "opens": [[], ["x"], ["y"]]}
    with pytest.raises(ParseError):
        space_from_doc(doc)


def test_dumps_is_deterministic(corpus):
    doc = proximity_to_doc(corpus["C3R"])
    assert dumps(doc) == dumps(json.loads(dumps(doc)))


def stdlib_dumps(doc):
    """The text formats.dumps must give, byte for byte."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


# quotes, backslashes, control and non-ASCII characters, often repeated
texts = st.text() | st.text(alphabet='"\\\n\t\x00\x1f\x7f é☃😀ab', max_size=6)
json_scalars = (st.none() | st.booleans() | st.integers() | st.floats()
                | texts)
json_documents = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(texts, max_size=4)
    | st.dictionaries(texts, inner, max_size=4),
    max_leaves=20)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(json_documents)
def test_dumps_against_the_stdlib(doc):
    assert dumps(doc) == stdlib_dumps(doc)


def test_dumps_against_the_stdlib_on_cli_documents(monkeypatch):
    docs = []

    def kept(doc):
        docs.append(doc)
        return dumps(doc)

    monkeypatch.setattr(cli, "dumps", kept)
    verbs = (("check",), ("canext",), ("canext", "--kind", "sigma"),
             ("extend",), ("spectrum",), ("dualize",), ("roundtrip",))
    for name in CORPUS:
        for verb in verbs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main([verb[0], name, *verb[1:]])
    kinds = collections.Counter(doc["kind"] for doc in docs)
    assert kinds == {"axiom_report": 6, "extension": 12, "proximity": 6,
                     "spectrum": 5, "diagnostic": 8}
    for doc in docs:
        assert dumps(doc) == stdlib_dumps(doc), doc["kind"]


def test_dot_exports(corpus):
    dot = dot_lattice(corpus["B2"].lattice)
    assert dot.count("->") == 4  # cover edges only
    sp = finite_space(["x", "y"], [0b00, 0b01, 0b11])
    sdot = dot_space(sp)
    assert "n1 -> n0" in sdot  # y specializes to x


def _reading(doc):
    """What lattice_from_doc makes of a document, checked against the
    Warshall oracle: the same lattice, or the same error and text. The
    lattice, or the error type."""
    outcomes = []
    for read in (lattice_from_doc, lattice_from_doc_by_warshall):
        try:
            outcomes.append(read(doc))
        except ProxlatError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1], doc
    return outcomes[0] if isinstance(outcomes[0], FiniteLattice) \
        else outcomes[0][0]


def test_order_closure_against_warshall():
    """Every digraph on at most 4 labelled nodes, loops included, and
    the covers of chain(64) and boolean(6) in both element orders and
    both pair orders."""
    seen = collections.Counter()
    for n in range(5):
        names = [f"v{i}" for i in range(n)]
        edges = list(itertools.product(names, repeat=2))
        for code in range(1 << len(edges)):
            doc = {"elements": names,
                   "leq": [list(e) for i, e in enumerate(edges) if code >> i & 1]}
            found = _reading(doc)
            seen[found if isinstance(found, type) else FiniteLattice] += 1
    assert seen == {ParseError: 57164, NotALattice: 5341, FiniteLattice: 3562}
    chain = [f"c{i}" for i in range(64)]
    cube = [f"s{i}" for i in range(64)]
    for names, pairs in (
            (chain, [[chain[i], chain[i + 1]] for i in range(63)]),
            (cube, [[cube[i], cube[i | 1 << k]] for i in range(64)
                    for k in range(6) if not i >> k & 1])):
        for order in (names, names[::-1]):
            for listed in (pairs, pairs[::-1]):
                lat = _reading({"elements": order, "leq": listed})
                assert lat.size == 64


def test_pair_diagnostics_name_the_first_bad_name():
    """A pair is read left to right and the pairs in order, so the
    diagnostic names the first name that does not resolve."""
    lattice = {"elements": ["0", "1"], "leq": [["0", "1"]]}
    for raw, detail in (([["0", "1"], ["x", "y"]], "unknown element 'x'"),
                        ([["0", "y"], ["x", "1"]], "unknown element 'y'"),
                        ([[["0"], "z"]], "unknown element ['0']"),
                        ([["1", "1"], "01"], "bad relation pair '01'")):
        with pytest.raises(ParseError) as exc:
            proximity_from_doc({"lattice": lattice, "R": raw})
        assert str(exc.value) == detail
    with pytest.raises(ParseError, match="unknown element 'x'"):
        lattice_from_doc({"elements": ["0", "1"], "leq": [["x", "y"]]})
