"""JSON documents and DOT export.

Shared text formats, all tagged "schema": "proxlat/1". The lattice
document lists the order as covering-or-full pairs; the reflexive
transitive closure is applied on load. Output documents sort keys and
list entries canonically so identical inputs give identical bytes.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii
from typing import Any, Sequence

from .bitset import bits, compose_rows, transpose
from .canext import CanonicalExtension, ExtensionReport
from .errors import ProxlatError
from .lattice import (
    FiniteLattice,
    _set_label,
    antisymmetry_witness,
    covers,
    lattice_from_up,
)
from .morphext import ExtendedMap, PreservationReport
from .proximity import (
    AxiomReport,
    MorphismReport,
    ProximityLattice,
    ProximityMorphism,
    proximity_lattice,
    proximity_morphism,
)
from .relations import Relation
from .spectra import FiniteSpace, SpectrumResult, finite_space, specialization

SCHEMA = "proxlat/1"
MAX_ELEMENTS = 64  # the "few dozen elements" the library is built for
# the opens of the discrete 12-point space; a topology check takes each
# open against each point outside it, O(|opens| * points) in all
MAX_OPENS = 4096


class ParseError(ProxlatError):
    pass


class TooLarge(ParseError):
    pass


def dumps(doc: dict) -> str:
    """The text of json.dumps(doc, indent=2, sort_keys=True) and a
    newline, written in one pass.

    With an indent the stdlib encodes in pure Python and escapes a
    string each time it occurs, and an extension document repeats each
    element name of C in five places; here each distinct string is
    escaped once per call. Values are told apart in json's order, lists
    and tuples alike, and dict keys must be strings; floats and unknown
    types go to json.dumps, which also raises where json would."""
    escaped: dict[str, str] = {}
    out: list[str] = []

    def string(s: str) -> str:
        text = escaped.get(s)
        if text is None:
            text = escaped[s] = encode_basestring_ascii(s)
        return text

    def write(value: Any, pad: str) -> None:
        if isinstance(value, str):
            out.append(string(value))
        elif value is None or value is True or value is False:
            out.append("null" if value is None else "true" if value else "false")
        elif isinstance(value, int):
            out.append(int.__repr__(value))
        elif isinstance(value, (list, tuple)):
            inner = pad + "  "
            head = "[" + inner
            for v in value:
                out.append(head)
                write(v, inner)
                head = "," + inner
            out.append(pad + "]" if value else "[]")
        elif isinstance(value, dict):
            inner = pad + "  "
            head = "{" + inner
            for k, v in sorted(value.items()):
                out.append(head + string(k) + ": ")
                write(v, inner)
                head = "," + inner
            out.append(pad + "}" if value else "{}")
        else:
            out.append(json.dumps(value))

    write(doc, "\n")
    out.append("\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# Lattices
# ---------------------------------------------------------------------------

def lattice_to_doc(lat: FiniteLattice) -> dict:
    pairs = [[lat.labels[a], lat.labels[b]] for a, b in lat.covers()]
    return {
        "schema": SCHEMA,
        "kind": "lattice",
        "elements": list(lat.labels),
        "leq": pairs,
    }


def _name_index(names: Sequence[Any], what: str) -> dict[str, int]:
    """{name: position} for a list of element or point names, which must
    be distinct strings."""
    for name in names:
        if not isinstance(name, str):
            raise ParseError(f"{what} name {name!r} is not a string")
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise ParseError(f"duplicate {what} names")
    return index


def _array(doc: Any, key: str, kind: str) -> list:
    """doc[key], which must be a JSON array: a string or an object
    would be read one character or one key at a time."""
    try:
        value = doc[key]
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed {kind} document: {exc}") from None
    if not isinstance(value, list):
        raise ParseError(f"malformed {kind} document: {key!r} is not an array")
    return value


def _resolve(index: dict[str, int], name: Any) -> int:
    try:
        return index[name]
    except (KeyError, TypeError):  # TypeError: an unhashable reference
        raise ParseError(f"unknown element {name!r}") from None


def _pair_rows(raw: list, index_a: dict, index_b: dict, what: str) -> list[int]:
    """The row masks {b : [a, b] in raw} of a list of pairs of names,
    each a JSON array of two names; a two-character string is not one."""
    rows = [0] * len(index_a)
    for pair in raw:
        if not isinstance(pair, list) or len(pair) != 2:
            raise ParseError(f"bad {what} pair {pair!r}")
        try:
            rows[index_a[pair[0]]] |= 1 << index_b[pair[1]]
        except (KeyError, TypeError):  # name the first unknown name
            _resolve(index_a, pair[0])
            _resolve(index_b, pair[1])
    return rows


def lattice_from_doc(doc: dict) -> FiniteLattice:
    """The lattice of a document, ordered by the reflexive transitive
    closure of its pairs: each up-set is closed once those above it are,
    in reverse topological order, in O(n + pairs) mask operations. A
    cycle leaves some open; squaring then closes the order, and the
    first pair that breaks antisymmetry is named. More than MAX_ELEMENTS
    elements are refused before anything is built."""
    labels = _array(doc, "elements", "lattice")
    if len(labels) > MAX_ELEMENTS:
        raise TooLarge(f"{len(labels)} elements, more than {MAX_ELEMENTS}")
    raw_pairs = _array(doc, "leq", "lattice")
    index = _name_index(labels, "element")
    n = len(labels)
    up = [row | 1 << a for a, row in
          enumerate(_pair_rows(raw_pairs, index, index, "order"))]
    below = transpose(up, n)
    left = [row.bit_count() - 1 for row in up]  # successors not yet closed
    ready = [a for a, k in enumerate(left) if not k]
    for b in ready:  # grows while it is read
        for a in bits(below[b] & ~(1 << b)):
            up[a] |= up[b]
            left[a] -= 1
            if not left[a]:
                ready.append(a)
    if len(ready) < n:
        up = tuple(up)
        while (closed := compose_rows(up, up)) != up:
            up = closed
        a, b = antisymmetry_witness(up)
        raise ParseError(f"order closure is not antisymmetric at "
                         f"({labels[a]!r},{labels[b]!r})")
    return lattice_from_up(labels, up)


# ---------------------------------------------------------------------------
# Proximity lattices and morphisms
# ---------------------------------------------------------------------------

def _pairs_to_relation(labels_a, labels_b, raw) -> Relation:
    rows = _pair_rows(raw, _name_index(labels_a, "element"),
                      _name_index(labels_b, "element"), "relation")
    return Relation(len(labels_a), len(labels_b), tuple(rows))


def _relation_to_pairs(rel: Relation, labels_a, labels_b) -> list[list[str]]:
    return [[labels_a[a], labels_b[b]] for a, b in rel.pairs()]


def proximity_to_doc(p: ProximityLattice) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "proximity",
        "lattice": {k: v for k, v in lattice_to_doc(p.lattice).items()
                    if k in ("elements", "leq")},
        "R": _relation_to_pairs(p.R, p.lattice.labels, p.lattice.labels),
    }


def carrier_from_doc(doc: dict) -> tuple[FiniteLattice, Relation]:
    """The lattice and relation of a proximity document, axioms unchecked."""
    try:
        lat = lattice_from_doc(doc["lattice"])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed proximity document: {exc}") from None
    raw_r = _array(doc, "R", "proximity")
    return lat, _pairs_to_relation(lat.labels, lat.labels, raw_r)


def proximity_from_doc(doc: dict) -> ProximityLattice:
    return proximity_lattice(*carrier_from_doc(doc))


def morphism_to_doc(t: ProximityMorphism) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "morphism",
        "source": {k: v for k, v in proximity_to_doc(t.source).items()
                   if k in ("lattice", "R")},
        "target": {k: v for k, v in proximity_to_doc(t.target).items()
                   if k in ("lattice", "R")},
        "T": _relation_to_pairs(t.T, t.source.lattice.labels,
                                t.target.lattice.labels),
    }


def morphism_from_doc(doc: dict) -> ProximityMorphism:
    """The morphism of a document. A target equal to the source parses
    to an equal carrier, so an endomorphism builds its carrier once and
    both ends share it, with what the carrier keeps."""
    try:
        source = doc["source"]
        src = proximity_from_doc(source)
        target = doc["target"]
        tgt = src if target == source else proximity_from_doc(target)
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed morphism document: {exc}") from None
    raw_t = _array(doc, "T", "morphism")
    rel = _pairs_to_relation(src.lattice.labels, tgt.lattice.labels, raw_t)
    return proximity_morphism(src, tgt, rel)


# ---------------------------------------------------------------------------
# Spaces
# ---------------------------------------------------------------------------

def space_to_doc(space: FiniteSpace) -> dict:
    return {
        "schema": SCHEMA,
        "kind": "space",
        "points": list(space.labels),
        "opens": [[space.labels[i] for i in bits(u)] for u in space.opens],
    }


def space_from_doc(doc: dict) -> FiniteSpace:
    """The space of a document. A topology check is O(|opens| * points)
    (see MAX_OPENS), so more than MAX_ELEMENTS points or MAX_OPENS listed
    opens are refused before anything is built."""
    labels = _array(doc, "points", "space")
    if len(labels) > MAX_ELEMENTS:
        raise TooLarge(f"{len(labels)} points, more than {MAX_ELEMENTS}")
    raw_opens = _array(doc, "opens", "space")
    if len(raw_opens) > MAX_OPENS:
        raise TooLarge(f"{len(raw_opens)} opens, more than {MAX_OPENS}")
    index = _name_index(labels, "point")
    opens = []
    for u in raw_opens:
        if not isinstance(u, list):
            raise ParseError(f"open {u!r} is not an array")
        mask = 0
        for name in u:
            mask |= 1 << _resolve(index, name)
        opens.append(mask)
    try:
        return finite_space(labels, opens)
    except ProxlatError as exc:
        raise ParseError(str(exc)) from None


# ---------------------------------------------------------------------------
# Reports and results
# ---------------------------------------------------------------------------

def _witnesses_doc(witnesses, labels) -> dict:
    return {name: [labels[i] for i in wit] for name, wit in witnesses}


def axiom_report_to_doc(report: AxiomReport, labels) -> dict:
    doc = {"schema": SCHEMA, "kind": "axiom_report"}
    doc.update(report.flags())
    doc["witnesses"] = _witnesses_doc(report.witnesses, labels)
    return doc


def morphism_report_to_doc(report: MorphismReport) -> dict:
    doc = {"schema": SCHEMA, "kind": "morphism_report"}
    doc.update(report.flags())
    doc["witnesses"] = {name: list(wit) for name, wit in report.witnesses}
    return doc


def extension_to_doc(ext: CanonicalExtension,
                     report: ExtensionReport | None = None) -> dict:
    labels = ext.source.lattice.labels
    doc = {
        "schema": SCHEMA,
        "kind": "extension",
        "extension_kind": ext.kind,
        "elements": [ext.C.labels[i] for i in range(ext.C.size)],
        "leq": [[ext.C.labels[a], ext.C.labels[b]] for a, b in ext.C.covers()],
        "embed": {labels[a]: ext.C.labels[ext.embed[a]]
                  for a in range(ext.source.size)},
        "round_filters": [[labels[i] for i in bits(m)] for m in ext.filters],
        "round_ideals": [[labels[i] for i in bits(m)] for m in ext.ideals],
        "filter_elements": [ext.C.labels[i] for i in ext.f],
        "ideal_elements": [ext.C.labels[i] for i in ext.g],
    }
    if ext.extents is not None:
        gen_labels = [_set_label(m, labels)
                      for m in (ext.filters if ext.kind == "pi" else ext.ideals)]
        doc["closed_sets"] = [
            sorted(gen_labels[i] for i in bits(extent))
            for extent in ext.extents]
    if report is not None:
        doc["report"] = report.flags()
    return doc


def spectrum_to_doc(result: SpectrumResult) -> dict:
    labels = result.source.lattice.labels
    return {
        "schema": SCHEMA,
        "kind": "spectrum",
        "points": [
            {"name": result.space.labels[i],
             "filter": [labels[x] for x in bits(result.point_filters[i])]}
            for i in range(result.space.points)
        ],
        "opens": space_to_doc(result.space)["opens"],
        "basic_open": {labels[d]:
                       [result.space.labels[i]
                        for i in bits(result.basic_open[d])]
                       for d in range(result.source.size)},
    }


def extended_map_to_doc(m: ExtendedMap,
                        report: PreservationReport | None = None) -> dict:
    doc = {
        "schema": SCHEMA,
        "kind": "extended_map",
        "map_kind": m.kind,
        "table": {m.source_ext.C.labels[u]: m.target_ext.C.labels[m.table[u]]
                  for u in range(m.source_ext.C.size)},
    }
    if report is not None:
        doc["report"] = report.flags()
    return doc


def diagnostic_doc(status: str, kind: str, detail: str,
                   witnesses=(), labels=()) -> dict:
    """`witnesses` are (name, element indices) pairs, written with the
    element names in `labels`."""
    doc = {"schema": SCHEMA, "kind": "diagnostic", "status": status,
           "error": kind, "detail": detail}
    if witnesses:
        doc["witnesses"] = _witnesses_doc(witnesses, labels)
    return doc


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

def dot_lattice(lat: FiniteLattice, highlight=(), name: str = "lattice") -> str:
    """Hasse diagram (cover edges only), bottom-up."""
    highlight = set(highlight)
    lines = [f"digraph {json.dumps(name)} {{", "  rankdir=BT;"]
    for a in range(lat.size):
        attrs = [f"label={json.dumps(lat.labels[a])}"]
        if a in highlight:
            attrs.append("peripheries=2")
        lines.append(f"  n{a} [{', '.join(attrs)}];")
    for a, b in lat.covers():
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def dot_space(space: FiniteSpace, name: str = "space") -> str:
    """Specialization order of the space as a Hasse diagram."""
    up = specialization(space)
    lines = [f"digraph {json.dumps(name)} {{", "  rankdir=BT;"]
    for x in range(space.points):
        lines.append(f"  n{x} [label={json.dumps(space.labels[x])}];")
    for x, y in covers(up, transpose(up, space.points)):
        lines.append(f"  n{x} -> n{y};")
    lines.append("}")
    return "\n".join(lines) + "\n"
