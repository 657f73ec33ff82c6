"""Extending proximity morphisms to the canonical extensions.

The pi-extension of a map is defined in two stages (Gehrke & Jonsson,
"Bounded distributive lattice expansions", Math. Scand. 94, 2004):
stage 1 sends a round ideal element y to the join of the embedded image
of T over {a : embed(a) <= y}, stage 2 sends u to the meet of stage 1
over the round ideal elements above u. On a finite C stage 2 is the
identity, so the table is stage 1 over all of C:

* In a pi build, embed maps Fix mu onto C: the closed sets are member[q]
  for q in Fix mu, and embed(q) = member[mu(q)] = member[q] (canext).
* The image of the round ideal down q is embed(q), as embed is monotone
  and q is the top of down q. So every element of C is a round ideal
  element.
* Stage 1 is monotone in y, so the stage-2 meet over the ideal elements
  above u, u among them, is stage 1 at u.

The extended map agrees with T on embedded elements, preserves all
meets and directed joins of round ideal elements, and for j-morphisms
finite joins of round ideal elements as well. Whether it preserves all
joins is settled here only through the duality, in the distributive
case.

Sigma extensions of m-morphisms run the same construction through the
pi builds of the opposite carriers, so their preservation report reads
in the opposite order: the 'meets' slots are joins of the original
orientation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bitset import preimage, transpose
from .canext import CanonicalExtension, _join_of_image, _mask_of, pi_extension
from .errors import (
    InternalCheckError,
    KindMismatch,
    NotAProximityMorphism,
    NotDistributive,
)
from .lattice import FiniteLattice, _unordered_pair, _unpreserved_join, opposite
from .proximity import ProximityMorphism, opposite_proximity
from .relations import Relation


@dataclass(frozen=True)
class ExtendedMap:
    kind: str
    morphism: ProximityMorphism
    source_ext: CanonicalExtension
    target_ext: CanonicalExtension
    table: tuple[int, ...]


def _pi_table(rel: Relation, e_src: CanonicalExtension,
              e_tgt: CanonicalExtension) -> tuple[int, ...]:
    """y -> the join of the embedded image of T over {a : embed(a) <= y}
    for every y in C, the whole pi-extension (module docstring)."""
    c_src = e_src.C
    # below[y] = {a : embed(a) <= y}, the preimage of down y
    below = transpose([c_src.up[t] for t in e_src.embed], c_src.size)
    return tuple(_join_of_image(e_tgt.C, e_tgt.embed, rel.image(b))
                 for b in below)


def _check_agrees_on_embedding(rel: Relation, e_src, e_tgt, table) -> None:
    for a in range(e_src.source.size):
        expected = _join_of_image(e_tgt.C, e_tgt.embed, rel.rows[a])
        if table[e_src.embed[a]] != expected:
            raise InternalCheckError(
                "extended map disagrees with the morphism on an embedded element",
                witness=a)


def _check_monotone(c_src: FiniteLattice, c_tgt: FiniteLattice, table) -> None:
    pair = _unordered_pair(c_tgt, table, c_src.up)
    if pair is not None:
        raise InternalCheckError("extended map is not monotone", witness=pair)


def require_proximity(t: ProximityMorphism, verb: str = "extend_pi") -> None:
    """NotAProximityMorphism unless t is one, as extending it needs."""
    if not t.is_proximity:
        raise NotAProximityMorphism(f"{verb} needs a proximity morphism")


def extend_pi(t: ProximityMorphism, e_src: CanonicalExtension,
              e_tgt: CanonicalExtension) -> ExtendedMap:
    """Extend a proximity morphism between the pi extensions of its
    endpoints; also asserts the extension property and monotonicity."""
    if e_src.kind != "pi" or e_tgt.kind != "pi":
        raise KindMismatch("extend_pi needs pi extensions on both sides")
    require_proximity(t)
    if not (t.source.same_carrier(e_src.source)
            and t.target.same_carrier(e_tgt.source)):
        raise KindMismatch("morphism endpoints do not match the extensions")
    table = _pi_table(t.T, e_src, e_tgt)
    _check_agrees_on_embedding(t.T, e_src, e_tgt, table)
    _check_monotone(e_src.C, e_tgt.C, table)
    return ExtendedMap("pi", t, e_src, e_tgt, table)


def extend_sigma(u: ProximityMorphism, e_src: CanonicalExtension,
                 e_tgt: CanonicalExtension) -> ExtendedMap:
    """Extend an m-morphism between sigma extensions by running the pi
    construction through the pi builds the opposite carriers keep."""
    if e_src.kind != "sigma" or e_tgt.kind != "sigma":
        raise KindMismatch("extend_sigma needs sigma extensions on both sides")
    require_proximity(u, "extend_sigma")
    if not (u.source.same_carrier(e_src.source)
            and u.target.same_carrier(e_tgt.source)):
        raise KindMismatch("morphism endpoints do not match the extensions")
    op_src = pi_extension(opposite_proximity(e_src.source))
    op_tgt = pi_extension(opposite_proximity(e_tgt.source))
    table = _pi_table(u.T, op_src, op_tgt)
    # the dual extension property: read through the opposite build, the
    # embedded image condition is the same equation
    _check_agrees_on_embedding(u.T, op_src, op_tgt, table)
    _check_monotone(e_src.C, e_tgt.C, table)
    return ExtendedMap("sigma", u, e_src, e_tgt, table)


@dataclass(frozen=True)
class PreservationReport:
    """Preservation checks over the whole (finite) extension.

    For sigma maps the checks run on the opposite lattices, so each
    field names the order-dual property of the original orientation.

    `finite_ideal_joins` is about nonempty finite joins of round ideal
    elements, checked at the binary instances. The empty join, the
    bottom of C, is an ideal element too, but it is not required: the
    full relation on C2 is a proximity morphism whose extension sends
    that bottom to the top. `all_joins` does include the empty join.
    """

    kind: str
    approximable: bool          # j flag for pi, m flag for sigma
    all_meets: bool
    directed_ideal_joins: bool
    finite_ideal_joins: bool
    all_joins: bool
    witnesses: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def required_ok(self) -> bool:
        """The properties that hold for every extended proximity morphism,
        plus finite ideal joins when the morphism is approximable."""
        return self.all_meets and self.directed_ideal_joins and (
            self.finite_ideal_joins or not self.approximable)

    def flags(self) -> dict[str, bool]:
        return {
            "all_meets": self.all_meets,
            "directed_ideal_joins": self.directed_ideal_joins,
            "finite_ideal_joins": self.finite_ideal_joins,
            "all_joins": self.all_joins,
        }


def check_preservation(m: ExtendedMap) -> PreservationReport:
    """Quantify the preservation properties over the finite extension.

    Arbitrary meets and joins reduce to the empty and binary instances,
    and nonempty finite joins of round ideal elements to the binary
    ones. Each failed property gets one witness, its first failed
    instance: the empty meet (join) as (top,) ((bot,)) before any
    binary pair (u, v).
    Directed joins of round ideal elements reduce to monotonicity on
    them: a finite directed family D has a greatest member g, so its
    join is g, and the map preserves it exactly when every y in D has
    table[y] <= table[g]. Every pair y <= g of ideal elements is such a
    family, so the check over pairs is exact at every size.
    """
    if m.kind == "pi":
        c_src, c_tgt = m.source_ext.C, m.target_ext.C
        ideal_elems = m.source_ext.ideal_elements()
        approx = m.morphism.is_j
    else:
        c_src = opposite(m.source_ext.C)
        c_tgt = opposite(m.target_ext.C)
        ideal_elems = tuple(sorted(set(m.source_ext.f)))
        approx = m.morphism.is_m
    table = m.table
    every = range(c_src.size)
    ideal_mask = _mask_of(ideal_elems)

    directed = _unordered_pair(c_tgt, table, [
        c_src.up[y] & ideal_mask if ideal_mask >> y & 1 else 0 for y in every])

    found = (
        ("all_meets", _unpreserved_join(opposite(c_src), opposite(c_tgt),
                                        table, every)),
        ("directed_ideal_joins", directed),
        ("finite_ideal_joins", _unpreserved_join(c_src, c_tgt, table,
                                                 ideal_elems, empty=False)),
        ("all_joins", _unpreserved_join(c_src, c_tgt, table, every)),
    )
    flags = {name: witness is None for name, witness in found}
    return PreservationReport(
        kind=m.kind,
        approximable=approx,
        witnesses=tuple((name, w) for name, w in found if w is not None),
        **flags,
    )


def compare_with_dual(m: ExtendedMap, dual) -> bool:
    """Check that the extended map, transported to the saturated-set
    lattices of the spectra, is the preimage map of the dual point map.

    `dual` is the DualMap of the same morphism, or of one with the same
    endpoints and relation; any other raises KindMismatch. Requires
    distributive sources and extensions built by pi_extension. The
    duality builds of both carriers are the ones kept on them
    (canext_via_duality), so a run over many morphisms between a few
    carriers builds each once.
    """
    from .spectra import canext_via_duality

    t, s = m.morphism, dual.morphism
    if not (t.source.distributive and t.target.distributive):
        raise NotDistributive("the duality transport needs distributive carriers")
    if s is not t and not (s.source.same_carrier(t.source)
                           and s.target.same_carrier(t.target) and s.T == t.T):
        raise KindMismatch("dual map belongs to a different morphism")
    d_src = canext_via_duality(t.source)
    d_tgt = canext_via_duality(t.target)
    if d_src.pi_ext.C != m.source_ext.C or d_tgt.pi_ext.C != m.target_ext.C:
        raise KindMismatch("extensions must be the canonical pi extensions")

    for u in range(m.source_ext.C.size):
        sat_u = d_src.sat_sets[d_src.iso.table[u]]
        if d_tgt.sat_sets[d_tgt.iso.table[m.table[u]]] != preimage(
                dual.point_map, sat_u):
            return False
    return True
