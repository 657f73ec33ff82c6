"""Polarities, concept lattices, and pi/sigma canonical extensions.

A polarity (X, Y, Z) induces a Galois connection between the power sets
of X and Y; its closed sets form a complete lattice join-generated by
the closures of points of X and meet-generated by the polars of points
of Y. Instantiating X and Y with the round filters and round ideals of
a proximity lattice, with Z as nonempty intersection, produces the
pi-canonical extension; the sigma extension is the same construction on
the opposite carrier, read upside down, so its round-subset images are
those of its pi build with filters and ideals swapped. The two
extensions agree, via an isomorphism commuting with the embeddings,
exactly when the proximity relation is reflexive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .bitset import bits, is_subset, transpose
from .errors import (
    ExtensionError,
    InternalCheckError,
    KindMismatch,
    NotDoublyStrong,
    NotJoinStrong,
    NotMeetStrong,
)
from .lattice import (
    FiniteLattice,
    LatticeMap,
    _intersection_closure,
    _lattice_of_sets,
    _set_label,
    is_homomorphism,
    opposite,
)
from .proximity import (
    ProximityLattice,
    _flag_fields,
    opposite_proximity,
    round_filter_masks,
    round_ideal_masks,
)
from .relations import Relation


@dataclass(frozen=True)
class Polarity:
    """X and Y are index sets; z relates X to Y."""

    nx: int
    ny: int
    z: Relation

    def __post_init__(self):
        if self.z.source_size != self.nx or self.z.target_size != self.ny:
            raise KindMismatch("polarity relation does not match X and Y")


def galois_maps(p: Polarity) -> tuple[Callable[[int], int],
                                      Callable[[int], int],
                                      Callable[[int], int]]:
    """The adjoint pair (l, r) of a polarity and the closure r∘l.

    l sends u in P(X) to the common Z-successors, r sends v in P(Y) to
    the common Z-predecessors; both reverse inclusion, the composite is
    monotone, inflationary and idempotent.
    """
    full_y = (1 << p.ny) - 1
    cols = p.z.converse().rows

    def l(u: int) -> int:
        out = full_y
        for x in bits(u):
            out &= p.z.rows[x]
        return out

    def r(v: int) -> int:
        out = (1 << p.nx) - 1
        for y in bits(v):
            out &= cols[y]
        return out

    def closure(u: int) -> int:
        return r(l(u))

    return l, r, closure


@dataclass(frozen=True)
class ConceptLattice:
    polarity: Polarity
    lattice: FiniteLattice
    extents: tuple[int, ...]   # element index -> closed subset of X
    f: tuple[int, ...]         # x in X -> element index of closure({x})
    g: tuple[int, ...]         # y in Y -> element index of the polar of {y}


def concept_lattice(p: Polarity, labels_x: Optional[list[str]] = None) -> ConceptLattice:
    """All Galois-closed subsets of X ordered by inclusion.

    The closed sets are X and the intersections of the polars r({y}).
    The generator maps join- and meet-generate the result, and
    f(x) <= g(y) holds exactly when x Z y; violations would be bugs and
    raise InternalCheckError.
    """
    _, r, _ = galois_maps(p)
    labels = labels_x or [f"x{i}" for i in range(p.nx)]
    polars = [r(1 << y) for y in range(p.ny)]
    extents = tuple(_intersection_closure(r(0), polars))
    lat = _lattice_of_sets(extents, labels)
    position = {m: i for i, m in enumerate(extents)}
    f = tuple(position[r(row)] for row in p.z.rows)  # closure({x}) = r(l({x}))
    g = tuple(position[v] for v in polars)
    cl = ConceptLattice(p, lat, extents, f, g)
    _assert_generation(cl)
    return cl


def _mask_of(elems) -> int:
    out = 0
    for x in elems:
        out |= 1 << x
    return out


def _join_below(lat: FiniteLattice, mask: int, u: int) -> int:
    """Join of the members of mask that lie below u."""
    return lat.join_mask(lat.down[u] & mask)


def _assert_generation(cl: ConceptLattice) -> None:
    lat = cl.lattice
    lat_op = opposite(lat)
    fmask, gmask = _mask_of(cl.f), _mask_of(cl.g)
    for u in range(lat.size):
        if _join_below(lat, fmask, u) != u:
            raise InternalCheckError("filter images fail to join-generate",
                                     witness=u)
        if _join_below(lat_op, gmask, u) != u:
            raise InternalCheckError("ideal images fail to meet-generate",
                                     witness=u)
    # above[u] = {y : u <= g(y)}, the preimage of up u under g
    above = transpose([lat.down[t] for t in cl.g], lat.size)
    for x, row in enumerate(cl.polarity.z.rows):
        wrong = above[cl.f[x]] ^ row
        if wrong:
            raise InternalCheckError("generator order disagrees with Z",
                                     witness=(x, next(bits(wrong))))


def polarity_preorder_pairs(p: Polarity) -> list[tuple[int, int]]:
    """The preorder on X + Y whose completion recovers the concept lattice.

    Indices 0..nx-1 are X, nx..nx+ny-1 are Y. x precedes y when x Z y;
    x1 precedes x2 when every Z-successor of x2 is one of x1; dually for
    Y; y precedes x when every Z-box around (x, y) is filled.
    """
    cols = p.z.converse().rows
    pairs = []
    for x1 in range(p.nx):
        for x2 in range(p.nx):
            if is_subset(p.z.rows[x2], p.z.rows[x1]):
                pairs.append((x1, x2))
    for y1 in range(p.ny):
        for y2 in range(p.ny):
            if is_subset(cols[y1], cols[y2]):
                pairs.append((p.nx + y1, p.nx + y2))
    for x in range(p.nx):
        for y in range(p.ny):
            if p.z.has(x, y):
                pairs.append((x, p.nx + y))
    # y precedes x when x' Z y and x Z y' always force x' Z y'
    for y in range(p.ny):
        for x in range(p.nx):
            if all(p.z.rows[x] & ~p.z.rows[x2] == 0 for x2 in bits(cols[y])):
                pairs.append((p.nx + y, x))
    return pairs


# ---------------------------------------------------------------------------
# Canonical extensions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CanonicalExtension:
    """A complete-lattice extension of a proximity lattice.

    `embed` is the extension map on the carrier; `filters`/`ideals`
    list the round subsets of the source and `f`/`g` their images
    (meets resp. joins of embedded members). Polarity-built extensions
    also carry the closed sets; sigma extensions keep the underlying
    pi-extension of the opposite for reuse.
    """

    kind: str                       # "pi" | "sigma"
    source: ProximityLattice
    C: FiniteLattice
    embed: tuple[int, ...]
    filters: tuple[int, ...]
    ideals: tuple[int, ...]
    f: tuple[int, ...]
    g: tuple[int, ...]
    extents: Optional[tuple[int, ...]] = None
    op_pi: Optional["CanonicalExtension"] = None

    def ideal_elements(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.g)))


def _join_of_image(lat: FiniteLattice, embed, mask: int) -> int:
    out = lat.bot
    for a in bits(mask):
        out = lat.join[out][embed[a]]
    return out


def _first_unpreserved(lat: FiniteLattice, embed, rows) -> Optional[int]:
    """First a whose embedding is not the join of the embedded rows[a]."""
    for a, row in enumerate(rows):
        if embed[a] != _join_of_image(lat, embed, row):
            return a
    return None


def make_extension(kind: str, source: ProximityLattice, c: FiniteLattice,
                   embed, extents=None) -> CanonicalExtension:
    """Assemble a CanonicalExtension, deriving the round-subset images;
    the round filters and ideals are read off the mu of `source` and of
    its opposite."""
    filters = round_filter_masks(source)
    ideals = round_ideal_masks(source)
    c_op = opposite(c)
    f = tuple(_join_of_image(c_op, embed, fm) for fm in filters)
    g = tuple(_join_of_image(c, embed, im) for im in ideals)
    return CanonicalExtension(kind=kind, source=source, C=c,
                              embed=tuple(embed), filters=filters,
                              ideals=ideals, f=f, g=g, extents=extents)


def intersection_polarity(p: ProximityLattice) -> tuple[Polarity, tuple[int, ...], tuple[int, ...]]:
    """Round filters against round ideals, related by nonempty intersection."""
    filters = round_filter_masks(p)
    ideals = round_ideal_masks(p)
    rows = tuple(
        sum(1 << i for i, im in enumerate(ideals) if fm & im)
        for fm in filters)
    return Polarity(len(filters), len(ideals), Relation(len(filters), len(ideals), rows)), filters, ideals


def pi_extension(p: ProximityLattice) -> CanonicalExtension:
    """The pi-canonical extension of a join-strong proximity lattice.

    Concept lattice of the intersection polarity, with a carried into
    the polar of its R-preimage ideal; concretely embed(a) is the set
    of round filters containing a.
    """
    if not p.join_strong:
        raise NotJoinStrong("pi extension needs a join-strong proximity lattice")
    polarity, filters, ideals = intersection_polarity(p)
    labels_x = [_set_label(fm, p.lattice.labels) for fm in filters]
    cl = concept_lattice(polarity, labels_x)

    cols = p.R.converse().rows
    ideal_index = {im: i for i, im in enumerate(ideals)}
    embed = []
    for a in range(p.size):
        pre = cols[a]
        if pre not in ideal_index:  # pragma: no cover - theorem guard
            raise InternalCheckError("R-preimage of a point is not round",
                                     witness=a)
        embed.append(cl.g[ideal_index[pre]])
    embed = tuple(embed)

    # explicit description: the extent of embed(a) is {F : a in F}
    for a, wanted in enumerate(transpose(filters, p.size)):
        if cl.extents[embed[a]] != wanted:  # pragma: no cover - theorem guard
            raise InternalCheckError("embedding disagrees with membership",
                                     witness=a)
    hom = LatticeMap(p.lattice, cl.lattice, embed)
    if not is_homomorphism(hom):  # pragma: no cover - theorem guard
        raise InternalCheckError("pi embedding is not a homomorphism")

    ext = make_extension("pi", p, cl.lattice, embed, extents=cl.extents)
    # round filter and ideal images coincide with the polarity generators
    if ext.f != tuple(cl.f[i] for i in range(len(filters))):
        raise InternalCheckError("filter images disagree with generators")
    if ext.g != tuple(cl.g[i] for i in range(len(ideals))):
        raise InternalCheckError("ideal images disagree with generators")
    return ext


def sigma_extension(p: ProximityLattice) -> CanonicalExtension:
    """The sigma-canonical extension of a meet-strong proximity lattice:
    the pi extension of the opposite, read in the opposite order."""
    if not p.meet_strong:
        raise NotMeetStrong("sigma extension needs a meet-strong proximity lattice")
    epi = pi_extension(opposite_proximity(p))
    # the round filters of p are the round ideals of its opposite, and
    # joins in opposite(epi.C) are meets in epi.C, so the generators swap
    ext = CanonicalExtension(kind="sigma", source=p, C=opposite(epi.C),
                             embed=epi.embed, filters=epi.ideals,
                             ideals=epi.filters, f=epi.g, g=epi.f,
                             extents=epi.extents, op_pi=epi)
    bad = _first_unpreserved(epi.C, ext.embed, p.R.rows)
    if bad is not None:  # pragma: no cover - theorem guard
        raise InternalCheckError("sigma embedding is not R-meet-preserving",
                                 witness=bad)
    return ext


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionReport:
    increasing: bool
    dense: bool
    compact: bool
    join_preserving: bool
    meet_preserving: bool
    witnesses: tuple[tuple[str, tuple[int, ...]], ...]

    def passes(self, kind: str) -> bool:
        base = self.increasing and self.dense and self.compact
        if kind == "pi":
            return base and self.join_preserving
        if kind == "sigma":
            return base and self.meet_preserving
        raise KindMismatch(f"unknown extension kind {kind!r}")

    def witness(self, name: str) -> Optional[tuple[int, ...]]:
        return dict(self.witnesses).get(name)

    def flags(self) -> dict[str, bool]:
        return _flag_fields(self)


def verify_extension(ext: CanonicalExtension) -> ExtensionReport:
    """Check density, compactness and the two preservation properties.

    Density: every element is a join of round-filter elements below it
    and a meet of round-ideal elements above it. Compactness is
    quantified over round filter/ideal pairs (sound for R-increasing
    embeddings, which is checked first): whenever the filter image lies
    below the ideal image, the two round subsets intersect.
    """
    p = ext.source
    c = ext.C
    embed = ext.embed
    witnesses: list[tuple[str, tuple[int, ...]]] = []

    increasing = True
    for a in range(p.size):
        for b in bits(p.R.rows[a]):
            if not c.leq(embed[a], embed[b]):
                increasing = False
                witnesses.append(("increasing", (a, b)))
                break
        if not increasing:
            break

    c_op = opposite(c)
    fe = [_join_of_image(c_op, embed, fm) for fm in ext.filters]
    ie = [_join_of_image(c, embed, im) for im in ext.ideals]

    dense = True
    fmask, imask = _mask_of(fe), _mask_of(ie)
    for u in range(c.size):
        if _join_below(c, fmask, u) != u or _join_below(c_op, imask, u) != u:
            dense = False
            witnesses.append(("dense", (u,)))
            break

    compact = True
    above = transpose([c.down[t] for t in ie], c.size)  # {j : u <= ie[j]}
    for i, fm in enumerate(ext.filters):
        for j in bits(above[fe[i]]):
            if not fm & ext.ideals[j]:
                compact = False
                witnesses.append(("compact", (i, j)))
                break
        if not compact:
            break

    join_bad = _first_unpreserved(c, embed, p.R.converse().rows)
    meet_bad = _first_unpreserved(c_op, embed, p.R.rows)
    for name, bad in (("join_preserving", join_bad), ("meet_preserving", meet_bad)):
        if bad is not None:
            witnesses.append((name, (bad,)))

    return ExtensionReport(
        increasing=increasing,
        dense=dense,
        compact=compact,
        join_preserving=join_bad is None,
        meet_preserving=meet_bad is None,
        witnesses=tuple(witnesses),
    )


# ---------------------------------------------------------------------------
# Uniqueness
# ---------------------------------------------------------------------------

def _generator_iso(c1: FiniteLattice, f1, g1, c2: FiniteLattice, f2, g2,
                   ) -> Optional[LatticeMap]:
    """The unique isomorphism determined by matching generators, if the
    candidate determined on joins of filter images verifies."""
    table = []
    for below in transpose([c1.up[t] for t in f1], c1.size):
        table.append(c2.join_mask(_mask_of(f2[i] for i in bits(below))))
    if sorted(table) != list(range(c2.size)):
        return None
    above = transpose([c2.down[t] for t in table], c2.size)
    for u in range(c1.size):
        if above[table[u]] != c1.up[u]:
            return None
    for i in range(len(f1)):
        if table[f1[i]] != f2[i]:
            return None
    for j in range(len(g1)):
        if table[g1[j]] != g2[j]:
            return None
    return LatticeMap(c1, c2, tuple(table))


def _commuting_iso(e1: CanonicalExtension, e2: CanonicalExtension,
                   ) -> Optional[LatticeMap]:
    """The isomorphism e1.C -> e2.C matching the generators, if it also
    carries e1.embed to e2.embed. Any isomorphism commuting with the
    embeddings sends round-subset images to their counterparts, and
    those join-generate, so there is at most one."""
    phi = _generator_iso(e1.C, e1.f, e1.g, e2.C, e2.f, e2.g)
    if phi is None:
        return None
    for a in range(e1.source.size):
        if phi.table[e1.embed[a]] != e2.embed[a]:
            return None
    return phi


def check_uniqueness(e1: CanonicalExtension, e2: CanonicalExtension,
                     ) -> Optional[LatticeMap]:
    """Isomorphism e1.C -> e2.C commuting with the embeddings, or None.

    Both inputs must be verified extensions of the same proximity
    lattice and the same kind; an unverifiable input is rejected.
    Absence of the isomorphism for verified inputs is a uniqueness
    violation, i.e. a test failure upstream.
    """
    if e1.kind != e2.kind:
        raise KindMismatch(f"cannot compare a {e1.kind} with a {e2.kind} extension")
    if not e1.source.same_carrier(e2.source):
        raise KindMismatch("extensions must share the source proximity lattice")
    for e in (e1, e2):
        if not verify_extension(e).passes(e.kind):
            raise ExtensionError(
                f"input does not verify as a {e.kind} extension")
    return _commuting_iso(e1, e2)


@dataclass(frozen=True)
class ComparisonReport:
    reflexive: bool
    phi_exists: bool
    sigma_join_preserving: bool
    phi: Optional[LatticeMap]
    witnesses: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def equivalent(self) -> bool:
        return self.reflexive == self.phi_exists == self.sigma_join_preserving


def pi_sigma_comparison(p: ProximityLattice) -> ComparisonReport:
    """Compare the two canonical extensions of a doubly strong carrier.

    Reports reflexivity of R, whether some isomorphism carries the pi
    embedding to the sigma embedding, and whether the sigma extension
    is itself join-preserving; the three are equivalent.
    """
    if not p.doubly_strong:
        raise NotDoublyStrong("comparison needs both strongness properties")
    h = pi_extension(p)
    k = sigma_extension(p)
    pins: dict[int, int] = {}
    conflict = None
    for a in range(p.size):
        cur = pins.get(h.embed[a])
        if cur is not None and cur != k.embed[a]:
            conflict = (a,)
            break
        pins[h.embed[a]] = k.embed[a]
    phi = None if conflict else _commuting_iso(h, k)
    sigma_as_pi = _first_unpreserved(k.C, k.embed, p.R.converse().rows) is None
    witnesses: list[tuple[str, tuple[int, ...]]] = []
    if conflict is not None:
        witnesses.append(("embedding_conflict", conflict))
    if p.reflexive != (phi is not None):
        witnesses.append(("mismatch", ()))
    return ComparisonReport(
        reflexive=p.reflexive,
        phi_exists=phi is not None,
        sigma_join_preserving=sigma_as_pi,
        phi=phi,
        witnesses=tuple(witnesses),
    )
