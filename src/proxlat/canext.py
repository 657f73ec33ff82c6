"""Polarities, concept lattices, and pi/sigma canonical extensions.

A polarity (X, Y, Z) induces a Galois connection between the power sets
of X and Y; its closed sets, X and the intersections of the polars of
points of Y, form a complete lattice (`concept_lattice`).

The pi-canonical extension is the concept lattice of the round filters
against the round ideals, related by nonempty intersection. On a finite
carrier (see proxlat.proximity for mu and nu) the round filters are
up p, p in Fix nu, and the round ideals down q, q in Fix mu. Up p meets
down q iff p <= q, so the polar of down q is member[q] = {F : q in F}.
mu preserves finite meets and fixes top, so Fix mu is meet-closed and
these polars are closed under intersection: they are all the closed
sets. So `pi_extension` reads C off mu with no closure, and sends a to
member[mu(a)] = member[a].

The sigma extension is the same construction on the opposite carrier,
read upside down, so its round-subset images are those of its pi build
with filters and ideals swapped. The two extensions agree, via an
isomorphism commuting with the embeddings, exactly when the proximity
relation is reflexive. The pi build is kept on its carrier
(lattice.kept), so the sigma build of the opposite and
spectra.canext_via_duality reuse it.

An extension is fixed by its embedding, so a `CanonicalExtension`
stores C and embed (and the closed sets of a pi or sigma build); its
round-subset images and its verify_extension report are derived once
and kept on it. A pi build's images are e(p), p in Fix nu, and e(q),
q in Fix mu (last paragraph), so no guard re-decides them.

C is isomorphic to (Fix mu, <=), so |C| = |Fix mu|: q -> member[q] is
monotone, and it reflects the order on Fix mu, so it is injective
there and `pi_extension` lists one closed set per fixed point. Recall
a R b iff a <= mu(b) iff nu(a) <= b. Take q1, q2 in Fix mu with q2 not
below q1. q2 <= mu(q2), so q2 R q2 and nu(q2) <= q2. Were
nu(q2) <= q1, then q2 R q1 and q2 <= mu(q1) = q1, which is false. As
nu is idempotent, up nu(q2) is a round filter; it holds q2 and misses
q1, so member[q2] is not inside member[q1]. The argument uses neither
distributivity nor strongness.

Every extension that passes verify_extension embeds onto C, so an
isomorphism commuting with the embeddings must be phi(e1(a)) = e2(a),
and `_forced_iso` reads it off the embeddings. Take a verified pi
build e. R^-1[b] is down mu(b), so join preservation makes e(b) the
join of e[down mu(b)]; mu is monotone, hence so is e, and the images
of up p (p in Fix nu) and down q (q in Fix mu) are e(p) and e(q). Take
u in C and q* the meet of Q = {q in Fix mu : u <= e(q)}, in Fix mu as
Fix mu is meet-closed. Then e(q*) is below every e(q), q in Q, whose
meet is u by density. If p in Fix nu has e(p) <= u, then
e(p) <= e(q) for q in Q, so compactness makes up p meet down q, i.e.
p <= q; hence p <= q* and e(p) <= e(q*). Density makes u the join of
these e(p), so u = e(q*). For sigma, run the argument through meet
preservation, R[a] = up nu(a), and the join of the p in Fix nu with
e(p) <= u.
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
    _unordered_pair,
    down_preimages,
    is_homomorphism,
    join_irreducibles,
    keep,
    kept,
    opposite,
)
from .proximity import (
    ProximityLattice,
    _flag_fields,
    _tops,
    fixed_points,
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

    return l, r, lambda u: r(l(u))


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
    raise InternalCheckError. This is the tool for any polarity; on the
    intersection polarity it is the tests' oracle for `pi_extension`.
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


def _first_ungenerated(lat: FiniteLattice, f, g) -> Optional[tuple[int, bool]]:
    """The least u that is not the join of the images f[x] below it,
    as (u, True), or not the meet of the images g[y] above it, as
    (u, False), the join tested first; None when f join-generates and g
    meet-generates lat. The meet is the join in the opposite. They
    generate iff they hold every join- resp. meet-irreducible element
    (lattice.join_irreducibles); the loop only names a failure."""
    lat_op = opposite(lat)
    fmask, gmask = _mask_of(f), _mask_of(g)
    if not (join_irreducibles(lat) & ~fmask or join_irreducibles(lat_op) & ~gmask):
        return None
    for u in range(lat.size):
        if lat.join_mask(lat.down[u] & fmask) != u:
            return u, True
        if lat_op.join_mask(lat_op.down[u] & gmask) != u:
            return u, False
    return None


def _assert_generation(cl: ConceptLattice) -> None:
    lat = cl.lattice
    ungenerated = _first_ungenerated(lat, cl.f, cl.g)
    if ungenerated is not None:
        u, joins = ungenerated
        raise InternalCheckError("filter images fail to join-generate" if joins
                                 else "ideal images fail to meet-generate",
                                 (("ungenerated", (u,)),), lat.labels)
    # above[u] = {y : u <= g(y)}, the preimage of up u under g
    above = transpose([lat.down[t] for t in cl.g], lat.size)
    for x, row in enumerate(cl.polarity.z.rows):
        wrong = above[cl.f[x]] ^ row
        if wrong:
            y = next(bits(wrong))
            raise InternalCheckError("generator order disagrees with Z",
                                     (("f", (cl.f[x],)), ("g", (cl.g[y],))),
                                     lat.labels)


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
    """A complete-lattice extension of a proximity lattice, stored as C
    and the map `embed` of the carrier into it. pi builds also carry the
    closed sets member[q], q in Fix mu; a sigma build carries those of
    pi_extension(opposite_proximity(source)), kept on that carrier.
    `filters`/`ideals` are the round subsets of the source, and `f`/`g`
    their images, the meets resp. joins of embedded members, derived
    once per record and kept on it (module docstring).
    """

    kind: str                       # "pi" | "sigma"
    source: ProximityLattice
    C: FiniteLattice
    embed: tuple[int, ...]
    extents: Optional[tuple[int, ...]] = None

    @property
    def filters(self) -> tuple[int, ...]:
        return round_filter_masks(self.source)

    @property
    def ideals(self) -> tuple[int, ...]:
        return round_ideal_masks(self.source)

    @property
    @kept
    def over(self) -> tuple[int, ...]:
        """over[u] = {a : u <= embed[a]}, the preimage of up u."""
        return down_preimages(opposite(self.C), self.embed)

    @property
    @kept
    def monotone(self) -> bool:
        return _unordered_pair(self.over, self.embed, self.source.lattice.up) is None

    @property
    @kept
    def f(self) -> tuple[int, ...]:
        return _images(self, opposite(self.C), self.filters,
                       opposite(self.source.lattice))

    @property
    @kept
    def g(self) -> tuple[int, ...]:
        return _images(self, self.C, self.ideals, self.source.lattice)

    def ideal_elements(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.g)))


def _images(ext: CanonicalExtension, lat: FiniteLattice, masks,
            order: FiniteLattice) -> tuple[int, ...]:
    """The join in lat (C or its opposite) of e[m] for each mask m; a
    monotone e sends down q of `order` (L or its opposite) to e(q)."""
    embed = ext.embed
    if ext.monotone:
        return tuple(map(embed.__getitem__, _tops(order, masks)))
    out = []
    for mask in masks:
        out.append(lat.join_mask(_mask_of(map(embed.__getitem__, bits(mask)))))
    return tuple(out)


def require_join_strong(p: ProximityLattice) -> None:
    """NotJoinStrong unless p is join-strong, as its pi extension needs."""
    if not p.join_strong:
        raise NotJoinStrong("pi extension needs a join-strong proximity lattice")


@kept
def pi_extension(p: ProximityLattice) -> CanonicalExtension:
    """The pi-canonical extension of a join-strong proximity lattice:
    the closed sets are the polars member[q] = {F : q in F} of the
    round ideals down q, one for each q in Fix mu, and a goes to
    member[mu(a)], the round filters containing a (module docstring).

    Built once per carrier and kept on it, so a second call, the sigma
    build of the opposite and canext_via_duality return the same
    object. A build that raises keeps nothing. The kept extension names
    p as its source: the two form a reference cycle, which gc collects.
    """
    require_join_strong(p)
    filters = round_filter_masks(p)
    member = transpose(filters, p.size)  # member[q] = {F : q in F}
    mu, fixed = p.mu, fixed_points(p)
    # one closed set per fixed point: member is injective on Fix mu
    extents = tuple(sorted([member[q] for q in fixed],
                           key=lambda m: (m.bit_count(), m)))
    c = _lattice_of_sets(extents, [_set_label(fm, p.lattice.labels)
                                   for fm in filters])
    position = {m: i for i, m in enumerate(extents)}
    embed = tuple(position[member[m]] for m in mu)

    # explicit description: the extent of embed(a) is {F : a in F}
    for a, m in enumerate(mu):
        if member[m] != member[a]:  # pragma: no cover - theorem guard
            raise InternalCheckError("embedding disagrees with membership",
                                     (("element", (a,)),), p.lattice.labels)
    hom = LatticeMap(p.lattice, c, embed)
    if not is_homomorphism(hom):  # pragma: no cover - theorem guard
        raise InternalCheckError("pi embedding is not a homomorphism")
    ext = CanonicalExtension("pi", p, c, embed, extents)
    keep(ext, CanonicalExtension.over.fget, hom.over)
    return ext


def sigma_extension(p: ProximityLattice) -> CanonicalExtension:
    """The sigma-canonical extension of a meet-strong proximity lattice:
    the pi extension of the opposite, read in the opposite order."""
    if not p.meet_strong:
        raise NotMeetStrong("sigma extension needs a meet-strong proximity lattice")
    epi = pi_extension(opposite_proximity(p))
    return CanonicalExtension("sigma", p, opposite(epi.C), epi.embed,
                              epi.extents)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExtensionReport:
    """The flags of verify_extension, a least witness per failure:
    source elements (a, b) for increasing and (a,) for join_preserving
    and meet_preserving, an element (u,) of C for dense, and indices
    (i, j) into the round filters and round ideals for compact."""

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


@kept
def verify_extension(ext: CanonicalExtension) -> ExtensionReport:
    """Check density, compactness and the two preservation properties.

    Density: every element is a join of round-filter elements below it
    and a meet of round-ideal elements above it (_first_ungenerated).
    Compactness is quantified over round filter/ideal pairs (sound for
    R-increasing embeddings, which is checked first): whenever the
    filter image lies below the ideal image, the two round subsets
    intersect; filter i is up p_i, ideal j down q_j, and they meet iff
    p_i <= q_j. A monotone e sends e[R^-1[a]] = e[down mu(a)] to the
    join e(mu(a)) (_images): join preservation is e o mu = e, meet
    preservation e o nu = e. Run once per record and kept on it.
    """
    p, c, embed = ext.source, ext.C, ext.embed
    fe, ie = ext.f, ext.g
    ungenerated = _first_ungenerated(c, fe, ie)
    above = down_preimages(opposite(c), ie)  # {j : u <= g[j]} for each u
    found = [("increasing", _unordered_pair(ext.over, embed, p.R.rows)),
             ("dense", ungenerated and ungenerated[:1]),
             ("compact", _unordered_pair(transpose(ext.ideals, p.size),  # {j : x <= q_j}
                                         _tops(opposite(p.lattice), ext.filters),
                                         tuple(map(above.__getitem__, fe))))]
    for name, lat, rows, order in (
            ("join_preserving", c, p.R.converse().rows, p.lattice),
            ("meet_preserving", opposite(c), p.R.rows, opposite(p.lattice))):
        wrong = tuple(map(int.__ne__, embed, _images(ext, lat, rows, order)))
        found.append((name, (wrong.index(True),) if True in wrong else None))
    return ExtensionReport(**{name: wit is None for name, wit in found},
                           witnesses=tuple((name, wit) for name, wit in found
                                           if wit is not None))


# ---------------------------------------------------------------------------
# Uniqueness
# ---------------------------------------------------------------------------

def _forced_iso(e1: CanonicalExtension, e2: CanonicalExtension,
                ) -> tuple[Optional[int], Optional[LatticeMap]]:
    """The table e1.embed[a] -> e2.embed[a], the one candidate for an
    isomorphism e1.C -> e2.C commuting with the embeddings (module
    docstring). Returns the first a whose image is already pinned to
    another value, else the map if the table is an order isomorphism."""
    c1, c2 = e1.C, e2.C
    table = [-1] * c1.size
    for a, (u, v) in enumerate(zip(e1.embed, e2.embed)):
        if table[u] not in (-1, v):
            return a, None
        table[u] = v
    if sorted(table) != list(range(c2.size)):
        return None, None
    above = transpose([c2.down[t] for t in table], c2.size)
    if any(above[t] != c1.up[u] for u, t in enumerate(table)):
        return None, None
    return None, LatticeMap(c1, c2, tuple(table))


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
    return _forced_iso(e1, e2)[1]


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
    k = sigma_extension(p)
    conflict, phi = _forced_iso(pi_extension(p), k)
    sigma_as_pi = _images(k, k.C, p.R.converse().rows, p.lattice) == k.embed
    witnesses: list[tuple[str, tuple[int, ...]]] = []
    if conflict is not None:
        witnesses.append(("embedding_conflict", (conflict,)))
    if p.reflexive != (phi is not None):
        witnesses.append(("mismatch", ()))
    return ComparisonReport(
        reflexive=p.reflexive,
        phi_exists=phi is not None,
        sigma_join_preserving=sigma_as_pi,
        phi=phi,
        witnesses=tuple(witnesses),
    )
