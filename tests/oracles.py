"""Slow reference implementations that the tests compare the library
against. None of them is part of the library: each is the direct,
definitional version of a routine that src computes faster.
"""

import dataclasses
import itertools
from typing import Iterator, Optional

from proxlat.bitset import bits, is_subset
from proxlat.canext import (
    CanonicalExtension,
    ConceptLattice,
    ExtensionReport,
    Polarity,
    _first_unpreserved,
    _join_of_image,
    concept_lattice,
    make_extension,
)
from proxlat.errors import (
    InternalCheckError,
    NotJoinStrong,
    NotMeetStrong,
    ProxlatError,
)
from proxlat.formats import ParseError
from proxlat.lattice import (
    FiniteLattice,
    LatticeMap,
    _key,
    _set_label,
    antisymmetry_witness,
    is_distributive,
    lattice_from_up,
    opposite,
)
from proxlat.proximity import (
    AxiomReport,
    MorphismReport,
    ProximityLattice,
    ProximityMorphism,
    _join_compatible,
    opposite_proximity,
    round_filter_masks,
    round_ideal_masks,
    verify_axioms,
    verify_morphism,
)
from proxlat.relations import Relation
from proxlat.spectra import FiniteSpace


def kept_value(x, build):
    """What x keeps as the value of the kept `build`, or None if it
    keeps none: the one way the tests read a memo. `build` is a kept
    function, or a property over one such as ProximityLattice.mu."""
    return getattr(x, _key(getattr(build, "fget", build)), None)


def transpose_by_loop(rows, width: int) -> tuple[int, ...]:
    """The bit matrix read by columns, one set bit at a time: the only
    way bitset.transpose reads matrices of side at most 8 or above 64."""
    cols = [0] * width
    for a, row in enumerate(rows):
        for b in bits(row):
            cols[b] |= 1 << a
    return tuple(cols)


def closed_family(n: int, close) -> list[int]:
    """All fixpoints of a closure operator on subsets of 0..n-1, sorted
    by (popcount, mask).

    Found by saturating close(seed | {x}) from close(0); complete
    because any closed set is reached by adding its members one at a
    time (each step stays inside the target, closure being monotone).
    """
    start = close(0)
    seen = {start}
    queue = [start]
    while queue:
        cur = queue.pop()
        rest = ((1 << n) - 1) & ~cur
        for x in bits(rest):
            nxt = close(cur | 1 << x)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return sorted(seen, key=lambda m: (m.bit_count(), m))


def is_round_ideal_by_definition(p: ProximityLattice, mask: int) -> bool:
    """A nonempty subset of the carrier that is its own R-preimage and
    is closed under pairwise joins; any other mask is not one."""
    lat = p.lattice
    if not 0 < mask <= lat.full:
        return False
    if p.R.preimage(mask) != mask:
        return False
    members = list(bits(mask))
    for i, a in enumerate(members):
        row = lat.join[a]
        for b in members[i + 1:]:  # a v a = a; a v b = b v a
            if not mask >> row[b] & 1:
                return False
    return True


def round_subsets_slow(p: ProximityLattice, kind: str) -> tuple[int, ...]:
    """Filter every nonempty join-closed (meet-closed) subset through the
    image fixpoint condition. Exponential; small carriers only."""
    if p.size > 16:
        raise ValueError("slow enumeration is limited to small carriers")
    q = p if kind == "ideal" else opposite_proximity(p)
    found = [m for m in range(1, 1 << p.size)
             if is_round_ideal_by_definition(q, m)]
    return tuple(sorted(found, key=lambda m: (m.bit_count(), m)))


def smallest_round_ideal_containing(p: ProximityLattice, seed: int) -> int:
    """Closure iteration: join-closure then R-preimage, until stable.

    Sound when the seed is a union of round ideals (each step is then
    inflationary); the join of two round ideals is this closure of
    their union.
    """
    joins = p.lattice.join
    cur = seed
    while True:
        jc = cur
        while True:
            nxt = jc
            for a in bits(jc):
                for b in bits(jc):
                    nxt |= 1 << joins[a][b]
            if nxt == jc:
                break
            jc = nxt
        nxt = p.R.preimage(jc)
        if nxt == cur:
            return cur
        cur = nxt


def intersection_polarity(p: ProximityLattice) -> tuple[Polarity, tuple[int, ...], tuple[int, ...]]:
    """Round filters against round ideals, related by nonempty intersection."""
    filters = round_filter_masks(p)
    ideals = round_ideal_masks(p)
    rows = tuple(
        sum(1 << i for i, im in enumerate(ideals) if fm & im)
        for fm in filters)
    return Polarity(len(filters), len(ideals), Relation(len(filters), len(ideals), rows)), filters, ideals


def pi_extension_by_polarity(p: ProximityLattice) -> CanonicalExtension:
    """The pi extension as the concept lattice of the intersection
    polarity, with a carried to the polar of its R-preimage ideal."""
    if not p.join_strong:
        raise NotJoinStrong("pi extension needs a join-strong proximity lattice")
    polarity, filters, ideals = intersection_polarity(p)
    labels_x = [_set_label(fm, p.lattice.labels) for fm in filters]
    cl = concept_lattice(polarity, labels_x)
    ideal_index = {im: i for i, im in enumerate(ideals)}
    embed = tuple(cl.g[ideal_index[col]] for col in p.R.converse().rows)
    ext = make_extension("pi", p, cl.lattice, embed, extents=cl.extents)
    return dataclasses.replace(ext, f=cl.f, g=cl.g)


def sigma_extension_explicit(p: ProximityLattice) -> CanonicalExtension:
    """Alternative sigma construction: the polarity of round ideals
    against round filters, with the carrier sent to the polar of its
    R-image filter, all read in the opposite order."""
    if not p.meet_strong:
        raise NotMeetStrong("sigma extension needs a meet-strong proximity lattice")
    filters = round_filter_masks(p)
    ideals = round_ideal_masks(p)
    rows = tuple(
        sum(1 << j for j, fm in enumerate(filters) if im & fm)
        for im in ideals)
    polarity = Polarity(len(ideals), len(filters),
                        Relation(len(ideals), len(filters), rows))
    labels_x = [_set_label(im, p.lattice.labels) for im in ideals]
    cl = concept_lattice(polarity, labels_x)
    filter_index = {fm: i for i, fm in enumerate(filters)}
    embed = tuple(cl.g[filter_index[p.R.rows[a]]] for a in range(p.size))
    return make_extension("sigma", p, opposite(cl.lattice), embed,
                          extents=cl.extents)


def lattice_laws_hold(lat: FiniteLattice) -> bool:
    """Commutativity, associativity, idempotence and absorption of the tables."""
    n = lat.size
    meet, join = lat.meet, lat.join
    for a in range(n):
        if meet[a][a] != a or join[a][a] != a:
            return False
        for b in range(n):
            if meet[a][b] != meet[b][a] or join[a][b] != join[b][a]:
                return False
            if meet[a][join[a][b]] != a or join[a][meet[a][b]] != a:
                return False
    for a, b, c in itertools.product(range(n), repeat=3):
        if meet[meet[a][b]][c] != meet[a][meet[b][c]]:
            return False
        if join[join[a][b]][c] != join[a][join[b][c]]:
            return False
    return True


def distributive_by_pairs(lat: FiniteLattice) -> bool:
    """lattice.is_distributive by a loop over pairs, as it was before it
    asked each join-irreducible to be join-prime.

    Send x to the set of join-irreducibles below it. In a finite lattice
    this map is injective (x is the join of that set) and carries meets
    to intersections; the lattice is distributive iff it also carries
    binary joins to unions. An element is join-irreducible iff the
    elements strictly below it form a principal down-set.
    """
    n = lat.size
    down, join = lat.down, lat.join
    principal = set(down)
    irreducible = 0
    for x, d in enumerate(down):
        if d & ~(1 << x) in principal:
            irreducible |= 1 << x
    below = [d & irreducible for d in down]
    for x in range(n):
        row, bx = join[x], below[x]
        for y in range(x + 1, n):
            if below[row[y]] != bx | below[y]:
                return False
    return True


def is_prime_filter_by_pairs(lat: FiniteLattice, mask: int) -> bool:
    """Membership of a finite join forces membership of a member; the
    empty join rules out bottom. Binary plus empty imply all finite
    instances by induction. Every pair is tried, so `mask` need not be
    an up-set."""
    if mask >> lat.bot & 1:
        return False
    for a in range(lat.size):
        for b in range(a, lat.size):
            if mask >> lat.join[a][b] & 1:
                if not (mask >> a & 1 or mask >> b & 1):
                    return False
    return True


# ---------------------------------------------------------------------------
# Join-strongness checked directly, before it was read as approximability
# ---------------------------------------------------------------------------

def join_strong_binary(lat: FiniteLattice, rows, cols):
    """a R (b1 v b2) demands u R b1, v R b2 with a R (u v v); the least
    witness (a, b1, b2), or None."""
    n = lat.size
    join = lat.join
    for b1 in range(n):
        for b2 in range(b1, n):
            who = cols[join[b1][b2]]
            if not who:
                continue
            joined = 0
            for u in bits(cols[b1]):
                for v in bits(cols[b2]):
                    joined |= 1 << join[u][v]
            for a in bits(who):
                if not rows[a] & joined:
                    return False, (a, b1, b2)
    return True, None


def join_strong_mu(lat: FiniteLattice, rows, cols):
    """join_strong_binary for a relation compatible on both sides: at
    (b1, b2) it fails for a in R^-1[b1 v b2] minus R^-1[mu(b1) v mu(b2)]."""
    mu = [lat.join_mask(col) for col in cols]
    join = lat.join
    for b1, m1 in enumerate(mu):
        row, mrow = join[b1], join[m1]
        for b2 in range(b1, lat.size):
            stray = cols[row[b2]] & ~cols[mrow[mu[b2]]]
            if stray:
                return False, ((stray & -stray).bit_length() - 1, b1, b2)
    return True, None


def join_strong_exhaustive(lat: FiniteLattice, rows, cols):
    """Every finite B: a R (join B) demands a subset of R^-1[B] whose
    join a relates to; the witness is (a,) followed by B."""
    n = lat.size
    joins = join_table(lat)
    for bmask in range(1 << n):
        pre = 0
        for b in bits(bmask):
            pre |= cols[b]
        for a in bits(cols[joins[bmask]]):
            if not any(rows[a] >> joins[sub] & 1 for sub in submasks(pre)):
                return False, (a,) + tuple(bits(bmask))
    return True, None


# ---------------------------------------------------------------------------
# The binary approximability kernel as a loop over the targets that
# builds every join set afresh, before the lattice kept them
# ---------------------------------------------------------------------------

def join_approx_binary_by_loops(sl, tl, tgt_rows, tgt_cols, rows):
    """(b1 v b2) T m demands u in T[b1], v in T[b2] with m S (u v v);
    the empty instance demands m S bot for every m in T[bot].

    Every approximability kernel takes the rows and the columns of S
    and the rows of T; this one has no use for the columns.
    """
    for m in bits(rows[sl.bot]):
        if not tgt_rows[m] >> tl.bot & 1:
            return False, (m,)
    members = [tuple(bits(row)) for row in rows]
    tjoin = tl.join
    for b1, row in enumerate(sl.join):
        ujoins = [tjoin[u] for u in members[b1]]
        for b2 in range(b1, sl.size):
            targets = members[row[b2]]
            if not targets:
                continue
            vs = members[b2]
            joined = 0
            for ujoin in ujoins:
                for v in vs:
                    joined |= 1 << ujoin[v]
            for m in targets:
                if not tgt_rows[m] & joined:
                    return False, (b1, b2, m)
    return True, None


# ---------------------------------------------------------------------------
# Documents read pair by pair, and the axioms decided by loops over pairs
# ---------------------------------------------------------------------------

def lattice_from_doc_by_warshall(doc: dict) -> FiniteLattice:
    """formats.lattice_from_doc on a well-formed document, the order
    closed by Warshall's algorithm and then checked for antisymmetry."""
    labels = doc["elements"]
    index = {name: i for i, name in enumerate(labels)}
    n = len(labels)
    up = [1 << a for a in range(n)]
    for x, y in doc["leq"]:
        up[index[x]] |= 1 << index[y]
    for k in range(n):  # close through each k in turn
        for a in range(n):
            if up[a] >> k & 1:
                up[a] |= up[k]
    witness = antisymmetry_witness(up)
    if witness is not None:
        a, b = witness
        raise ParseError(f"order closure is not antisymmetric at "
                         f"({labels[a]!r},{labels[b]!r})")
    return lattice_from_up(labels, up)


def verify_axioms_by_loops(lat: FiniteLattice, rel: Relation) -> AxiomReport:
    """verify_axioms with every flag found by a loop: R;R = R row by
    row, each compatibility axiom over every pair (a, a2) by
    _join_compatible, and strongness over every pair (b1, b2), by
    join_strong_mu on a relation compatible on both sides and by
    join_strong_binary on any other."""
    rows, cols = rel.rows, rel.converse().rows
    lat_op = opposite(lat)
    witnesses = []
    idempotent = True
    for a, row in enumerate(rows):
        twice = 0
        for b in bits(row):
            twice |= rows[b]
        if twice != row:
            idempotent = False
            delta = twice ^ row
            witnesses.append(("idempotent", (a, (delta & -delta).bit_length() - 1)))
            break
    join_compatible, jc_wit = _join_compatible(lat, rows)
    meet_compatible, mc_wit = _join_compatible(lat_op, cols)
    strong = join_strong_mu if join_compatible and meet_compatible \
        else join_strong_binary
    join_strong, js_wit = strong(lat, rows, cols)
    meet_strong, ms_wit = strong(lat_op, cols, rows)
    for name, wit in (("join_compatible", jc_wit),
                      ("meet_compatible", mc_wit and mc_wit[-1:] + mc_wit[:-1]),
                      ("join_strong", js_wit),
                      ("meet_strong", ms_wit and ms_wit[1:] + ms_wit[:1])):
        if wit is not None:
            witnesses.append((name, wit))
    increasing = reflexive = True
    for a, row in enumerate(rows):
        stray = row & ~lat.up[a]
        if stray:
            increasing = False
            witnesses.append(("increasing", (a, (stray & -stray).bit_length() - 1)))
            break
    for a, row in enumerate(rows):
        if not row >> a & 1:
            reflexive = False
            witnesses.append(("reflexive", (a,)))
            break
    return AxiomReport(idempotent, join_compatible, meet_compatible,
                       join_strong, meet_strong, increasing, reflexive,
                       is_distributive(lat), tuple(witnesses))


# ---------------------------------------------------------------------------
# Every finite subset checked directly, the instances the library reduces
# to empty and binary ones
# ---------------------------------------------------------------------------

EXHAUSTIVE_LIMIT = 10


def submasks(mask: int) -> Iterator[int]:
    """All submasks of `mask`, including 0 and `mask` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def join_table(lat: FiniteLattice) -> list[int]:
    """The join of every subset of the carrier, indexed by its mask."""
    out = [lat.bot] * (1 << lat.size)
    for mask in range(1, 1 << lat.size):
        low = (mask & -mask).bit_length() - 1
        out[mask] = lat.join[out[mask & (mask - 1)]][low]
    return out


def join_compatible_exhaustive(lat: FiniteLattice, rows, cols) -> bool:
    """(join A) R b iff a R b for every a in A, for every subset A."""
    joins = join_table(lat)
    for mask in range(1 << lat.size):
        for b in range(lat.size):
            if bool(rows[joins[mask]] >> b & 1) != is_subset(mask, cols[b]):
                return False
    return True


def join_approx_exhaustive(sl, tl, tgt_rows, tgt_cols, rows):
    """Join-approximability at every finite B, with the arguments of the
    library's approximability kernels: for each m in T[join B] some
    subset of T[B] whose join m S-relates to. The witness is B followed
    by m."""
    if sl.size > EXHAUSTIVE_LIMIT or tl.size > EXHAUSTIVE_LIMIT:
        raise ValueError("exhaustive mode is limited to small carriers")
    src_joins = join_table(sl)
    tgt_joins = join_table(tl)
    for bmask in range(1 << sl.size):
        img = 0
        for b in bits(bmask):
            img |= rows[b]
        for m in bits(rows[src_joins[bmask]]):
            if not any(tgt_rows[m] >> tgt_joins[sub] & 1
                       for sub in submasks(img)):
                return False, tuple(bits(bmask)) + (m,)
    return True, None


def verify_axioms_exhaustive(lat: FiniteLattice, rel: Relation) -> AxiomReport:
    """verify_axioms with the finite-subset quantifiers checked over
    every subset: the compatibility flags also need every instance, and
    the strongness flags and witnesses come from join_approx_exhaustive
    on (L, R) and (L^op, R^-1), the join-strong witness rotated to put
    the point first. Carriers of at most EXHAUSTIVE_LIMIT elements."""
    report = verify_axioms(lat, rel)
    rows, cols = rel.rows, rel.converse().rows
    lat_op = opposite(lat)
    join_strong, js_wit = join_approx_exhaustive(lat, lat, rows, cols, cols)
    meet_strong, ms_wit = join_approx_exhaustive(lat_op, lat_op, cols, rows, rows)
    found = dict(report.witnesses)
    found["join_strong"] = js_wit and js_wit[-1:] + js_wit[:-1]
    found["meet_strong"] = ms_wit
    order = ("idempotent", "join_compatible", "meet_compatible",
             "join_strong", "meet_strong", "increasing", "reflexive")
    return dataclasses.replace(
        report,
        join_compatible=report.join_compatible
        and join_compatible_exhaustive(lat, rows, cols),
        meet_compatible=report.meet_compatible
        and join_compatible_exhaustive(lat_op, cols, rows),
        join_strong=join_strong,
        meet_strong=meet_strong,
        witnesses=tuple((name, found[name]) for name in order
                        if found.get(name) is not None))


def verify_morphism_exhaustive(src: ProximityLattice, tgt: ProximityLattice,
                               rel: Relation) -> MorphismReport:
    """verify_morphism with approximability checked at every finite B
    by join_approx_exhaustive, meet-approximability as
    join-approximability of T^-1 from (M^op, S^-1) to (L^op, R^-1)."""
    report = verify_morphism(src, tgt, rel)
    rows, cols = rel.rows, rel.converse().rows
    src_cols, tgt_cols = src.R.converse().rows, tgt.R.converse().rows
    japprox, j_wit = join_approx_exhaustive(
        src.lattice, tgt.lattice, tgt.R.rows, tgt_cols, rows)
    mapprox, m_wit = join_approx_exhaustive(
        opposite(tgt.lattice), opposite(src.lattice), src_cols, src.R.rows, cols)
    witnesses = [(name, wit) for name, wit in report.witnesses
                 if name not in ("join_approximable", "meet_approximable")]
    if not japprox:
        witnesses.append(("join_approximable", j_wit))
    if not mapprox:
        witnesses.append(("meet_approximable", m_wit))
    return dataclasses.replace(report, join_approximable=japprox,
                               meet_approximable=mapprox,
                               witnesses=tuple(witnesses))


# ---------------------------------------------------------------------------
# The order checks of canext as loops over pairs of elements
# ---------------------------------------------------------------------------

def join_below_by_loop(lat: FiniteLattice, elems, u: int) -> int:
    """Join of the members of elems that lie below u."""
    out = lat.bot
    for x in elems:
        if lat.leq(x, u):
            out = lat.join[out][x]
    return out


def assert_generation_by_loops(cl: ConceptLattice) -> None:
    lat = cl.lattice
    lat_op = opposite(lat)
    for u in range(lat.size):
        if join_below_by_loop(lat, cl.f, u) != u:
            raise InternalCheckError("filter images fail to join-generate",
                                     witness=u)
        if join_below_by_loop(lat_op, cl.g, u) != u:
            raise InternalCheckError("ideal images fail to meet-generate",
                                     witness=u)
    for x in range(cl.polarity.nx):
        for y in range(cl.polarity.ny):
            if lat.leq(cl.f[x], cl.g[y]) != cl.polarity.z.has(x, y):
                raise InternalCheckError("generator order disagrees with Z",
                                         witness=(x, y))


def verify_extension_by_loops(ext: CanonicalExtension) -> ExtensionReport:
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
    for u in range(c.size):
        if (join_below_by_loop(c, fe, u) != u
                or join_below_by_loop(c_op, ie, u) != u):
            dense = False
            witnesses.append(("dense", (u,)))
            break

    compact = True
    for i, fm in enumerate(ext.filters):
        for j, im in enumerate(ext.ideals):
            if c.leq(fe[i], ie[j]) and not fm & im:
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


def generator_iso_by_loops(c1: FiniteLattice, f1, g1, c2: FiniteLattice, f2, g2,
                           ) -> Optional[LatticeMap]:
    table = []
    for u in range(c1.size):
        v = c2.bot
        for i, x in enumerate(f1):
            if c1.leq(x, u):
                v = c2.join[v][f2[i]]
        table.append(v)
    if sorted(table) != list(range(c2.size)):
        return None
    for u in range(c1.size):
        for w in range(c1.size):
            if c1.leq(u, w) != c2.leq(table[u], table[w]):
                return None
    for i in range(len(f1)):
        if table[f1[i]] != f2[i]:
            return None
    for j in range(len(g1)):
        if table[g1[j]] != g2[j]:
            return None
    return LatticeMap(c1, c2, tuple(table))


def proximity_morphisms_by_filter(src: ProximityLattice, tgt: ProximityLattice,
                                  *, limit: int = 200_000) -> list[ProximityMorphism]:
    """Every proximity morphism src -> tgt: each function from the source
    carrier into the round ideals of the target, in product order,
    filtered through verify_morphism."""
    ideals = round_ideal_masks(tgt)
    total = len(ideals) ** src.size
    if total > limit:
        raise ValueError(f"search space {total} exceeds limit {limit}")
    found = []
    for rows in itertools.product(ideals, repeat=src.size):
        rel = Relation(src.size, tgt.size, rows)
        report = verify_morphism(src, tgt, rel)
        if report.proximity:
            found.append(ProximityMorphism(src, tgt, rel, report))
    return found


def all_posets_at_leaves(n: int) -> Iterator[tuple[int, ...]]:
    """spectra.all_posets as it was before it pruned: each strict pair
    set on or off, the highest-numbered first, never both (a, b) and
    (b, a), and transitivity tested only at the leaves."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    up = [1 << a for a in range(n)]

    def extend(k: int) -> Iterator[tuple[int, ...]]:
        if k < 0:
            if all(is_subset(up[b], up[a])
                   for a in range(n) for b in bits(up[a])):
                yield tuple(up)
            return
        yield from extend(k - 1)
        a, b = pairs[k]
        if not up[b] >> a & 1:
            up[a] |= 1 << b
            yield from extend(k - 1)
            up[a] &= ~(1 << b)

    yield from extend(len(pairs) - 1)


def finite_space_by_pairs(labels, opens) -> FiniteSpace:
    """spectra.finite_space as it was before it checked through the
    specialization order: every pair of opens is asked for its union
    and intersection, after the empty and the full set."""
    n = len(labels)
    family = sorted(set(opens), key=lambda m: (m.bit_count(), m))
    full = (1 << n) - 1
    if 0 not in family or full not in family:
        raise ProxlatError("a topology contains the empty and the full set")
    fam = set(family)
    for u in family:
        if u & ~full:
            raise ProxlatError("open set outside the carrier")
        for v in family:
            if u | v not in fam or u & v not in fam:
                raise ProxlatError("opens are not closed under union/intersection")
    return FiniteSpace(n, tuple(family), tuple(labels))
