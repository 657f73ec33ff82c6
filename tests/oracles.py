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
    concept_lattice,
    pi_extension,
)
from proxlat.errors import (
    DimensionMismatch,
    InternalCheckError,
    NotJoinStrong,
    NotMeetStrong,
    ProxlatError,
)
from proxlat.formats import ParseError
from proxlat.lattice import (
    FiniteLattice,
    LatticeMap,
    _check_preorder,
    _key,
    _set_label,
    antisymmetry_witness,
    is_distributive,
    keep,
    lattice_from_up,
    opposite,
)
from proxlat.proximity import (
    AxiomReport,
    MorphismReport,
    ProximityLattice,
    ProximityMorphism,
    _join_compatible,
    is_round_filter,
    is_round_ideal,
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


@dataclasses.dataclass(frozen=True)
class RelationByPostInit:
    """relations.Relation as the dataclass __init__ builds it, its
    checks run on the stored fields by __post_init__: the row count,
    then each row against min and max of the rows."""

    source_size: int
    target_size: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if len(self.rows) != self.source_size:
            raise DimensionMismatch("one row per source element required")
        rows, full = self.rows, (1 << self.target_size) - 1
        if rows and (min(rows) < 0 or max(rows) > full):
            raise DimensionMismatch("row mask exceeds target carrier")


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


def tops_by_join(lat: FiniteLattice, masks) -> tuple[Optional[int], ...]:
    """The q with down q = m for each m in `masks`, None where m is not a
    principal down-set, by the O(n) join and compare that decided it
    before the down-set index did: m is down q for its join q."""
    tops = []
    for m in masks:
        q = lat.join_mask(m & lat.full)
        tops.append(q if m == lat.down[q] else None)
    return tuple(tops)


def lattice_ideal_witnesses_by_join(src: ProximityLattice,
                                    tgt: ProximityLattice, rel: Relation):
    """The row_ideal and column_filter witnesses of verify_morphism as
    its loops found them by join and compare: the first row that is no
    principal down-set of the target, the first column that is no
    principal up-set of the source."""
    out = []
    for name, lat, masks in (("row_ideal", tgt.lattice, rel.rows),
                             ("column_filter", opposite(src.lattice),
                              rel.converse().rows)):
        tops = tops_by_join(lat, masks)
        if None in tops:
            out.append((name, (tops.index(None),)))
    return out


def is_round_ideal_by_join(p: ProximityLattice, mask: int) -> bool:
    """is_round_ideal as it was: the mask is down q for its join q, and
    mu(q) = q."""
    q = tops_by_join(p.lattice, (mask,))[0]
    return q is not None and p.mu[q] == q


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
    ext = CanonicalExtension("pi", p, cl.lattice, embed, cl.extents)
    # the generators of the concept lattice stand in for the images the
    # record would derive, so tests compare the two
    keep(ext, CanonicalExtension.f.fget, cl.f)
    keep(ext, CanonicalExtension.g.fget, cl.g)
    return ext


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
    return CanonicalExtension("sigma", p, opposite(cl.lattice), embed,
                              cl.extents)


def cut_completion(up) -> ConceptLattice:
    """The Dedekind-MacNeille completion of the preorder given by up-set
    masks: the concept lattice of its order polarity (Q, Q, <=), whose
    closed sets are the cuts and whose f and g both send x to down x
    (canext.concept_lattice). NotAPartialOrder unless `up` is reflexive
    and transitive."""
    n = len(up)
    _check_preorder(n, up)
    return concept_lattice(Polarity(n, n, Relation(n, n, tuple(up))))


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
# The binary approximability kernel with the empty instance read member
# by member and every row listed by bits, not by the byte table
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
    jc_wit, mc_wit = _join_compatible(lat, rows), _join_compatible(lat_op, cols)
    join_compatible, meet_compatible = jc_wit is None, mc_wit is None
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
    return morphism_report_by(join_approx_exhaustive, src, tgt, rel)


def verify_morphism_by_loops(src: ProximityLattice, tgt: ProximityLattice,
                             rel: Relation) -> MorphismReport:
    """verify_morphism with both approximability flags and witnesses
    read by join_approx_binary_by_loops, every pair of the source
    visited and no tau read."""
    return morphism_report_by(join_approx_binary_by_loops, src, tgt, rel)


def morphism_report_by(kernel, src: ProximityLattice, tgt: ProximityLattice,
                       rel: Relation) -> MorphismReport:
    """The report of verify_morphism with its approximability fields
    replaced by those `kernel` finds on both sides."""
    report = verify_morphism(src, tgt, rel)
    rows, cols = rel.rows, rel.converse().rows
    src_cols, tgt_cols = src.R.converse().rows, tgt.R.converse().rows
    japprox, j_wit = kernel(src.lattice, tgt.lattice, tgt.R.rows, tgt_cols, rows)
    mapprox, m_wit = kernel(opposite(tgt.lattice), opposite(src.lattice),
                            src_cols, src.R.rows, cols)
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
                                     (("ungenerated", (u,)),), lat.labels)
        if join_below_by_loop(lat_op, cl.g, u) != u:
            raise InternalCheckError("ideal images fail to meet-generate",
                                     (("ungenerated", (u,)),), lat.labels)
    for x in range(cl.polarity.nx):
        for y in range(cl.polarity.ny):
            if lat.leq(cl.f[x], cl.g[y]) != cl.polarity.z.has(x, y):
                raise InternalCheckError(
                    "generator order disagrees with Z",
                    (("f", (cl.f[x],)), ("g", (cl.g[y],))), lat.labels)


def join_of_image(lat: FiniteLattice, embed, mask: int) -> int:
    """The join in lat of the embedded members of mask, one at a time."""
    out = lat.bot
    for a in bits(mask):
        out = lat.join[out][embed[a]]
    return out


def first_unpreserved(lat: FiniteLattice, embed, rows) -> Optional[int]:
    """First a whose embedding is not the join of the embedded rows[a]."""
    for a, row in enumerate(rows):
        if embed[a] != join_of_image(lat, embed, row):
            return a
    return None


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
    fe = [join_of_image(c_op, embed, fm) for fm in ext.filters]
    ie = [join_of_image(c, embed, im) for im in ext.ideals]

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

    join_bad = first_unpreserved(c, embed, p.R.converse().rows)
    meet_bad = first_unpreserved(c_op, embed, p.R.rows)
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


def directed_pair_by_filter(c_src: FiniteLattice, c_tgt: FiniteLattice,
                            table, ideal_elems) -> Optional[tuple[int, int]]:
    """The first pair y <= g of ideal elements whose images are out of
    order, found by filtering every pair with c_src.leq: the
    directed-join check of check_preservation before it walked only the
    ideal elements above each y."""
    return next(((y, g) for y in ideal_elems for g in ideal_elems
                 if c_src.leq(y, g) and not c_tgt.leq(table[y], table[g])),
                None)


def proximity_by_round_sets(src: ProximityLattice, tgt: ProximityLattice,
                            rel: Relation) -> bool:
    """Whether rel is a proximity morphism by the round-subset
    characterisation, the pass verify_morphism ran next to the raw
    axioms before they were shown to agree: every row a round ideal of
    the target, every column a round filter of the source."""
    return (all(is_round_ideal(tgt, row) for row in rel.rows)
            and all(is_round_filter(src, col) for col in rel.converse().rows))


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


def pi_table_two_stage(rel: Relation, e_src: CanonicalExtension,
                       e_tgt: CanonicalExtension) -> tuple[int, ...]:
    """The pi-extension of rel by both stages of its definition, as
    morphext computed it before it read the extension off the tops of
    the rows: a round ideal element y goes to the join of the embedded
    image of rel over {a : embed(a) <= y}, and every u to the meet of
    those values over the ideal elements y >= u."""
    c_src, c_tgt = e_src.C, e_tgt.C
    ideal_elems = e_src.ideal_elements()
    below = transpose_by_loop([c_src.up[t] for t in e_src.embed], c_src.size)
    stage1 = {y: join_of_image(c_tgt, e_tgt.embed, rel.image(below[y]))
              for y in ideal_elems}
    table = []
    for u in range(c_src.size):
        out = c_tgt.top
        for y in ideal_elems:
            if c_src.leq(u, y):
                out = c_tgt.meet[out][stage1[y]]
        table.append(out)
    return tuple(table)


def sigma_table_by_adjoint(rel: Relation, e_src: CanonicalExtension,
                           e_tgt: CanonicalExtension) -> tuple[int, ...]:
    """The sigma-extension of rel between the sigma builds e_src and
    e_tgt as an upper adjoint, by loops: g is the two-stage
    pi-extension of rel^-1 between the pi builds of the opposites, and
    x goes to the join in C_sigma of every y with g(y) <= x. A sigma
    build is its opposite's pi build upside down, on the same indices."""
    op_src, op_tgt = (pi_extension(opposite_proximity(e.source))
                      for e in (e_src, e_tgt))
    g = pi_table_two_stage(rel.converse(), op_tgt, op_src)
    c_src, c_tgt = e_src.C, e_tgt.C
    table = []
    for x in range(c_src.size):
        out = c_tgt.bot
        for y in range(c_tgt.size):
            if c_src.leq(g[y], x):
                out = c_tgt.join[out][y]
        table.append(out)
    return tuple(table)
