"""Proximity relations on finite lattices.

A proximity lattice is a lattice with a relation R that is idempotent
under relational composition (R;R = R) and compatible with finite joins
on the left and finite meets on the right:

    (join A) R b  iff  a R b for every a in A      (any finite A)
    a R (meet B)  iff  a R b for every b in B      (any finite B)

Join-strongness additionally lets R decompose joins on the right: from
a R (join B) one can find B' inside R^{-1}[B] with a R (join B').
Meet-strongness is the order dual. It is join-approximability of R^-1
as a morphism from (L, R) to itself, which is why R^-1 is the identity
j-morphism: with T = R^-1 and S = R, (join B) T a says a R (join B),
and a finite B' inside T[B] with a S (join B') is what strongness asks
for. So one routine, _first_unapproximated, decides both properties
and approximability of morphisms: a report of verify_axioms runs it on
(L, L, R, R^-1) on the first read of its strongness and rotates the
witness (b1, b2, a) to (a, b1, b2), and on (L^op, L^op, R^-1, R) for
meet-strongness.

Quantifiers over finite subsets are checked at the empty and binary
instances. For the compatibility axioms this is exact: they are
biconditionals and the general instance follows by induction on the
subset. For strongness and approximability on proximity lattices and
their morphisms it is exact too, by the induction in the bullets below.

Every meet-side check is the join-side check run on (L^op, R^-1): the
meets of L are the joins of L^op, and R^-1 swaps rows and columns. The
witnesses are rotated back: meet-compatibility (b, b2, a) becomes
(a, b, b2) and (top, a) becomes (a, top); the meet-strong witness
(b1, b2, a) keeps its orientation. Meet-approximability of T is
join-approximability of T^-1 from (M^op, S^-1) to (L^op, R^-1). So
(L^op, R^-1) is again a proximity lattice, its join side the old meet
side and vice versa, its mu the old nu and its nu the old mu: the
opposite of a carrier gets the report verify_axioms would give it,
made from the rows and columns of R with mu and nu swapped, and that
report decides all its fields on the first read of any of them.

Write R^-1[b] for the column {a : a R b}, mu(b) for its join and nu(a)
for the meet of the row R[a]. verify_axioms reads both compatibility
axioms and idempotence off mu and nu, and decides only the three
conjuncts of axioms_ok when called, in the order axioms_ok reads them,
join-compatibility, meet-compatibility, idempotence, up to the first
that fails. Most relations fail the empty instance bot R b, a mask test
on rows[bot], so they build no columns, no mu and no nu. Idempotence is
read off mu o mu, which decides it on a relation compatible on both
sides, the only one that reaches it. Until another field is first
read, the report holds the flags decided so far with the lattice, rows
and whichever of the columns, mu and nu were built; that read decides
everything left at once, each witness by a kernel the library has:
for a relation that fails compatibility or idempotence, R;R is
compared with R by compose_rows and _first_diff, as verify_morphism
compares its compositions, and _join_compatible names the least
compatibility witnesses by the loops over pairs; strongness is one
_first_unapproximated call per side, given mu and nu on a proximity
relation, and _first_diff compares R with its rows cut down to the
up-sets for the increasing flag. So a relation filtered by axioms_ok
alone runs no R;R comparison, no loop over pairs and no
approximability instance. A failing relation keeps nothing; a
proximity relation keeps its columns as its converse. A carrier keeps
its mu, opposite and round ideals, and the pi, spectrum and duality
builds of canext and spectra, each a build decorated with lattice.kept.

* R is join-compatible iff every column is a principal down-set. The
  empty instance puts bot in each column, the binary ones with a <= a2
  make it down-closed and the others join-closed, and a nonempty
  down-closed join-closed subset of a finite lattice is down of its
  join. Conversely, from R^-1[b] = down c, (join A) <= c iff every a in
  A is. So mu is one lookup per column in a table from down-sets to
  elements, and nu likewise from the rows against the up-sets.
* Meet-compatibility makes R^-1[top] everything and
  R^-1[b ^ b2] = R^-1[b] cap R^-1[b2], so mu preserves finite meets and
  is monotone, and the rows of R are up-sets. Conversely a
  meet-preserving mu makes a R b iff a <= mu(b) compatible on both
  sides: the compatible relations are exactly these maps mu.
* With both sides compatible, R;R = R iff mu o mu = mu: a R;R c iff
  a <= mu(b) and b <= mu(c) for some b, iff a <= mu(mu(c)) (take
  b = mu(c); mu is monotone), so column c of R;R is down mu(mu(c)). The
  proximity relations are the idempotent mu, and idempotence is the
  O(n) check that every value of mu is a fixed point.

The rest follows from the rows being up-sets and mu being monotone:

* A proximity morphism T from (L, R) to (M, S) has principal rows,
  T[b] = down tau(b). Join-approximability at a finite B asks for each
  m in T[join B] a finite B' inside T[B] with m S (join B'). Every
  member of T[b] is below tau(b) and the rows of S are up-sets, so
  B' = tau[B] is the best choice: with J the join of tau[B], the
  instance holds iff tau(join B) <= mu_S(J). At (b1, b2) it fails
  exactly for m in T[b1 v b2] minus down mu_S(tau(b1) v tau(b2)); the
  least such m is the witness the loop over row pairs finds. The empty
  instance fails for m in T[bot] minus down mu_S(bot).
* The empty and binary instances give every finite one. Each tau(z) is
  a fixed point of mu_S (the rows of T are round ideals, see below),
  and mu_S is monotone with mu_S o mu_S = mu_S. If the instance holds
  at B, with x = join B and J the join of tau[B], then for every z
      tau(x v z) <= mu_S(tau(x) v tau(z))          binary at (x, z)
                 <= mu_S(mu_S(J) v mu_S(tau(z)))   instance at B
                 <= mu_S(mu_S(J v tau(z)))         mu_S monotone
                  = mu_S(J v tau(z))               idempotence,
  the instance at B + {z}; from B empty this reaches every finite B.
* So the binary instances all hold iff each tau^-1(down q), q in
  Fix mu_S, is empty or principal. If they hold, it is a down-set
  (tau is monotone) closed under binary joins: tau(b1 v b2) <=
  mu_S(tau(b1) v tau(b2)) <= mu_S(q) = q. Conversely, take
  q = mu_S(tau(b1) v tau(b2)), in Fix mu_S; tau(bi) = mu_S(tau(bi)) <= q,
  so b1 v b2 lies in tau^-1(down q), principal, and the instance holds.
* Join-strongness is this test for T = R^-1, whose tau is mu: at
  (b1, b2) it fails exactly for a in down mu(b1 v b2) minus
  down mu(mu(b1) v mu(b2)). Meet-strongness is the same test on
  (L^op, R^-1), whose tau is nu. On a proximity lattice mu(z) is a
  fixed point of mu, so the induction applies; the meet sides are
  join-approximability on the opposites, again proximity lattices and
  proximity morphisms. The empty instance always holds. On a relation
  compatible on both sides but not idempotent the binary instances are
  the flags, but that they give the larger ones is not proved; the
  tests check it against every finite instance.
* A comparable pair b1 <= b2 never fails: tau is monotone, so the
  instance asks T[b2] = down tau(b2) to lie in down mu_S(tau(b2)),
  which it is, tau(b2) being a fixed point of mu_S. So
  _first_unapproximated, given tau, visits only the incomparable pairs,
  in order, and the first failing pair is unchanged; on a chain none is
  left. Without tau, as on a relation compatible on both sides but not
  idempotent, it reads the binary instances with _first_binary_failure,
  which fails at the same m: the rows of S are up-sets, so S[m] meets J
  iff m S (tau(b1) v tau(b2)).
* R^-1[down m] = down mu(m), so down m is a round ideal iff mu(m) = m:
  the round ideals are the down-sets of the fixed points of mu, and
  round-set membership is read off mu, which ProximityLattice keeps.
* nu is the mu of the opposite (L^op, R^-1), read off the rows of R:
  the round filters are the up-sets of the fixed points of nu.
* For round ideals I = down i and J = down j, I << J asks for some
  d <= j with i <= mu(d); mu is monotone, so I << J iff i <= mu(j) = j:
  way-below on round ideals is inclusion.
* The rows of a proximity morphism are round ideals of the target. A
  relation T from (L, R) to (M, S) whose rows are round ideals,
  T[a] = down tau(a) with tau(a) a fixed point of mu_S, is a proximity
  morphism exactly when tau preserves finite meets and
  tau o mu_R = tau. Column m of T is {a : m <= tau(a)}. Every column
  is a filter exactly when tau(top) = top (top lies in every column),
  tau is monotone (every column is an up-set) and
  tau(a) ^ tau(b) <= tau(a ^ b) (the column of tau(a) ^ tau(b) holds
  a ^ b), that is, when tau preserves finite meets. For monotone tau,
  row a of R^-1;T is the union of down tau(b) over b <= mu_R(a), which
  is down tau(mu_R(a)), so R^-1;T = T iff tau o mu_R = tau. Row a of
  T;S^-1 is the union of down mu_S(m) over m <= tau(a), which is
  down mu_S(tau(a)) = down tau(a), and the rows are principal, so
  nothing else is asked. all_proximity_morphisms searches these tau.
* So the raw axioms (T;S^-1 = T, R^-1;T = T, rows lattice ideals,
  columns lattice filters) and the round-subset characterisation (rows
  round ideals, columns round filters) decide the same relations, and
  verify_morphism checks only the first, which names witnesses. With
  ideal rows T[a] = down q, row a of T;S^-1 is the union of
  down mu_S(m) over m <= q, that is down mu_S(q), so right composition
  holds exactly when every row is a round ideal. With filter columns
  up p, column c of R^-1;T is the union of up nu_R(b) over b >= p,
  that is up nu_R(p), so left composition holds exactly when every
  column is a round filter.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from .bitset import (
    _SMALL,
    bits,
    compose_rows,
    transpose,
)
from .errors import (
    DimensionMismatch,
    InternalCheckError,
    NotAJMorphism,
    NotALattice,
    NotAProximityLattice,
    NotJoinStrong,
    TransposeError,
)
from .lattice import (
    FiniteLattice,
    LatticeMap,
    _lattice_of_sets,
    down_index,
    down_preimages,
    is_distributive,
    is_homomorphism,
    keep,
    kept,
    opposite,
    up_index,
)
from .relations import Relation, compose, order_relation


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of the axiom checks, with a least witness per failure.

    Witness tuples are element indices: (a, b) for idempotence and
    increasing, (a, a2, b) / (a, b1, b2) for the binary instances,
    (a,) for reflexivity. A report from verify_axioms decides the
    conjuncts of axioms_ok in the order axioms_ok reads them,
    join_compatible, meet_compatible, idempotent, up to the first that
    fails, and every other field on the first read of any of them; one
    from opposite_proximity decides all nine on that read.
    """

    idempotent: bool
    join_compatible: bool
    meet_compatible: bool
    join_strong: bool
    meet_strong: bool
    increasing: bool
    reflexive: bool
    distributive: bool
    witnesses: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def axioms_ok(self) -> bool:
        return self.join_compatible and self.meet_compatible and self.idempotent

    @property
    def doubly_strong(self) -> bool:
        return self.join_strong and self.meet_strong

    def witness(self, name: str) -> Optional[tuple[int, ...]]:
        return dict(self.witnesses).get(name)

    def flags(self) -> dict[str, bool]:
        return {"axioms_ok": self.axioms_ok, **_flag_fields(self)}

    def __getattr__(self, name: str):
        # called only for a name missing from the instance dict: a field
        # a report from _pending_report leaves to the first read, all
        # decided by one _decide_rest call
        if name in _DEFERRED and "_pending" in self.__dict__:
            _decide_rest(self)
            return self.__dict__[name]
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")


_DEFERRED = frozenset(f.name for f in fields(AxiomReport))


def _flag_fields(report) -> dict[str, bool]:
    """The fields of a report dataclass other than its witnesses."""
    return {f.name: getattr(report, f.name) for f in fields(report)
            if f.name != "witnesses"}


def _first_diff(rows1, rows2) -> tuple[int, int]:
    for a, (row1, row2) in enumerate(zip(rows1, rows2)):
        delta = row1 ^ row2
        if delta:
            return (a, (delta & -delta).bit_length() - 1)
    raise ValueError("relations are equal")


def verify_axioms(lat: FiniteLattice, rel: Relation) -> AxiomReport:
    """Check the proximity axioms and the strongness/shape flags.

    Never raises on failures; everything is reported with witnesses.
    The finite-subset quantifiers are checked at their empty and binary
    instances, which decide them on every relation that satisfies the
    axioms; on one that fails a compatibility axiom the strongness
    flags are the binary instances by definition. Strongness is
    approximability of R^-1 from (L, R) to itself. Compatibility and
    idempotence are read off mu and nu (module docstring).

    Only the three conjuncts of axioms_ok are decided here, in the
    order it reads them, join_compatible, meet_compatible, idempotent,
    and only up to the first that fails. Most relations fail the empty
    instance bot R b, read off rows[bot] before the columns are built;
    idempotence is read off mu o mu on a relation compatible on both
    sides and on no other. The first read of any other field, by name,
    equality, hash, repr or flags(), runs _decide_rest once, which
    stores all nine fields as one __dict__ (_pending_report). So a
    relation filtered by axioms_ok alone builds no more than it needs:
    one mask test for a relation whose row of bot is not full, and no
    R;R comparison or strongness instance for any. A proximity relation
    keeps its columns as its converse; a failing one keeps nothing.
    """
    n = lat.size
    if rel.source_size != n or rel.target_size != n:
        raise DimensionMismatch("relation carrier does not match the lattice")
    rows = rel.rows
    if rows[lat.bot] != (1 << n) - 1:
        return _pending_report({"join_compatible": False}, lat, rows)
    cols = transpose(rows, n)
    mu = _tops(lat, cols)
    if None in mu:
        return _pending_report({"join_compatible": False}, lat, rows, cols, mu)
    nu = _tops(opposite(lat), rows)
    if None in nu:
        return _pending_report({"join_compatible": True,
                                "meet_compatible": False},
                               lat, rows, cols, mu, nu)
    idempotent = tuple(map(mu.__getitem__, mu)) == mu
    if idempotent:
        keep(rel, Relation.converse, Relation(n, n, cols))
    return _pending_report({"join_compatible": True, "meet_compatible": True,
                            "idempotent": idempotent}, lat, rows, cols, mu, nu)


def _pending_report(decided, lat, rows, cols=None, mu=None,
                    nu=None) -> AxiomReport:
    """The report of (lat, R), R given by its rows, whose __dict__ is the
    dict of fields already `decided` and what _decide_rest needs for
    the others: the columns of R, mu and nu, each None if not yet built,
    mu and nu holding None where R is not compatible on that side. The
    one place the library makes an AxiomReport."""
    report = object.__new__(AxiomReport)
    decided["_pending"] = (lat, rows, cols, mu, nu)
    object.__setattr__(report, "__dict__", decided)
    return report


def _decide_rest(report: AxiomReport) -> None:
    """Decide every field of a report from _pending_report and store all
    nine as its one __dict__, dropping the lattice, rows and columns it
    held.

    The columns, mu and nu are built if the report does not hold them,
    and the three conjuncts of axioms_ok are read off them as
    verify_axioms reads them, so a field it decided is decided again to
    the same value. Strongness is approximability of R^-1 from (L, R) to
    itself, the meet side that of R from (L^op, R^-1): one
    _first_unapproximated call per side, given mu resp. nu on a
    proximity relation. A relation that fails compatibility or
    idempotence gets its idempotence witness from comparing R;R with R
    and its compatibility witnesses from _join_compatible. R is
    increasing iff each row lies in the up-set of its element, read by
    _first_diff like idempotence, and reflexive iff each row holds its
    element.
    """
    lat, rows, cols, mu, nu = report.__dict__["_pending"]
    n = lat.size
    lat_op = opposite(lat)
    if cols is None:
        cols = transpose(rows, n)
    if mu is None:
        mu = _tops(lat, cols)
    if nu is None:
        nu = _tops(lat_op, rows)
    join_compatible, meet_compatible = None not in mu, None not in nu
    # R;R = R iff mu o mu = mu on a relation compatible on both sides;
    # any other relation compares R;R with R for the witness
    proximity = (join_compatible and meet_compatible
                 and tuple(map(mu.__getitem__, mu)) == mu)
    twice = rows if proximity else compose_rows(rows, rows)
    mc_wit = None if meet_compatible else _join_compatible(lat_op, cols)
    js_wit = _first_unapproximated(lat, lat, rows, cols, cols,
                                   mu if proximity else None)
    ms_wit = _first_unapproximated(lat_op, lat_op, cols, rows, rows,
                                   nu if proximity else None)
    inside = tuple(map(int.__and__, rows, lat.up))
    irreflexive = next(((a,) for a, row in enumerate(rows)
                        if not row >> a & 1), None)
    witnesses = tuple((name, wit) for name, wit in (
        ("idempotent", twice != rows and _first_diff(twice, rows)),
        ("join_compatible",
         not join_compatible and _join_compatible(lat, rows)),
        ("meet_compatible", mc_wit and mc_wit[-1:] + mc_wit[:-1]),
        ("join_strong", js_wit and js_wit[-1:] + js_wit[:-1]),
        ("meet_strong", ms_wit),
        ("increasing", inside != rows and _first_diff(rows, inside)),
        ("reflexive", irreflexive)) if wit)
    object.__setattr__(report, "__dict__", {
        "idempotent": twice == rows,
        "join_compatible": join_compatible,
        "meet_compatible": meet_compatible,
        "join_strong": js_wit is None,
        "meet_strong": ms_wit is None,
        "increasing": inside == rows,
        "reflexive": irreflexive is None,
        "distributive": is_distributive(lat),
        "witnesses": witnesses,
    })


def _tops(lat: FiniteLattice, masks) -> tuple[Optional[int], ...]:
    """The q with down q = m for each m in `masks`, None where m is not
    a principal down-set (in a finite lattice, a lattice ideal): one
    lookup each in the down-set index, the one test of that property."""
    return tuple(map(down_index(lat).get, masks))


def _join_compatible(lat, rows) -> Optional[tuple[int, ...]]:
    """The least witness that bot R b fails for some b, (bot, b), or
    that (a v a2) R b iff a R b and a2 R b fails, (a, a2, b); None when
    R is join-compatible. Each join a v a2 is one lookup of
    up[a] & up[a2] in the up-set index."""
    n, up, index = lat.size, lat.up, up_index(lat)
    missing = lat.full & ~rows[lat.bot]
    if missing:
        return (lat.bot, (missing & -missing).bit_length() - 1)
    for a in range(n):
        ua = up[a]
        for a2 in range(a, n):
            want = rows[a] & rows[a2]
            got = rows[index[ua & up[a2]]]
            if got != want:
                delta = got ^ want
                return (a, a2, (delta & -delta).bit_length() - 1)
    return None


# ---------------------------------------------------------------------------
# Proximity lattices and round subsets
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProximityLattice:
    lattice: FiniteLattice
    R: Relation
    report: AxiomReport

    @property
    def size(self) -> int:
        return self.lattice.size

    @property
    @kept
    def mu(self) -> tuple[int, ...]:
        """mu(b), the join of the column R^-1[b], for each b; read off
        the columns once and kept on the carrier."""
        mu = _tops(self.lattice, self.R.converse().rows)
        if None in mu:  # a hand-built carrier failing the axioms
            b = mu.index(None)
            raise NotAProximityLattice(f"column {self.lattice.labels[b]!r} "
                                       "of R is not a principal down-set")
        return mu

    @property
    def join_strong(self) -> bool:
        return self.report.join_strong

    @property
    def meet_strong(self) -> bool:
        return self.report.meet_strong

    @property
    def doubly_strong(self) -> bool:
        return self.report.doubly_strong

    @property
    def increasing(self) -> bool:
        return self.report.increasing

    @property
    def reflexive(self) -> bool:
        return self.report.reflexive

    @property
    def distributive(self) -> bool:
        return self.report.distributive

    def same_carrier(self, other: "ProximityLattice") -> bool:
        return self.lattice == other.lattice and self.R == other.R


def proximity_lattice(lat: FiniteLattice, rel: Relation) -> ProximityLattice:
    """Validate the axioms and wrap; raises NotAProximityLattice otherwise."""
    report = verify_axioms(lat, rel)
    if not report.axioms_ok:
        raise NotAProximityLattice(
            "relation violates the proximity axioms", report.witnesses,
            lat.labels)
    return ProximityLattice(lat, rel, report)


def order_proximity(lat: FiniteLattice) -> ProximityLattice:
    """(L, <=): the canonical reflexive, doubly strong proximity lattice."""
    return proximity_lattice(lat, order_relation(lat))


@kept
def opposite_proximity(p: ProximityLattice) -> ProximityLattice:
    """(L^op, R^-1); swaps join-strong with meet-strong.

    Its report is the one verify_axioms gives (L^op, R^-1), made from
    p's rows and columns, its mu the nu of p and its nu the mu of p
    (module docstring). It decides all nine fields on the first read of
    any of them; nothing is decided here and no field of p's report is
    read. Kept on p; it keeps no link back, and its mu is the nu of p.
    """
    lat = opposite(p.lattice)
    rel = p.R.converse()
    mu = _tops(lat, p.R.rows)  # None in it: op.mu raises, as p.mu does
    nu = _tops(p.lattice, rel.rows)
    op = ProximityLattice(lat, rel,
                          _pending_report({}, lat, rel.rows, p.R.rows, mu, nu))
    keep(op, ProximityLattice.mu.fget, None if None in mu else mu)
    return op


def is_round_ideal(p: ProximityLattice, mask: int) -> bool:
    """A round ideal is down q for a fixed point q of mu (module
    docstring): the mask must be a principal down-set down q, with
    mu(q) = q. A mask that is empty, negative or wider than the
    carrier equals no down-set, so it is not one."""
    q = _tops(p.lattice, (mask,))[0]
    return q is not None and p.mu[q] == q


def is_round_filter(p: ProximityLattice, mask: int) -> bool:
    return is_round_ideal(opposite_proximity(p), mask)


def fixed_points(p: ProximityLattice) -> tuple[int, ...]:
    """Fix mu, the tops of the round ideals, in the canonical order of
    the round ideals: by the size of down q, then by its mask. The one
    list of Fix mu; not kept, as each caller is kept or runs once."""
    mu, down = p.mu, p.lattice.down
    return tuple(sorted((q for q in range(p.size) if mu[q] == q),
                        key=lambda q: (down[q].bit_count(), down[q])))


@kept
def round_ideal_masks(p: ProximityLattice) -> tuple[int, ...]:
    """All round ideals, each as a member mask, in canonical order.

    A round ideal is a lattice ideal, and a lattice ideal of a finite
    lattice is a principal down-set down q. Its R-preimage is
    R^-1[q] = down mu(q), so it is round exactly when mu(q) = q (module
    docstring). Found once per carrier and kept on it.
    """
    return tuple(map(p.lattice.down.__getitem__, fixed_points(p)))


def round_filter_masks(p: ProximityLattice) -> tuple[int, ...]:
    """The round ideals of the opposite, kept on it."""
    return round_ideal_masks(opposite_proximity(p))


@dataclass(frozen=True)
class RoundSubset:
    carrier: ProximityLattice
    members: int
    kind: str  # "ideal" | "filter"


def round_subsets(p: ProximityLattice, kind: str) -> tuple[RoundSubset, ...]:
    """Exhaustive list of round ideals or round filters of p."""
    if kind not in ("ideal", "filter"):
        raise ValueError("kind must be 'ideal' or 'filter'")
    masks = round_ideal_masks(p) if kind == "ideal" else round_filter_masks(p)
    return tuple(RoundSubset(p, m, kind) for m in masks)


@dataclass(frozen=True)
class RoundIdealLattice:
    carrier: ProximityLattice
    lattice: FiniteLattice           # ideals under inclusion
    ideals: tuple[int, ...]          # element index -> member mask
    way_below: Relation              # I << J iff I inside R^-1[d] for some d in J

    def index_of(self, mask: int) -> int:
        return self.ideals.index(mask)


def round_ideal_lattice(p: ProximityLattice) -> RoundIdealLattice:
    """The (finite, hence complete) lattice of round ideals under inclusion.

    Meet is the largest round ideal inside the intersection, join the
    smallest round ideal containing the union; both are exposed through
    the computed tables. Way-below on round ideals is inclusion (module
    docstring), the order of this lattice.
    """
    ideals = round_ideal_masks(p)
    try:
        lat = _lattice_of_sets(ideals, p.lattice.labels)
    except NotALattice as exc:  # pragma: no cover - theorem guard
        raise InternalCheckError(
            "round ideals failed to form a lattice", exc.witnesses,
            exc.labels) from exc
    return RoundIdealLattice(p, lat, ideals, order_relation(lat))


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MorphismReport:
    proximity: bool
    join_approximable: bool
    meet_approximable: bool
    witnesses: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def j_morphism(self) -> bool:
        return self.proximity and self.join_approximable

    @property
    def m_morphism(self) -> bool:
        return self.proximity and self.meet_approximable

    def flags(self) -> dict[str, bool]:
        return {
            "proximity": self.proximity,
            "j_morphism": self.j_morphism,
            "m_morphism": self.m_morphism,
        }


def verify_morphism(src: ProximityLattice, tgt: ProximityLattice,
                    rel: Relation) -> MorphismReport:
    """Classify a relation between two proximity lattices.

    Proximity morphisms are decided by the raw axioms on the converse
    relation (composition fixpoints plus join/meet compatibility), which
    name a witness for each failure. They hold exactly when every row is
    a round ideal of the target and every column a round filter of the
    source (module docstring), so that characterisation is not checked
    again.
    """
    if rel.source_size != src.size or rel.target_size != tgt.size:
        raise DimensionMismatch("relation does not match the two carriers")
    rows = rel.rows
    cols = transpose(rows, tgt.size)  # a one-shot candidate: no memo
    src_cols, tgt_cols = src.R.converse().rows, tgt.R.converse().rows

    src_op = opposite(src.lattice)
    left = compose_rows(src_cols, rows)  # R^-1;T
    right = compose_rows(rows, tgt_cols)  # T;S^-1
    # the tops of the rows in the target and of the columns in src^op;
    # the first None names the row or column that is no lattice ideal
    row_tops, col_tops = _tops(tgt.lattice, rows), _tops(src_op, cols)
    witnesses = [(name, wit) for name, wit in (
        ("left_composition", left != rows and _first_diff(left, rows)),
        ("right_composition", right != rows and _first_diff(right, rows)),
        ("row_ideal", None in row_tops and (row_tops.index(None),)),
        ("column_filter", None in col_tops and (col_tops.index(None),)))
        if wit]
    raw = not witnesses

    # meet-approximability of T is join-approximability of its converse
    # from (tgt^op, S^-1) to (src^op, R^-1); a proximity morphism has
    # the tops of its rows and columns as tau
    j_wit = _first_unapproximated(src.lattice, tgt.lattice, tgt.R.rows,
                                  tgt_cols, rows, row_tops if raw else None)
    m_wit = _first_unapproximated(opposite(tgt.lattice), src_op, src_cols,
                                  src.R.rows, cols, col_tops if raw else None)
    witnesses += [(name, wit) for name, wit in (
        ("join_approximable", j_wit), ("meet_approximable", m_wit)) if wit]

    return MorphismReport(
        proximity=raw,
        join_approximable=j_wit is None,
        meet_approximable=m_wit is None,
        witnesses=tuple(witnesses),
    )


def _first_unapproximated(sl, tl, tgt_rows, tgt_cols, rows, tau=None):
    """The least instance of join-approximability of T from sl to tl
    that fails, or None; S is given by its rows and columns, T by its
    rows. The empty instance demands m S bot for every m in T[bot], so
    it fails with (m,) for the least m in T[bot] & ~S^-1[bot]. A binary
    one fails with (b1, b2, m), b1 <= b2 in index order and m least.

    Without tau the binary instances are read by _first_binary_failure.
    With tau, the tops of the rows of a proximity morphism,
    T[b] = down tau(b), the one at (b1, b2) fails for the m in
    T[b1 v b2] minus S^-1[tau(b1) v tau(b2)], and only the b2 > b1 by
    index and incomparable to b1 can fail. After n of these pairs, the
    rest are skipped if they all hold: iff each tau^-1(down q),
    S^-1[q] = down q, is empty or principal (module docstring). The two
    joins of a pair are lookups in the up-set indices of sl and tl."""
    stray = rows[sl.bot] & ~tgt_cols[tl.bot]
    if stray:
        return ((stray & -stray).bit_length() - 1,)
    if tau is None:
        return _first_binary_failure(sl.join, tl.join, tl.size, rows, tgt_rows)
    up, down, full, tup = sl.up, sl.down, sl.full, tl.up
    index, tindex = up_index(sl), up_index(tl)
    budget = sl.size  # pairs walked before the verdict is read
    for b1, t1 in enumerate(tau):
        u1, tu1 = up[b1], tup[t1]
        for b2 in bits(full & -(2 << b1) & ~(u1 | down[b1])):
            budget -= 1
            if not budget and {pre for col, down_q, pre in zip(
                    tgt_cols, tl.down, down_preimages(tl, tau))
                    if col == down_q and pre} <= down_index(sl).keys():
                return None
            stray = (rows[index[u1 & up[b2]]]
                     & ~tgt_cols[tindex[tu1 & tup[tau[b2]]]])
            if stray:
                return (b1, b2, (stray & -stray).bit_length() - 1)
    return None


def _first_binary_failure(sjoin, tjoin, n, rows, tgt_rows):
    """The first binary instance (b1, b2, m) of join-approximability
    that fails, b1 <= b2 in index order and m least, or None. sjoin and
    tjoin are the join tables of the source and the target and n the
    target's size; rows are the rows of T and tgt_rows those of S.

    With J the join set {u v v : u in T[b1], v in T[b2]}, built for
    each pair that has targets, the instance at (b1, b2) fails for the
    m in T[b1 v b2] whose row S[m] misses J.
    """
    # the members of a row, by its mask: off the byte table up to n = 8,
    # else listed once per call
    members = _SMALL if n <= 8 else {r: tuple(bits(r)) for r in rows}
    for b1, row in enumerate(sjoin):
        us = members[rows[b1]]
        for b2 in range(b1, len(sjoin)):
            targets = rows[row[b2]]
            if not targets:
                continue
            joined = 0
            vs = members[rows[b2]]
            for u in us:
                ujoin = tjoin[u]
                for v in vs:
                    joined |= 1 << ujoin[v]
            for m in members[targets]:
                if not tgt_rows[m] & joined:
                    return (b1, b2, m)
    return None


@dataclass(frozen=True)
class ProximityMorphism:
    """A relation between proximity lattices with its verified class flags."""

    source: ProximityLattice
    target: ProximityLattice
    T: Relation
    report: MorphismReport

    @property
    def is_proximity(self) -> bool:
        return self.report.proximity

    @property
    def is_j(self) -> bool:
        return self.report.j_morphism

    @property
    def is_m(self) -> bool:
        return self.report.m_morphism


def proximity_morphism(src: ProximityLattice, tgt: ProximityLattice,
                       rel: Relation) -> ProximityMorphism:
    return ProximityMorphism(src, tgt, rel, verify_morphism(src, tgt, rel))


def morph_compose(t: ProximityMorphism, u: ProximityMorphism) -> ProximityMorphism:
    """Relational composite; t runs first."""
    if not t.target.same_carrier(u.source):
        raise DimensionMismatch("middle proximity lattices differ")
    return proximity_morphism(t.source, u.target, compose(t.T, u.T))


def identity_morphism(p: ProximityLattice) -> ProximityMorphism:
    """R^-1, the identity for composition of j-morphisms."""
    if not p.join_strong:
        raise NotJoinStrong("identity morphism needs a join-strong carrier")
    ident = proximity_morphism(p, p, p.R.converse())
    if not ident.is_j:  # pragma: no cover - theorem guard
        raise InternalCheckError("converse of R failed to be a j-morphism")
    return ident


def hom_as_morphism(h: LatticeMap) -> ProximityMorphism:
    """Turn a lattice map h into the relation {(a, b) : b <= h(a)}
    between the order proximity lattices of its endpoints.

    The relation is a j-morphism exactly when h is a homomorphism;
    the report carries the verdict either way.
    """
    src = order_proximity(h.source)
    tgt = order_proximity(h.target)
    rows = tuple(h.target.down[h.table[a]] for a in range(h.source.size))
    return proximity_morphism(src, tgt, Relation(h.source.size, h.target.size, rows))


@dataclass(frozen=True)
class IdealLatticeHom:
    map: LatticeMap
    source_ideals: RoundIdealLattice
    target_ideals: RoundIdealLattice


def ideal_lattice_hom(t: ProximityMorphism) -> IdealLatticeHom:
    """Push a j-morphism forward to a homomorphism of round-ideal lattices,
    sending an ideal I to the image T[I]. The image of down q is
    down tau(q), tau being monotone, so the table is tau read on Fix mu,
    in the order of the round ideals."""
    if not t.is_j:
        raise NotAJMorphism("only j-morphisms act on round-ideal lattices")
    ridl_src = round_ideal_lattice(t.source)
    ridl_tgt = round_ideal_lattice(t.target)
    tau = _tops(t.target.lattice, t.T.rows)
    position = {q: i for i, q in enumerate(fixed_points(t.target))}
    table = tuple(position[tau[q]] for q in fixed_points(t.source))
    lm = LatticeMap(ridl_src.lattice, ridl_tgt.lattice, table)
    if not is_homomorphism(lm):  # pragma: no cover - theorem guard
        raise InternalCheckError("induced ideal map is not a homomorphism")
    return IdealLatticeHom(lm, ridl_src, ridl_tgt)


# ---------------------------------------------------------------------------
# Adjunction transposes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdealValuedHom:
    """A homomorphism from a lattice into the round-ideal lattice of a
    proximity lattice, stored by its ideal values."""

    source: FiniteLattice
    target: ProximityLattice
    values: tuple[int, ...]  # source element -> round ideal mask


def transpose_to_hom(t: ProximityMorphism) -> IdealValuedHom:
    """Transpose a j-morphism out of an order proximity lattice into the
    homomorphism a -> T[a]."""
    if t.source.R.rows != t.source.lattice.up:
        raise TransposeError("transpose needs an order proximity source")
    if not t.is_j:
        raise TransposeError("transpose needs a j-morphism")
    values = t.T.rows
    hom = IdealValuedHom(t.source.lattice, t.target, tuple(values))
    _validate_ideal_valued_hom(hom)
    return hom


def _validate_ideal_valued_hom(f: IdealValuedHom) -> RoundIdealLattice:
    ridl = round_ideal_lattice(f.target)
    index = []
    for a, mask in enumerate(f.values):
        if not is_round_ideal(f.target, mask):
            raise TransposeError(
                f"value at {f.source.labels[a]!r} is not a (nonempty) round ideal")
        index.append(ridl.index_of(mask))
    lm = LatticeMap(f.source, ridl.lattice, tuple(index))
    if not is_homomorphism(lm):
        raise TransposeError("values do not form a lattice homomorphism")
    return ridl


def transpose_to_morphism(f: IdealValuedHom) -> ProximityMorphism:
    """Transpose a homomorphism into a round-ideal lattice back to the
    j-morphism a T b iff b in f(a)."""
    _validate_ideal_valued_hom(f)
    src = order_proximity(f.source)
    rel = Relation(f.source.size, f.target.size, f.values)
    t = proximity_morphism(src, f.target, rel)
    if not t.is_j:  # pragma: no cover - theorem guard
        raise InternalCheckError("transpose of a homomorphism is not a j-morphism")
    return t


# ---------------------------------------------------------------------------
# Increasing presentation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IncreasingPresentation:
    output: ProximityLattice         # (round ideals, way-below)
    ideals: RoundIdealLattice
    phi: ProximityMorphism           # a Phi I  iff  I << R^-1[a]
    psi: ProximityMorphism           # I Psi a  iff  a in I


def increasing_presentation(p: ProximityLattice) -> IncreasingPresentation:
    """Replace a join-strong proximity lattice by the increasing one on
    its round ideals with the way-below relation; Phi and Psi realise
    the isomorphism, composing to R^-1 and to the converse of way-below.
    """
    if not p.join_strong:
        raise NotJoinStrong("increasing presentation needs join-strongness")
    ridl = round_ideal_lattice(p)
    out = proximity_lattice(ridl.lattice, ridl.way_below)
    if not (out.increasing and out.join_strong):  # pragma: no cover
        raise InternalCheckError("way-below output lost expected flags")

    wb_conv = ridl.way_below.converse()
    n_i = len(ridl.ideals)
    # R^-1[a] = down mu(a) is always round; its row is the way-below column there
    phi_rows = tuple(wb_conv.rows[ridl.index_of(p.lattice.down[m])] for m in p.mu)
    phi = proximity_morphism(p, out, Relation(p.size, n_i, phi_rows))

    psi_rows = tuple(ridl.ideals)
    psi = proximity_morphism(out, p, Relation(n_i, p.size, psi_rows))

    if not (phi.is_j and psi.is_j):  # pragma: no cover - theorem guard
        raise InternalCheckError("presentation morphisms are not j-morphisms")
    if compose(phi.T, psi.T) != p.R.converse():
        raise InternalCheckError("Phi;Psi is not R^-1")
    if compose(psi.T, phi.T) != wb_conv:
        raise InternalCheckError("Psi;Phi is not the converse of way-below")
    return IncreasingPresentation(out, ridl, phi, psi)


# ---------------------------------------------------------------------------
# Morphism enumeration (corpus tooling)
# ---------------------------------------------------------------------------

def all_proximity_morphisms(src: ProximityLattice, tgt: ProximityLattice,
                            *, limit: int = 200_000) -> list[ProximityMorphism]:
    """Every proximity morphism src -> tgt, exhaustively.

    Rows of a proximity morphism are round ideals of the target, so the
    search space is the functions from the source carrier into the
    (principal) round ideals, and `limit` bounds its size. The search
    visits only morphisms: with T[a] = down tau(a), T is one exactly
    when tau preserves finite meets and tau o mu_R = tau (module
    docstring). It assigns tau(0), tau(1), ... in element order, tries
    the tops of the round ideals in their canonical order, and leaves a
    branch as soon as an assigned meet or mu_R pair breaks, so the
    morphisms come in the order of the product of the round ideals.
    Each one is still classified by verify_morphism.
    """
    sl, tl, n = src.lattice, tgt.lattice, src.size
    # (down q, q) for q in Fix mu_S, in the canonical order of the ideals
    options = tuple((tl.down[q], q) for q in fixed_points(tgt))
    total = len(options) ** n
    if total > limit:
        raise ValueError(f"search space {total} exceeds limit {limit}")
    tmeet, mu = tl.meet, src.mu
    # the meet triples and mu_R pairs, each filed under its largest element
    meets: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    fixes: list[list[int]] = [[] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            c = sl.meet[a][b]
            meets[max(b, c)].append((a, b, c))
        if mu[a] != a:
            fixes[max(a, mu[a])].append(a)

    found = []
    tau = [0] * n
    rows = [0] * n
    tried = [0] * n  # options tried at each level of the current branch
    k = 0
    while k >= 0:
        i = tried[k]
        if i == len(options):
            tried[k] = 0
            k -= 1
            continue
        tried[k] = i + 1
        rows[k], tau[k] = options[i]
        if k == sl.top and tau[k] != tl.top:
            continue
        if any(tmeet[tau[a]][tau[b]] != tau[c] for a, b, c in meets[k]):
            continue
        if any(tau[a] != tau[mu[a]] for a in fixes[k]):
            continue
        if k + 1 < n:
            k += 1
            continue
        rel = Relation(n, tgt.size, tuple(rows))
        report = verify_morphism(src, tgt, rel)
        if not report.proximity:  # pragma: no cover - theorem guard
            raise InternalCheckError(
                "a meet-preserving tau fixed by mu_R is not a proximity morphism",
                (("tau", tuple(tau)),), tl.labels)
        found.append(ProximityMorphism(src, tgt, rel, report))
    return found


def all_j_morphisms(src: ProximityLattice, tgt: ProximityLattice,
                    *, limit: int = 200_000) -> list[ProximityMorphism]:
    return [t for t in all_proximity_morphisms(src, tgt, limit=limit) if t.is_j]
