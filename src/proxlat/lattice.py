"""Finite bounded lattices and order primitives.

A lattice lives on the carrier 0..n-1. The order is stored twice, as
up-set masks and down-set masks, so that bound computations are single
AND operations. A bound is one lookup in an index of cones: the join
of a and b is the element whose up-set is up[a] & up[b], found in the
up-set index, a table from up-set masks to elements (the lowest index
wins where a preorder repeats a mask), and the meet likewise in the
down-set index. A build makes both indices and keeps them, and checks
the meet and the join of every incomparable pair, one lookup each:
O(n + incomparable pairs) lookups after the transpose. The n x n meet
and join tables are built from the indices on their first read and
kept.
All values are immutable after construction and every function here is
pure; a lattice keeps, once asked for them, its opposite, its
distributivity verdict (read off its join-irreducibles, each of which
must be join-prime: the test of is_prime_up_set), its two indices and
its two tables. Every memo held by a value is a one-argument build
decorated with `kept`, which stores its value on the argument under a
name that is no field; `keep` stores a value a caller already has.
None of it shows in the repr, equality or the hash.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .bitset import bits, is_subset, rows_of_pairs, transpose
from .errors import DimensionMismatch, NotALattice, NotAPartialOrder


def _key(build: Callable) -> str:
    """The attribute holding what `build` keeps, `_kept_` and its
    qualified name (`_kept_Relation.converse`): no field starts with
    `_` and no method with `_kept_`, so it shadows neither."""
    return sys.intern("_kept_" + build.__qualname__)


def kept(build: Callable) -> Callable:
    """Keep the value of build(x) on x, a frozen dataclass instance:
    stored with object.__setattr__ under _key(build) once the build
    returns, and read back with getattr on every later call, None
    meaning "not kept" (no build returns None). A build that raises
    keeps nothing. The key is no field, so the constructor, the repr,
    equality and the hash never see what is kept."""
    key = _key(build)

    @functools.wraps(build)
    def read_or_build(x):
        value = getattr(x, key, None)
        if value is None:
            value = build(x)
            object.__setattr__(x, key, value)
        return value
    return read_or_build


def keep(x, build: Callable, value) -> None:
    """Keep `value` on x as the value of the kept `build`, for a caller
    that already has it, unless x keeps one; None keeps nothing."""
    key = _key(build)
    if getattr(x, key, None) is None:
        object.__setattr__(x, key, value)


@dataclass(frozen=True)
class FiniteLattice:
    size: int
    up: tuple[int, ...]    # up[a] = {b : a <= b}
    down: tuple[int, ...]  # down[a] = {b : b <= a}
    bot: int
    top: int
    labels: tuple[str, ...]

    @property
    def full(self) -> int:
        return (1 << self.size) - 1

    @property
    @kept
    def meet(self) -> tuple[tuple[int, ...], ...]:
        """meet[a][b], read off the down-set index on the first read."""
        return _bound_table(self.down, down_index(self))

    @property
    @kept
    def join(self) -> tuple[tuple[int, ...], ...]:
        """join[a][b], read off the up-set index on the first read."""
        return _bound_table(self.up, up_index(self))

    def leq(self, a: int, b: int) -> bool:
        return bool(self.up[a] >> b & 1)

    def join_mask(self, mask: int) -> int:
        """Join of a subset given as a bitmask; the empty join is bot:
        the element whose up-set is the meet of the members' up-sets."""
        common, up = self.full, self.up
        for a in bits(mask):
            common &= up[a]
        return up_index(self)[common]

    def covers(self) -> list[tuple[int, int]]:
        """Pairs (a, b) with a < b and nothing strictly between."""
        return covers(self.up, self.down)


@dataclass(frozen=True)
class LatticeMap:
    """A total function between lattice carriers, given by its table:
    one target element per source element, else DimensionMismatch."""

    source: FiniteLattice
    target: FiniteLattice
    table: tuple[int, ...]

    def __post_init__(self):
        t = self.table
        if len(t) != self.source.size or min(t) < 0 or max(t) >= self.target.size:
            raise DimensionMismatch("one target element per source element required")

    def __call__(self, a: int) -> int:
        return self.table[a]

    @property
    @kept
    def over(self) -> tuple[int, ...]:
        """over[c] = {a : c <= table[a]}, the preimage of up c."""
        return down_preimages(opposite(self.target), self.table)


def antisymmetry_witness(up: Sequence[int]) -> Optional[tuple[int, int]]:
    """The first pair (a, b), a != b, with a <= b and b <= a in the
    relation given by up-set masks; None when it is antisymmetric."""
    for a, row in enumerate(up):
        for b in bits(row & ~(1 << a)):
            if up[b] >> a & 1:
                return (a, b)
    return None


def covers(up: Sequence[int], down: Sequence[int]) -> list[tuple[int, int]]:
    """Pairs (a, b) with a < b and nothing strictly between, read off
    the up-set and down-set masks of a preorder."""
    out = []
    for a, row in enumerate(up):
        strict = row & ~(1 << a)
        for b in bits(strict):
            if not strict & down[b] & ~(1 << b):
                out.append((a, b))
    return out


def _check_preorder(n: int, up: Sequence[int]) -> None:
    for a in range(n):
        if not up[a] >> a & 1:
            raise NotAPartialOrder(f"relation is not reflexive at {a}")
        for b in bits(up[a]):
            if not is_subset(up[b], up[a]):
                raise NotAPartialOrder(
                    f"relation is not transitive at ({a},{b})")


def lattice_from_order(labels: Sequence[str], pairs) -> FiniteLattice:
    """Build a FiniteLattice from a partial order given as (a, b) pairs.

    The pairs must already be a partial order (reflexive, antisymmetric,
    transitive); raises NotAPartialOrder otherwise and NotALattice, with
    a witness pair, if some pair of elements has no meet or no join.
    """
    n = len(labels)
    up = rows_of_pairs(pairs, n, n, lambda a, b: NotAPartialOrder(
        f"pair ({a},{b}) outside carrier of size {n}"))
    _check_preorder(n, up)
    witness = antisymmetry_witness(up)
    if witness is not None:
        raise NotAPartialOrder("antisymmetry fails at ({},{})".format(*witness))
    return lattice_from_up(labels, up)


def lattice_from_up(labels: Sequence[str], up: Sequence[int]) -> FiniteLattice:
    """Like lattice_from_order but from validated up-set masks.

    The join of a and b is the element whose up-set is up[a] & up[b],
    and the meet the element whose down-set is down[a] & down[b]: one
    lookup each in the up-set and the down-set index, which the build
    makes and keeps. A comparable pair has both bounds, so only the
    incomparable pairs are looked up, each once, the meet before the
    join; a nonempty finite order in which every pair has both is a
    lattice, so it has a bot and a top. That is O(n + incomparable
    pairs) lookups after the transpose, and no table is built until
    meet or join is read. For a preorder (equal masks on distinct
    elements) the lowest index with the mask wins. NotALattice names
    the first pair of indices (a, b), a < b, in order of a and then b,
    without a bound, the meet tested before the join."""
    n = len(labels)
    if n == 0:
        raise NotALattice("a bounded lattice needs at least one element")
    down = transpose(up, n)
    up_of, down_of = _index(up), _index(down)
    full = (1 << n) - 1
    for a in range(n):
        ua, da = up[a], down[a]
        for b in bits(full & ~(ua | da) & -(2 << a)):
            if da & down[b] not in down_of:
                kind = "meet"
            elif ua & up[b] not in up_of:
                kind = "join"
            else:
                continue
            raise NotALattice(
                f"elements {labels[a]!r} and {labels[b]!r} have no {kind}",
                witness=(a, b), missing=kind, labels=labels)
    lat = FiniteLattice(
        size=n,
        up=tuple(up),
        down=down,
        bot=up_of[full],
        top=down_of[full],
        labels=tuple(labels),
    )
    keep(lat, up_index, up_of)
    keep(lat, down_index, down_of)
    return lat


@kept
def down_index(lat: FiniteLattice) -> dict[int, int]:
    """{down[a]: a}, the lowest index winning where a preorder repeats a
    mask: the index lattice_from_up keeps, the up-set index of the
    lattice an opposite is built from, or built once on a lattice made
    otherwise. Read it, do not change it."""
    return _index(lat.down)


@kept
def up_index(lat: FiniteLattice) -> dict[int, int]:
    """{up[a]: a}, the down-set index of the opposite, kept and shared
    as down_index is."""
    return _index(lat.up)


def _index(masks: Sequence[int]) -> dict[int, int]:
    """{masks[a]: a}, the lowest index winning where masks repeat."""
    # filled from the top, so low indices win
    return dict(zip(reversed(masks), range(len(masks) - 1, -1, -1)))


def _bound_table(cones: Sequence[int], index: dict[int, int],
                 ) -> tuple[tuple[int, ...], ...]:
    """table[a][b] = index[cones[a] & cones[b]]: the meet table from the
    down-sets and their index, the join table from the up-sets."""
    rows = []
    for c in cones:
        rows.append(tuple(map(index.__getitem__, map(c.__and__, cones))))
    return tuple(rows)


def is_prime_up_set(lat: FiniteLattice, mask: int) -> bool:
    """Whether the up-set `mask` is prime: bot is not in it, and it holds
    x or y whenever it holds x v y (all finite joins follow by
    induction); a prime filter is a filter that is prime. The complement
    D is a down-set, and a down-set is closed under binary joins iff it
    holds its own join (the join of a nonempty D is a finite join of its
    members, and down-closure brings every join of members below it into
    D). Bot is outside the up-set iff D is nonempty. So the up-set is
    prime iff D is a principal down-set: one lookup in the down-set
    index, with no distributivity used. A mask that is no up-set has no
    down-set as its complement, so it is never called prime.
    """
    return lat.full & ~mask in down_index(lat)


@kept
def is_distributive(lat: FiniteLattice) -> bool:
    """True iff meet distributes over join on the whole carrier; found
    once per lattice and kept on it.

    A finite lattice is distributive iff every join-irreducible j is
    join-prime, that is, j <= x v y only if j <= x or j <= y (Davey and
    Priestley, Introduction to Lattices and Order, 2nd ed., 2002): iff
    up j is a prime up-set, the test of is_prime_up_set inlined. Both
    tests are lookups in the down-set index, O(n) in all.
    """
    index, full, up = down_index(lat), lat.full, lat.up
    return all(full & ~up[j] in index for j in bits(join_irreducibles(lat)))


def join_irreducibles(lat: FiniteLattice) -> int:
    """The join-irreducibles as a mask: j is one iff the elements below
    it but j form a principal down-set down m. A subset X join-generates
    lat iff it holds them all: the members of X below j but j lie in
    down m, and every u is the join of the join-irreducibles below it."""
    index, out, bit = down_index(lat), 0, 1
    for d in lat.down:
        if d ^ bit in index:
            out |= bit
        bit <<= 1
    return out


@kept
def opposite(lat: FiniteLattice) -> FiniteLattice:
    """Same carrier with the order reversed; an involution. Built once
    per lattice and kept on it, with the two indices of lat swapped as
    its own; the opposite keeps no link back, so the two form no
    reference cycle."""
    op = FiniteLattice(size=lat.size, up=lat.down, down=lat.up,
                       bot=lat.top, top=lat.bot, labels=lat.labels)
    keep(op, down_index, up_index(lat))
    keep(op, up_index, down_index(lat))
    return op


def down_preimages(tgt: FiniteLattice, table: Sequence[int]) -> tuple[int, ...]:
    """out[c] = {a : table[a] <= c}, one transpose; for up c pass opposite(tgt)."""
    return transpose(list(map(tgt.up.__getitem__, table)), tgt.size)


def _unpreserved_join(src: FiniteLattice, tgt: FiniteLattice,
                      table: Sequence[int], elems: Sequence[int],
                      empty: bool = True) -> Optional[tuple[int, ...]]:
    """The first join over `elems` that `table` does not carry to the
    join of the images in `tgt`, or None.

    The empty join comes first, as (src.bot,), unless `empty` is False;
    then the binary joins (a, b), a no later than b in `elems`. Binary
    and empty instances give every finite join by induction. Meet
    preservation is this check on the opposite lattices. Over every
    element the loop only names a failure: f = table preserves finite
    joins iff each f^-1(down c) is principal (residuation; Davey and
    Priestley, ch. 7). If f does, f^-1(down c) holds bot and is down-
    and join-closed. Conversely, a <= b puts a in f^-1(down f(b)), so f
    is monotone; f^-1(down bot) is nonempty, so f(bot) = bot; and a, b
    lie in f^-1(down (f(a) v f(b))) = down m, so f(a v b) <= f(a) v f(b).
    """
    if len(elems) == src.size and all(map(down_index(src).__contains__,
                                          down_preimages(tgt, table))):
        return None
    if empty and table[src.bot] != tgt.bot:
        return (src.bot,)
    join, tjoin = src.join, tgt.join
    for i, a in enumerate(elems):
        row, trow = join[a], tjoin[table[a]]
        for b in elems[i:]:
            if table[row[b]] != trow[table[b]]:
                return (a, b)
    return None


def _unordered_pair(over: Sequence[int], table: Sequence[int],
                    rows: Sequence[int]) -> Optional[tuple[int, int]]:
    """The first pair (a, b), b in rows[a] - over[table[a]], by a, then
    by b, or None. With over[c] = {x : c <= table[x]} these are the
    pairs whose images are out of order; with the up-sets of a source
    order as rows this is the monotonicity check of table."""
    for a, row in enumerate(rows):
        stray = row & ~over[table[a]]
        if stray:
            return (a, (stray & -stray).bit_length() - 1)
    return None


def is_homomorphism(f: LatticeMap) -> bool:
    """True iff f preserves binary meets and joins and both bounds: iff
    the preimages of principal down- and up-sets (f.over) are principal."""
    src = f.source
    return (all(map(down_index(src).__contains__,
                    down_preimages(f.target, f.table)))
            and all(map(up_index(src).__contains__, f.over)))


def compose_maps(f: LatticeMap, g: LatticeMap) -> LatticeMap:
    """The map a -> g(f(a)); f runs first."""
    if f.target is not g.source and f.target != g.source:
        raise DimensionMismatch("composable maps must share the middle lattice")
    return LatticeMap(f.source, g.target, tuple(g.table[x] for x in f.table))


# ---------------------------------------------------------------------------
# Lattices of sets
# ---------------------------------------------------------------------------

def _set_label(mask: int, labels: Sequence[str]) -> str:
    return "{" + ",".join(map(labels.__getitem__, bits(mask))) + "}"


def _lattice_of_sets(masks: Sequence[int], labels: Sequence[str]) -> FiniteLattice:
    """Lattice of a family of sets under inclusion: the members above m
    are those holding every element of m."""
    every = (1 << len(masks)) - 1
    holding = transpose(masks, len(labels))  # holding[x] = {j : x in masks[j]}
    up, names = [], []
    for m in masks:
        u = every
        for x in bits(m):
            u &= holding[x]
        up.append(u)
        names.append(_set_label(m, labels))
    return lattice_from_up(names, up)


# ---------------------------------------------------------------------------
# Isomorphism search
# ---------------------------------------------------------------------------

def _order_isomorphism(up_a: Sequence[int], up_b: Sequence[int],
                       ) -> Optional[tuple[int, ...]]:
    """A bijection t with x <= y iff t(x) <= t(y), between two preorders
    given by up-set masks, found by backtracking; None if absent."""
    n = len(up_a)
    if n != len(up_b):
        return None
    down_a, down_b = transpose(up_a, n), transpose(up_b, n)
    prof_a = [(down_a[x].bit_count(), up_a[x].bit_count()) for x in range(n)]
    prof_b = [(down_b[y].bit_count(), up_b[y].bit_count()) for y in range(n)]
    if sorted(prof_a) != sorted(prof_b):
        return None

    table: list[int] = [-1] * n
    used = [False] * n

    def fits(x: int, y: int) -> bool:
        """x -> y agrees both ways with every value assigned so far."""
        ua, da, ub, db = up_a[x], down_a[x], up_b[y], down_b[y]
        for x2, y2 in enumerate(table):
            if y2 != -1 and (ua >> x2 & 1 != ub >> y2 & 1
                             or da >> x2 & 1 != db >> y2 & 1):
                return False
        return True

    # rarest profiles first keeps the branching factor low
    order = sorted(range(n), key=lambda x: (prof_b.count(prof_a[x]), x))

    def extend(k: int) -> bool:
        if k == len(order):
            return True
        x = order[k]
        for y in range(n):
            if not used[y] and prof_b[y] == prof_a[x] and fits(x, y):
                table[x] = y
                used[y] = True
                if extend(k + 1):
                    return True
                table[x] = -1
                used[y] = False
        return False

    return tuple(table) if extend(0) else None


def find_isomorphism(a: FiniteLattice, b: FiniteLattice) -> Optional[LatticeMap]:
    """Order isomorphism a -> b found by backtracking, or None.

    An order isomorphism between lattices preserves meets and joins, so
    nothing more needs checking.
    """
    table = _order_isomorphism(a.up, b.up)
    return None if table is None else LatticeMap(a, b, table)
