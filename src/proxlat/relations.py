"""Binary relations between finite carriers, stored row-wise as bitmasks."""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import or_
from typing import Iterator

from .bitset import bits, compose_rows, rows_of_pairs, transpose
from .errors import DimensionMismatch
from .lattice import FiniteLattice, kept

_setattr = object.__setattr__  # sets the fields of a frozen instance


@dataclass(frozen=True, init=False)
class Relation:
    source_size: int
    target_size: int
    rows: tuple[int, ...]  # rows[a] = {b : a R b}

    def __init__(self, source_size: int, target_size: int,
                 rows: tuple[int, ...]):
        """One row per source element and each within the target carrier,
        tested on their union, else DimensionMismatch."""
        if len(rows) != source_size:
            raise DimensionMismatch("one row per source element required")
        if reduce(or_, rows, 0) >> target_size:
            raise DimensionMismatch("row mask exceeds target carrier")
        _setattr(self, "source_size", source_size)
        _setattr(self, "target_size", target_size)
        _setattr(self, "rows", rows)

    def has(self, a: int, b: int) -> bool:
        return bool(self.rows[a] >> b & 1)

    def pairs(self) -> Iterator[tuple[int, int]]:
        for a, row in enumerate(self.rows):
            for b in bits(row):
                yield (a, b)

    @kept
    def converse(self) -> "Relation":
        """R^-1, whose rows are the columns of R. Built once per
        relation and kept on it; the converse keeps no link back, so the
        two form no reference cycle."""
        return Relation(self.target_size, self.source_size,
                        transpose(self.rows, self.target_size))

    def image(self, mask: int) -> int:
        """R[A] = union of rows over a in A; A must be a subset of the
        source carrier, else DimensionMismatch."""
        if mask >> self.source_size:  # also every negative mask
            raise DimensionMismatch(f"mask {mask} is outside the carrier")
        return reduce(or_, map(self.rows.__getitem__, bits(mask)), 0)

    def preimage(self, mask: int) -> int:
        """R^{-1}[B] = {a : row a meets B}, the image under R^-1; B must
        be a subset of the target carrier."""
        return self.converse().image(mask)

    def is_empty(self) -> bool:
        return all(r == 0 for r in self.rows)


def relation_from_pairs(source_size: int, target_size: int, pairs) -> Relation:
    rows = rows_of_pairs(pairs, source_size, target_size, lambda a, b:
                         DimensionMismatch(f"pair ({a},{b}) outside carriers"))
    return Relation(source_size, target_size, tuple(rows))


def full_relation(source_size: int, target_size: int) -> Relation:
    full = (1 << target_size) - 1
    return Relation(source_size, target_size, (full,) * source_size)


def empty_relation(source_size: int, target_size: int) -> Relation:
    return Relation(source_size, target_size, (0,) * source_size)


def order_relation(lat: FiniteLattice) -> Relation:
    """The lattice order <= as a relation on the carrier."""
    return Relation(lat.size, lat.size, lat.up)


def compose(r: Relation, s: Relation) -> Relation:
    """a (r;s) c iff a r b and b s c for some b. r runs first."""
    if r.target_size != s.source_size:
        raise DimensionMismatch(
            f"cannot compose {r.target_size}-target with {s.source_size}-source")
    return Relation(r.source_size, s.target_size, compose_rows(r.rows, s.rows))
