"""Bitmask helpers.

Carriers are index sets 0..n-1 and subsets are plain ints, one bit per
element. Everything downstream (orders, relations, closures) is AND/OR
arithmetic on these masks.
"""

from __future__ import annotations

from typing import Iterator, Sequence


# the positions of every byte-sized mask, so small carriers skip the loop
_SMALL = tuple(tuple(i for i in range(8) if m >> i & 1) for m in range(256))


def bits(mask: int) -> Iterator[int]:
    """The set bit positions of `mask` in increasing order, as an
    iterator; masks below 256 are read off a table."""
    if 0 <= mask < 256:
        return iter(_SMALL[mask])
    return _bits(mask)


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def submasks(mask: int) -> Iterator[int]:
    """All submasks of `mask`, including 0 and `mask` itself."""
    sub = mask
    while True:
        yield sub
        if sub == 0:
            return
        sub = (sub - 1) & mask


def is_subset(a: int, b: int) -> bool:
    return a & ~b == 0


def transpose(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """The bit matrix read by columns: out[b] = {a : b in rows[a]}."""
    cols = [0] * width
    for a, row in enumerate(rows):
        for b in bits(row):
            cols[b] |= 1 << a
    return tuple(cols)


def compose_rows(first: Sequence[int], second: Sequence[int]) -> tuple[int, ...]:
    """The bit matrix product: out[a] is the union of second[b] over the
    b in first[a]."""
    out = []
    for row in first:
        acc = 0
        for b in bits(row):
            acc |= second[b]
        out.append(acc)
    return tuple(out)


def preimage(table: Sequence[int], mask: int) -> int:
    """The positions x with table[x] in `mask`, as a mask."""
    out = 0
    for x, y in enumerate(table):
        if mask >> y & 1:
            out |= 1 << x
    return out
