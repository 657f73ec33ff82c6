"""Bitmask helpers.

Carriers are index sets 0..n-1 and subsets are plain ints, one bit per
element. Everything downstream (orders, relations, closures) is AND/OR
arithmetic on these masks.
"""

from __future__ import annotations

from typing import Iterator, Sequence


# the positions of every byte-sized mask, so small carriers skip the loop
_SMALL = tuple(tuple(i for i in range(8) if m >> i & 1) for m in range(256))
# _BYTES[k][m]: the same positions for byte m at byte position k, 8k + i
# for each bit i of m, so masks up to 64 bits wide (the carriers proxlat
# scales to) are read off eight tables, the first of them _SMALL
_BYTES = (_SMALL,) + tuple(tuple(tuple([8 * k + i for i in t]) for t in _SMALL)
                           for k in range(1, 8))


def bits(mask: int) -> Iterator[int]:
    """The set bit positions of `mask` in increasing order, as an
    iterator.

    Masks below 256 are read off one table, and wider ones a byte at a
    time by _wide_bits. A negative mask has infinitely many set bits
    and raises ValueError.
    """
    if 0 <= mask < 256:
        return iter(_SMALL[mask])
    return _wide_bits(mask)


def _wide_bits(mask: int) -> Iterator[int]:
    """bits for masks outside 0..255, kept apart so that the table
    lookup above runs in a frame with one local. Zero bytes are
    skipped; the positions of byte k come from the table for byte
    position k, or for k >= 8 from the byte's own positions plus 8k."""
    if mask < 0:
        raise ValueError(f"bits of a negative mask: {mask}")
    out = []
    width = (mask.bit_length() + 7) >> 3
    for k, byte in enumerate(mask.to_bytes(width, "little")):
        if byte:
            if k < 8:
                out += _BYTES[k][byte]
            else:
                out += [8 * k + i for i in _SMALL[byte]]
    return iter(out)


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
