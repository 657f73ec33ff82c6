"""Bitmask helpers.

Carriers are index sets 0..n-1 and subsets are plain ints, one bit per
element. Everything downstream (orders, relations, closures) is AND/OR
arithmetic on these masks.

A list of masks is a bit matrix, and `transpose` reads it by columns.
Up to side 8 (the larger of the row count and the width) and past side
64 it loops over the set bits, those of a row below 256 read off the
byte table without a call. From side 9 to 64 it packs the matrix,
padded to side s = 16, 32 or 64, into one s*s-bit int, row r at bits
r*s .. r*s+s-1, and transposes it in log2(s) delta swaps (Warren,
Hacker's Delight, 2nd ed., section 7-3): swap j exchanges the bit at
(r, c) with the one at (r+j, c-j) wherever bit j of r is clear and bit
j of c is set. The masks of those swaps are built at import from a byte
pattern and one multiplication each, in well under a millisecond for
all three sizes.
"""

from __future__ import annotations

import struct
from typing import Callable, Iterator, Sequence


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


def _swaps(s: int) -> tuple[tuple[int, int], ...]:
    """(shift, mask) of each delta swap that transposes an s-by-s
    matrix packed row by row, s a multiple of 8: for j = s/2, ..., 1 the
    mask holds (r, c) with bit j of r clear and bit j of c set, and the
    shift j*(s-1) carries (r, c) to (r+j, c-j)."""
    out = []
    first, blank = b"\x01" + bytes((s >> 3) - 1), bytes(s >> 3)  # one row each
    j = s >> 1
    while j:
        # every row: the columns with bit j set
        cols = ((1 << s) - 1) // ((1 << 2 * j) - 1) * (((1 << j) - 1) << j)
        # bit 0 of each row with bit j clear
        firsts = int.from_bytes((first * j + blank * j) * (s // (2 * j)),
                                "little")
        out.append((j * (s - 1), cols * firsts))
        j >>= 1
    return tuple(out)


# side s -> the little-endian layout of s rows of s bits, and its swaps
_PACKED = {s: (struct.Struct(f"<{s}{code}"), _swaps(s))
           for s, code in ((16, "H"), (32, "I"), (64, "Q"))}
_ZEROS = (0,) * 64


def transpose(rows: Sequence[int], width: int) -> tuple[int, ...]:
    """The bit matrix read by columns: out[b] = {a : b in rows[a]}.

    A negative row raises ValueError and a row with a bit at or past
    `width` IndexError, both from the loop."""
    n = len(rows)
    side = n if n > width else width
    if side <= 8 or side > 64 or not n or min(rows) < 0 or max(rows) >> width:
        cols = [0] * width
        for a, row in enumerate(rows):
            for b in _SMALL[row] if 0 <= row < 256 else bits(row):
                cols[b] |= 1 << a
        return tuple(cols)
    s = 16 if side <= 16 else 32 if side <= 32 else 64
    layout, swaps = _PACKED[s]
    x = int.from_bytes(layout.pack(*rows, *_ZEROS[n:s]), "little")
    for shift, mask in swaps:
        t = (x ^ x >> shift) & mask
        x ^= t ^ t << shift
    return layout.unpack(x.to_bytes(s * s >> 3, "little"))[:width]


def rows_of_pairs(pairs, n: int, width: int,
                  refuse: Callable[[int, int], Exception]) -> list[int]:
    """The bit matrix of index pairs: out[a] holds b for each (a, b).
    A pair outside 0..n-1 by 0..width-1 raises refuse(a, b)."""
    rows = [0] * n
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < width):
            raise refuse(a, b)
        rows[a] |= 1 << b
    return rows


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
