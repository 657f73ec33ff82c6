"""The bit-position iterator against the plain loop over positions, and
the bit-matrix transpose against the loop over set bits."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import transpose_by_loop
from proxlat.bitset import bits, preimage, transpose
from proxlat.canext import pi_extension, sigma_extension
from proxlat.lattice import lattice_from_up, opposite
from proxlat.proximity import proximity_lattice
from proxlat.relations import order_relation


def positions(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_bits_against_the_loop():
    rng = random.Random(64)
    masks = list(range(1 << 10)) + [255, 256, (1 << 64) - 1]
    masks += [rng.getrandbits(rng.randint(1, 64)) for _ in range(2000)]
    # wider than the per-byte tables: byte offsets past position 7
    masks += [rng.getrandbits(rng.randint(65, 200)) for _ in range(500)]
    # every byte boundary up to 200 bits, and the bits around 64
    for k in range(1, 26):
        masks += [(1 << 8 * k) - 1, 1 << 8 * k, (1 << 8 * k) + 1]
    masks += [1 << 63, 1 << 64, 1 << 200]
    for mask in masks:
        found = bits(mask)
        assert iter(found) is found, mask
        assert list(found) == positions(mask), mask


def test_bits_yields_lowest_first():
    for mask in (0b1010, 255, 256, 1 << 40 | 1 << 3):
        assert next(bits(mask)) == positions(mask)[0]


@pytest.mark.parametrize("mask", [-1, -(1 << 70)])
def test_bits_refuses_a_negative_mask(mask):
    with pytest.raises(ValueError):
        bits(mask)


@st.composite
def bit_matrices(draw):
    """(rows, width) with both sides in 0..72, rows all zero, all full
    or random."""
    count = draw(st.integers(0, 72))
    width = draw(st.integers(0, 72))
    fill = draw(st.sampled_from(("random", "zero", "full")))
    if fill == "zero":
        return [0] * count, width
    if fill == "full":
        return [(1 << width) - 1] * count, width
    return draw(st.lists(st.integers(0, (1 << width) - 1),
                         min_size=count, max_size=count)), width


@settings(derandomize=True, max_examples=600, deadline=None)
@given(bit_matrices())
def test_transpose_against_the_loop(matrix):
    rows, width = matrix
    assert transpose(rows, width) == transpose_by_loop(rows, width)


# where the packed side changes: loop | 16 | 32 | 64 | loop
BOUNDARIES = (8, 9, 16, 17, 32, 33, 64, 65)


def test_transpose_at_every_boundary():
    rng = random.Random(65)
    for side in BOUNDARIES:
        for count, width in ((side, side), (side, 1), (1, side), (side, 3),
                             (5, side), (side, side - 1), (side - 1, side)):
            full = (1 << width) - 1
            for rows in ([rng.getrandbits(width) for _ in range(count)],
                         [0] * count, [full] * count,
                         [1 << a % width for a in range(count)]):
                assert transpose(rows, width) == \
                    transpose_by_loop(rows, width), (count, width)
    for width in (0, 9, 40, 64, 65):  # no rows: every column empty
        assert transpose([], width) == (0,) * width


@pytest.mark.parametrize("count", [3, 12, 40, 64, 70])
def test_transpose_refuses_what_the_loop_refuses(count):
    width = min(count, 64)
    good = [(1 << width) - 1] * count
    for at in (0, count - 1):
        past = good[:at] + [1 << width] + good[at + 1:]
        with pytest.raises(IndexError):
            transpose(past, width)
        negative = good[:at] + [-1] + good[at + 1:]
        with pytest.raises(ValueError):
            transpose(negative, width)


def wide_lattices():
    """The corpus lattices, the chains and Boolean lattices around the
    packed sides, and the pi and sigma extensions of their order
    proximities, each with its opposite."""
    chains = [lattice_from_up([f"c{i}" for i in range(n)],
                              [((1 << n) - 1) & ~((1 << i) - 1)
                               for i in range(n)]) for n in (9, 17, 33, 64)]
    booleans = [lattice_from_up([f"s{i}" for i in range(1 << k)],
                                [sum(1 << j for j in range(1 << k) if i & j == i)
                                 for i in range(1 << k)]) for k in (4, 5, 6)]
    out = []
    for lat in chains + booleans:
        p = proximity_lattice(lat, order_relation(lat))
        out += [lat, pi_extension(p).C, sigma_extension(p).C]
    return out


def test_one_transpose_is_a_family_of_preimages(corpus):
    rng = random.Random(16)
    lattices = wide_lattices()
    for p in corpus.values():
        lattices += [p.lattice, pi_extension(p).C]
    for lat in lattices:
        for c in (lat, opposite(lat)):
            n = c.size
            tables = [tuple(range(n)), tuple(reversed(range(n))), (), (c.top,)]
            tables += [tuple(rng.randrange(n) for _ in range(rng.randint(1, 72)))
                       for _ in range(6)]
            for table in tables:
                above = transpose([c.down[t] for t in table], n)
                below = transpose([c.up[t] for t in table], n)
                for y in range(n):
                    assert above[y] == preimage(table, c.up[y]), (n, table, y)
                    assert below[y] == preimage(table, c.down[y]), (n, table, y)
