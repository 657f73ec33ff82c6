"""The bit-position iterator against the plain loop over positions."""

import random

import pytest

from proxlat.bitset import bits


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
