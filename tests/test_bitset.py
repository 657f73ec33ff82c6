"""The bit-position iterator against the plain loop over positions."""

import random

from proxlat.bitset import bits


def positions(mask):
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_bits_against_the_loop():
    rng = random.Random(64)
    masks = list(range(1 << 10)) + [255, 256, (1 << 64) - 1]
    masks += [rng.getrandbits(rng.randint(1, 64)) for _ in range(2000)]
    for mask in masks:
        found = bits(mask)
        assert iter(found) is found, mask
        assert list(found) == positions(mask), mask


def test_bits_yields_lowest_first():
    for mask in (0b1010, 255, 256, 1 << 40 | 1 << 3):
        assert next(bits(mask)) == positions(mask)[0]
