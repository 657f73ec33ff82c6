"""The converse a relation keeps once asked for it."""

import pytest

from oracles import kept_value
from proxlat.bitset import transpose
from proxlat.errors import DimensionMismatch
from proxlat.relations import Relation, relation_from_pairs


def test_converse_is_kept_and_equals_a_fresh_transpose(corpus):
    for name, p in corpus.items():
        r = Relation(p.size, p.size, p.R.rows)
        conv = r.converse()
        assert r.converse() is conv, name
        assert conv == Relation(p.size, p.size, transpose(r.rows, p.size)), name
        # the converse holds no link back to r until it is asked itself
        assert kept_value(conv, Relation.converse) is None, name


def test_memo_is_invisible_to_equality_and_hash():
    pairs = [(0, 1), (1, 2), (0, 2)]
    asked = relation_from_pairs(3, 3, pairs)
    asked.converse()
    fresh = relation_from_pairs(3, 3, pairs)
    assert kept_value(fresh, Relation.converse) is None
    assert asked == fresh and hash(asked) == hash(fresh)
    assert asked.converse().converse() == fresh


def test_converse_of_a_rectangular_relation():
    r = relation_from_pairs(2, 3, [(0, 2), (1, 0), (1, 2)])
    conv = r.converse()
    assert (conv.source_size, conv.target_size) == (3, 2)
    assert sorted(conv.pairs()) == [(0, 1), (2, 0), (2, 1)]
    assert r.preimage(0b100) == conv.image(0b100) == 0b11


def test_image_of_a_mask_outside_the_carrier(corpus):
    conv = corpus["C3"].R.converse()
    r = relation_from_pairs(2, 3, [(0, 2), (1, 0)])
    for bad in (1 << 5, 0b1000, -1):
        with pytest.raises(DimensionMismatch):
            conv.image(bad)
        with pytest.raises(DimensionMismatch):
            conv.preimage(bad)
    # image reads the source carrier, preimage the target one
    assert r.image(0b11) == 0b101 and r.preimage(0b111) == 0b11
    with pytest.raises(DimensionMismatch):
        r.image(0b100)


def test_rows_are_checked_against_the_target_carrier():
    with pytest.raises(DimensionMismatch, match="row mask exceeds target"):
        Relation(2, 3, (0b1, -1))
    with pytest.raises(DimensionMismatch, match="row mask exceeds target"):
        Relation(2, 3, (0b1000, 0b1))
    assert Relation(2, 3, (0b111, 0)).has(0, 2)


def test_a_relation_from_an_empty_source():
    r = Relation(0, 3, ())
    assert r.is_empty() and list(r.pairs()) == []
    assert r.converse() == Relation(3, 0, (0, 0, 0))
    with pytest.raises(DimensionMismatch, match="one row per source"):
        Relation(0, 3, (0,))
