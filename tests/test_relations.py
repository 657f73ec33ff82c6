"""The converse a relation keeps once asked for it, and the checked
constructor against the dataclass __post_init__ it replaced."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import RelationByPostInit, kept_value
from proxlat.bitset import transpose
from proxlat.errors import DimensionMismatch
from proxlat.proximity import _pending_report, verify_axioms
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


def _built(cls, *args, **kwargs):
    """(type, message) of what building raises, else the instance."""
    try:
        return cls(*args, **kwargs)
    except Exception as exc:
        return type(exc), str(exc)


def assert_same_build(got, want):
    """Both raised the same exception type and message, or both built
    relations with the same fields, hash and repr."""
    if isinstance(want, tuple):
        assert got == want
        return
    assert isinstance(got, Relation), got
    name = type(want).__name__
    assert dataclasses.astuple(got) == dataclasses.astuple(want)
    assert hash(got) == hash(want)
    assert repr(got) == repr(want).replace(name, "Relation", 1)


# sizes around the carriers, negative ones too; rows from below 0 to
# past the widest carrier drawn, in lists of any length up to 10
sizes = st.integers(min_value=-2, max_value=9)
row_lists = st.lists(st.integers(min_value=-3, max_value=(1 << 10) + 2),
                     max_size=10)


@settings(max_examples=600, deadline=None)
@given(sizes, sizes, row_lists, st.booleans())
def test_constructor_agrees_with_the_post_init_oracle(source_size,
                                                      target_size, rows,
                                                      one_per_row):
    # the rows as drawn, and each cut to the target carrier
    if one_per_row:
        source_size = len(rows)
    fitted = tuple(r & ((1 << max(target_size, 0)) - 1) for r in rows)
    for args in ((source_size, target_size, tuple(rows)),
                 (source_size, target_size, fitted)):
        assert_same_build(_built(Relation, *args),
                          _built(RelationByPostInit, *args))


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=6), st.data())
def test_replace_checks_as_the_oracle_does(size, data):
    """dataclasses.replace builds through the one constructor, so a
    replaced field is checked as a new relation's would be."""
    rows = tuple(data.draw(st.integers(0, (1 << size) - 1))
                 for _ in range(size))
    rel = Relation(size, size, rows)
    oracle = RelationByPostInit(size, size, rows)
    changes = data.draw(st.fixed_dictionaries({}, optional={
        "source_size": sizes, "target_size": sizes,
        "rows": row_lists.map(tuple)}))
    assert_same_build(_built(dataclasses.replace, rel, **changes),
                      _built(dataclasses.replace, oracle, **changes))


def test_the_edge_cases_raise_as_before():
    # a negative target size fails its shift, whatever the rows
    for args in ((0, -1, ()), (2, -1, (0, 0))):
        with pytest.raises(ValueError, match="negative shift count"):
            Relation(*args)
    # the row count is checked first
    with pytest.raises(DimensionMismatch, match="one row per source"):
        Relation(1, -1, ())
    with pytest.raises(DimensionMismatch, match="row mask exceeds target"):
        dataclasses.replace(Relation(2, 3, (1, 2)), rows=(1, 8))
    with pytest.raises(dataclasses.FrozenInstanceError):
        Relation(1, 1, (1,)).rows = (0,)


@pytest.mark.parametrize("code", [Relation.__init__.__code__,
                                  verify_axioms.__code__,
                                  _pending_report.__code__],
                         ids=lambda c: c.co_qualname)
def test_per_relation_builds_make_no_cells(code):
    """Each relation of a census is built and judged by these, so none
    makes a cell for a local on its calls."""
    assert code.co_cellvars == ()
