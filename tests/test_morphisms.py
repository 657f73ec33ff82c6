"""Morphism classification, category laws, functors, and transposes."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    lattice_ideal_witnesses_by_join,
    proximity_by_round_sets,
    verify_morphism_exhaustive,
)
from proxlat.errors import DimensionMismatch, NotAJMorphism, TransposeError
from proxlat.lattice import LatticeMap, compose_maps, is_homomorphism
from proxlat.proximity import (
    IdealValuedHom,
    all_j_morphisms,
    all_proximity_morphisms,
    hom_as_morphism,
    ideal_lattice_hom,
    identity_morphism,
    increasing_presentation,
    morph_compose,
    order_proximity,
    proximity_morphism,
    round_ideal_masks,
    transpose_to_hom,
    transpose_to_morphism,
    verify_morphism,
)
from proxlat.relations import (
    Relation,
    compose,
    empty_relation,
    full_relation,
    order_relation,
)


def small_pairs(corpus):
    """Ordered fixture pairs whose relation space is small enough to
    enumerate completely."""
    out = []
    for (na, a), (nb, b) in itertools.product(corpus.items(), repeat=2):
        if a.size * b.size <= 9:
            out.append((na, a, nb, b))
    return out


def test_identity_is_converse_of_r(corpus):
    for name, p in corpus.items():
        ident = identity_morphism(p)
        assert ident.T == p.R.converse(), name
        assert ident.is_j


def test_identity_examples(corpus):
    c2 = corpus["C2"]
    assert identity_morphism(c2).T.rows == c2.lattice.down
    c3r = corpus["C3R"]
    ident = identity_morphism(c3r).T
    assert compose(ident, ident) == ident


def test_identity_laws_and_composition_closure(corpus):
    dist = {k: v for k, v in corpus.items() if v.distributive}
    morphisms = {}
    for (na, a), (nb, b) in itertools.product(dist.items(), repeat=2):
        morphisms[(na, nb)] = all_j_morphisms(a, b)
    for (na, nb), ts in morphisms.items():
        ident_a = identity_morphism(dist[na])
        ident_b = identity_morphism(dist[nb])
        for t in ts:
            assert morph_compose(ident_a, t).T == t.T
            assert morph_compose(t, ident_b).T == t.T
    # composite of j-morphisms is a j-morphism
    for (na, nb), ts in morphisms.items():
        for (nc, nd), us in morphisms.items():
            if nb != nc:
                continue
            for t in ts:
                for u in us:
                    assert morph_compose(t, u).is_j


def test_morphism_characterisations_agree_exhaustively(corpus):
    # raw axioms against the round-subset characterisation over every
    # relation on every small corpus pair; the row and column witnesses
    # against the join-and-compare loops they were once found by
    for na, a, nb, b in small_pairs(corpus):
        for cells in range(1 << (a.size * b.size)):
            rows = tuple((cells >> (i * b.size)) & ((1 << b.size) - 1)
                         for i in range(a.size))
            rel = Relation(a.size, b.size, rows)
            report = verify_morphism(a, b, rel)
            assert report.proximity == \
                proximity_by_round_sets(a, b, rel), (na, nb, rows)
            assert [w for w in report.witnesses
                    if w[0] in ("row_ideal", "column_filter")] == \
                lattice_ideal_witnesses_by_join(a, b, rel), (na, nb, rows)


def test_binary_vs_exhaustive_approximability(corpus):
    for na, a, nb, b in small_pairs(corpus):
        for cells in range(1 << (a.size * b.size)):
            rows = tuple((cells >> (i * b.size)) & ((1 << b.size) - 1)
                         for i in range(a.size))
            rel = Relation(a.size, b.size, rows)
            fast = verify_morphism(a, b, rel)
            if not fast.proximity:
                continue
            slow = verify_morphism_exhaustive(a, b, rel)
            assert fast.join_approximable == slow.join_approximable
            assert fast.meet_approximable == slow.meet_approximable


@settings(max_examples=120, deadline=None)
@given(st.tuples(*(st.integers(0, 15) for _ in range(4))))
def test_approximability_reduction_sampled_on_b2(rows):
    # the binary+empty reduction for the approximability conditions,
    # sampled on the largest corpus pair (exhaustive coverage of the
    # small pairs lives in test_binary_vs_exhaustive_approximability)
    from proxlat.fixtures import load
    b2 = load("B2")
    rel = Relation(4, 4, rows)
    fast = verify_morphism(b2, b2, rel)
    if fast.proximity:
        slow = verify_morphism_exhaustive(b2, b2, rel)
        assert fast.join_approximable == slow.join_approximable
        assert fast.meet_approximable == slow.meet_approximable


def test_morphism_examples(corpus):
    c3r = corpus["C3R"]
    ident = verify_morphism(c3r, c3r, c3r.R.converse())
    assert ident.proximity and ident.j_morphism and ident.m_morphism

    c2 = corpus["C2"]
    geq = verify_morphism(c2, c2, c2.R.converse())
    assert geq.proximity and geq.j_morphism

    nothing = verify_morphism(c2, c2, empty_relation(2, 2))
    assert not nothing.proximity  # empty rows are not round ideals

    # the full relation is a proximity morphism but not a j-morphism
    full = verify_morphism(c2, c2, full_relation(2, 2))
    assert full.proximity and not full.j_morphism


def test_hom_as_morphism(corpus):
    c2 = corpus["C2"].lattice
    b2 = corpus["B2"].lattice
    ident = hom_as_morphism(LatticeMap(c2, c2, (0, 1)))
    assert ident.is_j
    assert ident.T == order_relation(c2).converse()

    const_top = hom_as_morphism(LatticeMap(c2, c2, (1, 1)))
    assert const_top.is_proximity and not const_top.is_j

    # projecting one coordinate of the square onto the chain
    proj = hom_as_morphism(LatticeMap(b2, c2, (0, 1, 0, 1)))
    assert proj.is_j


def test_hom_as_morphism_is_functorial(corpus):
    lattices = [corpus[k].lattice for k in ("C2", "C3", "B2")]

    def all_homs(a, b):
        for table in itertools.product(range(b.size), repeat=a.size):
            f = LatticeMap(a, b, table)
            if is_homomorphism(f):
                yield f

    for a, b, c in itertools.product(lattices, repeat=3):
        for h in all_homs(a, b):
            for k in all_homs(b, c):
                lhs = hom_as_morphism(compose_maps(h, k))
                rhs = morph_compose(hom_as_morphism(h), hom_as_morphism(k))
                assert lhs.T == rhs.T


def test_homomorphism_iff_j_morphism(corpus):
    c2 = corpus["C2"].lattice
    c3 = corpus["C3"].lattice
    for table in itertools.product(range(c2.size), repeat=c3.size):
        f = LatticeMap(c3, c2, table)
        assert is_homomorphism(f) == hom_as_morphism(f).is_j


def test_ideal_lattice_hom(corpus):
    c3r = corpus["C3R"]
    ident = identity_morphism(c3r)
    pushed = ideal_lattice_hom(ident)
    assert pushed.map.table == tuple(range(pushed.map.source.size))

    c2 = corpus["C2"]
    pushed2 = ideal_lattice_hom(identity_morphism(c2))
    assert pushed2.map.table == tuple(range(2))

    # image computation for the non-morphism relation R itself: the round
    # ideal {0} is carried onto the full carrier, but R is not even a
    # proximity morphism, so the functor rejects it
    r_as_t = proximity_morphism(c3r, c3r, c3r.R)
    assert not r_as_t.is_proximity
    assert c3r.R.image(0b001) == 0b111
    with pytest.raises(NotAJMorphism):
        ideal_lattice_hom(r_as_t)


def test_ideal_lattice_hom_on_corpus_j_morphisms(corpus):
    dist = {k: v for k, v in corpus.items() if v.distributive}
    for (na, a), (nb, b) in itertools.product(dist.items(), repeat=2):
        for t in all_j_morphisms(a, b):
            pushed = ideal_lattice_hom(t)
            assert is_homomorphism(pushed.map)


def test_transpose_unit(corpus):
    c2 = corpus["C2"]
    ident = identity_morphism(c2)
    f = transpose_to_hom(ident)
    # a maps to its down-set ideal
    assert f.values == tuple(c2.lattice.down)


def test_transpose_round_trips(corpus):
    for name, p in corpus.items():
        src = order_proximity(corpus["C3"].lattice)
        for t in all_j_morphisms(src, p):
            f = transpose_to_hom(t)
            back = transpose_to_morphism(f)
            assert back.T == t.T
            assert transpose_to_hom(back).values == f.values


def test_transpose_rejects_empty_valued_map(corpus):
    c2 = corpus["C2"]
    bad = IdealValuedHom(c2.lattice, c2, (0, 0))
    with pytest.raises(TransposeError):
        transpose_to_morphism(bad)


def test_a_short_table_is_refused_by_dimension(corpus):
    # one value for a two-element source: refused where the map of
    # round-ideal indices is built, as is a short lattice map before
    # hom_as_morphism reads it
    c2 = corpus["C2"]
    with pytest.raises(DimensionMismatch):
        transpose_to_morphism(IdealValuedHom(c2.lattice, c2, (1,)))
    with pytest.raises(DimensionMismatch):
        hom_as_morphism(LatticeMap(c2.lattice, c2.lattice, (0,)))


def test_transpose_rejects_non_order_source(corpus):
    c3r = corpus["C3R"]
    with pytest.raises(TransposeError):
        transpose_to_hom(identity_morphism(c3r))


def test_increasing_presentation_compositions(corpus):
    for name, p in corpus.items():
        pres = increasing_presentation(p)
        assert pres.output.increasing and pres.output.join_strong
        assert compose(pres.phi.T, pres.psi.T) == p.R.converse()
        assert compose(pres.psi.T, pres.phi.T) == pres.ideals.way_below.converse()


def test_increasing_presentation_examples(corpus):
    full2 = increasing_presentation(corpus["FULL2"])
    assert full2.output.size == 1
    assert compose(full2.phi.T, full2.psi.T) == corpus["FULL2"].R.converse()

    c2 = increasing_presentation(corpus["C2"])
    assert c2.output.reflexive  # output relation is the inclusion order

    # measured on the 2-chain of ideals: way-below is inclusion here,
    # since both ideals sit inside a principal preimage; the output is
    # the order proximity lattice on the two-chain
    c3r = increasing_presentation(corpus["C3R"])
    assert c3r.output.size == 2
    assert c3r.output.reflexive
    assert c3r.output.R == order_relation(c3r.output.lattice)


def test_proximity_morphism_enumeration_counts(corpus):
    c2 = corpus["C2"]
    all_t = all_proximity_morphisms(c2, c2)
    assert len(all_t) >= len(all_j_morphisms(c2, c2))
    # every enumerated candidate row is a round ideal of the target
    masks = set(round_ideal_masks(c2))
    for t in all_t:
        assert set(t.T.rows) <= masks
