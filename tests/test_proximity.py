"""Axiom checks, round subsets, and the round-ideal lattice."""

import dataclasses
import gc
import itertools
import json
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxlat import fixtures, proximity
from proxlat.bitset import bits, is_subset, transpose
from proxlat.canext import pi_extension, sigma_extension
from proxlat.errors import (
    DimensionMismatch,
    InternalCheckError,
    InvalidRoundSubset,
    NotAProximityLattice,
    NotDistributive,
    NotJoinStrong,
)
from proxlat.fixtures import CORPUS
from proxlat.formats import proximity_from_doc
from proxlat.lattice import _order_isomorphism, lattice_from_up, opposite
from proxlat.proximity import (
    ProximityLattice,
    RoundSubset,
    all_proximity_morphisms,
    is_round_filter,
    is_round_ideal,
    opposite_proximity,
    proximity_lattice,
    round_filter_masks,
    round_ideal_lattice,
    round_ideal_masks,
    round_subsets,
    verify_axioms,
)
from proxlat.spectra import (
    all_posets,
    canext_via_duality,
    prime_filter_between,
    spectrum,
)
from oracles import (
    kept_value,
    round_subsets_slow,
    smallest_round_ideal_containing,
    verify_axioms_exhaustive,
    verify_morphism_exhaustive,
)
from proxlat.relations import (
    Relation,
    compose,
    empty_relation,
    order_relation,
    relation_from_pairs,
)


def test_fixture_flags_exact(corpus):
    expected = {
        "C2": dict(join_strong=True, meet_strong=True, increasing=True,
                   reflexive=True, distributive=True),
        "C3": dict(join_strong=True, meet_strong=True, increasing=True,
                   reflexive=True, distributive=True),
        "B2": dict(join_strong=True, meet_strong=True, increasing=True,
                   reflexive=True, distributive=True),
        "M3": dict(join_strong=True, meet_strong=True, increasing=True,
                   reflexive=True, distributive=False),
        "FULL2": dict(join_strong=True, meet_strong=True, increasing=False,
                      reflexive=True, distributive=True),
        "C3R": dict(join_strong=True, meet_strong=True, increasing=True,
                    reflexive=False, distributive=True),
    }
    for name, flags in expected.items():
        report = corpus[name].report
        assert report.axioms_ok, name
        for key, value in flags.items():
            assert getattr(report, key) == value, (name, key)


def test_failure_witnesses(corpus):
    c3r = corpus["C3R"].report
    assert c3r.witness("reflexive") == (1,)  # the middle element
    full2 = corpus["FULL2"].report
    assert full2.witness("increasing") == (1, 0)


def test_axioms_idempotence_iff_composition_fixpoint(corpus):
    for p in corpus.values():
        assert compose(p.R, p.R) == p.R


def test_compose_examples(corpus):
    c2 = corpus["C2"]
    assert compose(c2.R, c2.R) == c2.R  # transitivity of the order
    c3r = corpus["C3R"]
    assert compose(c3r.R, c3r.R) == c3r.R
    e = empty_relation(2, 2)
    assert compose(e, c2.R).is_empty()


def test_compose_dimension_mismatch():
    r = relation_from_pairs(2, 3, [(0, 0)])
    s = relation_from_pairs(2, 2, [(0, 0)])
    with pytest.raises(DimensionMismatch):
        compose(r, s)


def test_invalid_relation_rejected(corpus):
    c3 = corpus["C3"].lattice
    # missing bottom row entries break join compatibility
    bad = relation_from_pairs(3, 3, [(0, 0), (1, 1), (2, 2)])
    with pytest.raises(NotAProximityLattice):
        proximity_lattice(c3, bad)


def test_mu_and_the_opposite_are_kept(corpus):
    for name, p in corpus.items():
        fresh = ProximityLattice(p.lattice, Relation(p.size, p.size, p.R.rows),
                                 p.report)
        mu = fresh.mu
        assert fresh.mu is mu, name
        op = opposite_proximity(fresh)
        assert opposite_proximity(fresh) is op, name
        # the opposite holds no link back to its carrier
        assert kept_value(op, opposite_proximity) is None, name
        assert round_ideal_masks(op) == round_filter_masks(fresh), name
        # its mu, the nu of fresh, is read off the rows of R, so R^-1
        # is not transposed back
        assert kept_value(op.R, Relation.converse) is None, name


def test_building_the_opposite_decides_nothing(monkeypatch):
    """The opposite's report, like one from verify_axioms, leaves its
    strongness and shape fields to the first read, and building it reads
    no such field of the carrier's report; so dualize decides neither."""
    from test_golden_cli import GOLDEN, call, sha256

    for name in CORPUS:
        p = proximity_from_doc(fixtures.document(name))
        op = opposite_proximity(p)
        assert "_pending" in vars(p.report), name
        assert "_pending" in vars(op.report), name
        join_strong = op.join_strong
        assert "_pending" not in vars(op.report), name
        assert "_pending" in vars(p.report), name
        assert join_strong == p.meet_strong, name

    def refuse(report):
        raise AssertionError("a deferred field was decided")

    monkeypatch.setattr(proximity, "_decide_rest", refuse)
    golden = json.loads(GOLDEN.read_text())
    for name in CORPUS:
        code, stdout = call(["dualize", name])
        assert {"exit": code, "sha256": sha256(stdout)} == \
            golden[f"{name} dualize"] and code == 0, name


def test_carrier_memos_are_invisible_to_equality_and_hash(corpus):
    p = corpus["C3R"]
    asked = ProximityLattice(p.lattice, p.R, p.report)
    asked.mu
    opposite_proximity(asked)
    canext_via_duality(asked)  # keeps the spectrum and the pi build too
    assert None not in (kept_value(asked, pi_extension),
                         kept_value(asked, spectrum),
                         kept_value(asked, canext_via_duality))
    fresh = ProximityLattice(p.lattice, p.R, p.report)
    assert all(kept_value(fresh, build) is None for build in (
        ProximityLattice.mu, opposite_proximity, pi_extension, spectrum,
        canext_via_duality))
    assert asked == fresh and hash(asked) == hash(fresh)
    assert repr(asked) == repr(fresh)
    assert opposite_proximity(asked) == opposite_proximity(fresh)


def test_kept_builds_equal_fresh_builds(corpus):
    for name, p in corpus.items():
        kept = dataclasses.replace(p)
        builds = (pi_extension, spectrum, canext_via_duality) \
            if p.distributive else (pi_extension,)
        for build in builds:
            first = build(kept)
            assert build(kept) is first, (name, build.__name__)
            assert first == build(dataclasses.replace(p)), (name, build.__name__)
        # sigma runs through the pi build kept on the kept opposite, so
        # its C is the opposite kept on that build's C
        op = opposite_proximity(kept)
        assert sigma_extension(kept).C \
            is opposite(kept_value(op, pi_extension).C) \
            is opposite(pi_extension(op).C), name
        if p.distributive:
            result = canext_via_duality(kept)
            assert result.pi_ext is kept_value(kept, pi_extension), name
            assert result.spectrum is kept_value(kept, spectrum), name


def test_a_build_that_raises_keeps_nothing(corpus, monkeypatch):
    # x R y iff x = 0 or y = 1 on B2: distributive, not join-strong
    b2 = corpus["B2"].lattice
    p = proximity_lattice(b2, Relation(4, 4, (15, 8, 8, 8)))
    assert p.distributive and not p.join_strong
    for _ in range(2):  # and the next call raises again
        with pytest.raises(NotJoinStrong):
            pi_extension(p)
        # named before the saturated-set realization is built
        with pytest.raises(NotJoinStrong):
            canext_via_duality(p)
    assert kept_value(p, pi_extension) is None
    assert kept_value(p, canext_via_duality) is None
    # the spectrum returned inside the duality build, so it is kept
    assert kept_value(p, spectrum) is spectrum(p)

    m3 = dataclasses.replace(corpus["M3"])
    for _ in range(2):
        with pytest.raises(NotDistributive):
            spectrum(m3)
        with pytest.raises(NotDistributive):
            canext_via_duality(m3)
    assert kept_value(m3, spectrum) is None
    assert kept_value(m3, canext_via_duality) is None

    import proxlat.canext as canext
    c3r = dataclasses.replace(corpus["C3R"])
    with monkeypatch.context() as m:
        m.setattr(canext, "is_homomorphism", lambda hom: False)
        for _ in range(2):
            with pytest.raises(InternalCheckError, match="not a homomorphism"):
                pi_extension(c3r)
            with pytest.raises(InternalCheckError, match="not a homomorphism"):
                canext_via_duality(c3r)
        assert kept_value(c3r, pi_extension) is None
        assert kept_value(c3r, canext_via_duality) is None
    assert canext_via_duality(c3r).pi_ext == pi_extension(corpus["C3R"])


def test_a_dropped_carrier_is_collected(corpus):
    p = dataclasses.replace(corpus["C3R"])
    canext_via_duality(p)
    sigma_extension(p)
    assert None not in (kept_value(p, pi_extension), kept_value(p, spectrum),
                         kept_value(p, canext_via_duality),
                         kept_value(opposite_proximity(p), pi_extension))
    ref = weakref.ref(p)
    del p
    gc.collect()
    assert ref() is None


def test_verify_axioms_keeps_the_columns_only_of_a_proximity_relation(corpus):
    """The columns verify_axioms reads become the converse of a relation
    that passes, and one that fails keeps nothing."""
    c3 = corpus["C3"].lattice
    kept = 0
    for rows in itertools.product(range(8), repeat=3):
        rel = Relation(3, 3, rows)
        report = verify_axioms(c3, rel)
        if report.axioms_ok:
            kept += 1
            conv = kept_value(rel, Relation.converse)
            assert conv == Relation(3, 3, transpose(rows, 3)), rows
            assert rel.converse() is conv
            verify_axioms(c3, rel)
            assert rel.converse() is conv
        else:
            assert kept_value(rel, Relation.converse) is None, rows
    assert kept == 5


def test_hand_built_carrier_with_a_column_that_is_not_principal(corpus):
    c3 = corpus["C3"].lattice  # 0 < a < 1
    # column a is {a}, which lacks 0; row 0 is {0, 1}, not an up-set
    rel = relation_from_pairs(3, 3, [(0, 0), (0, 2), (1, 1), (2, 2)])
    p = ProximityLattice(c3, rel, verify_axioms(c3, rel))
    with pytest.raises(NotAProximityLattice, match="column 'a' of R"):
        round_ideal_masks(p)
    with pytest.raises(NotAProximityLattice, match="column '0' of R"):
        round_filter_masks(p)


def test_round_subsets_examples(corpus):
    c2 = corpus["C2"]
    assert round_ideal_masks(c2) == (0b01, 0b11)
    c3r = corpus["C3R"]
    assert round_ideal_masks(c3r) == (0b001, 0b111)
    assert round_filter_masks(c3r) == (0b100, 0b111)
    full2 = corpus["FULL2"]
    assert round_ideal_masks(full2) == (0b11,)
    assert round_filter_masks(full2) == (0b11,)


def test_round_subsets_match_slow_enumeration(corpus):
    for name, p in corpus.items():
        assert round_ideal_masks(p) == round_subsets_slow(p, "ideal"), name
        assert round_filter_masks(p) == round_subsets_slow(p, "filter"), name


def test_round_subset_invariants(corpus):
    for p in corpus.values():
        for sub in round_subsets(p, "ideal"):
            assert p.R.preimage(sub.members) == sub.members
            for a in bits(sub.members):
                for b in bits(sub.members):
                    assert sub.members >> p.lattice.join[a][b] & 1
        for sub in round_subsets(p, "filter"):
            assert p.R.image(sub.members) == sub.members
            for a in bits(sub.members):
                for b in bits(sub.members):
                    assert sub.members >> p.lattice.meet[a][b] & 1


def test_round_ideal_lattice_examples(corpus):
    c2 = round_ideal_lattice(corpus["C2"])
    assert c2.lattice.size == 2
    # with a reflexive relation way-below is inclusion
    assert c2.way_below.rows == c2.lattice.up

    c3r = round_ideal_lattice(corpus["C3R"])
    assert c3r.lattice.size == 2
    small = c3r.ideals.index(0b001)
    big = c3r.ideals.index(0b111)
    assert c3r.way_below.has(small, big)

    full2 = round_ideal_lattice(corpus["FULL2"])
    assert full2.lattice.size == 1


def test_round_ideal_lattice_joins_match_closure(corpus):
    for p in corpus.values():
        ridl = round_ideal_lattice(p)
        for i, mi in enumerate(ridl.ideals):
            for j, mj in enumerate(ridl.ideals):
                joined = ridl.ideals[ridl.lattice.join[i][j]]
                assert joined == smallest_round_ideal_containing(p, mi | mj)
                met = ridl.ideals[ridl.lattice.meet[i][j]]
                assert is_subset(met, mi & mj)
                # largest round ideal inside the intersection
                for other in ridl.ideals:
                    if is_subset(other, mi & mj):
                        assert is_subset(other, met)


def test_order_duality_of_strongness(corpus):
    for name, p in corpus.items():
        op = opposite_proximity(p)
        assert p.join_strong == op.meet_strong, name
        assert p.meet_strong == op.join_strong, name
        # round ideals of the opposite are the round filters
        assert round_ideal_masks(op) == round_filter_masks(p)


def test_increasing_reflexive_iff_order(corpus):
    # on increasing join-strong carriers: reflexive iff R is the order
    for name, p in corpus.items():
        if not (p.increasing and p.join_strong):
            continue
        is_order = p.R == order_relation(p.lattice)
        assert p.reflexive == is_order, name


def test_exhaustive_reduction_on_all_c3_relations(corpus):
    """On a relation that fails a compatibility axiom the strongness
    flags are the binary instances by definition, and they differ from
    the all-subsets ones on 200 of the 512 relations on C3."""
    c3 = corpus["C3"].lattice
    incompatible = differ = 0
    for rows in itertools.product(range(8), repeat=3):
        rel = Relation(3, 3, rows)
        fast = verify_axioms(c3, rel)
        slow = verify_axioms_exhaustive(c3, rel)
        assert fast.join_compatible == slow.join_compatible
        assert fast.meet_compatible == slow.meet_compatible
        compatible = fast.join_compatible and fast.meet_compatible
        incompatible += not compatible
        if (fast.join_strong, fast.meet_strong) != \
                (slow.join_strong, slow.meet_strong):
            assert not compatible, rows
            differ += 1
    assert (incompatible, differ) == (506, 200)


@settings(max_examples=150, deadline=None)
@given(st.tuples(*(st.integers(0, 15) for _ in range(4))))
def test_exhaustive_reduction_sampled_on_b2(rows):
    from proxlat.fixtures import load
    b2 = load("B2").lattice
    rel = Relation(4, 4, rows)
    fast = verify_axioms(b2, rel)
    slow = verify_axioms_exhaustive(b2, rel)
    assert fast.join_compatible == slow.join_compatible
    assert fast.meet_compatible == slow.meet_compatible
    if fast.axioms_ok:
        assert fast.join_strong == slow.join_strong
        assert fast.meet_strong == slow.meet_strong


def test_round_membership_checks(corpus):
    c3r = corpus["C3R"]
    assert is_round_ideal(c3r, 0b001)
    assert not is_round_ideal(c3r, 0b011)  # down-set of a, not R-fixed
    assert is_round_filter(c3r, 0b100)
    assert not is_round_filter(c3r, 0b110)


def test_round_membership_outside_the_carrier(corpus):
    c3, b2 = corpus["C3"], corpus["B2"]
    assert not is_round_ideal(c3, 1 << 5)
    assert not is_round_filter(c3, 0b1001)
    assert not is_round_ideal(c3, -1)
    assert not is_round_filter(c3, -1)
    ideal = round_subsets(b2, "ideal")[0]
    with pytest.raises(InvalidRoundSubset):
        prime_filter_between(b2, RoundSubset(b2, 1 << 7, "filter"), ideal)


def small_lattices(most):
    """One lattice per isomorphism class with at most `most` elements:
    the one-element lattice, then 0 + P + 1 for every poset P on
    n - 2 elements, bottom first and top last."""
    found = [lattice_from_up(["x0"], [1])]
    for n in range(2, most + 1):
        top = 1 << (n - 1)
        for up in all_posets(n - 2):
            ups = [(1 << n) - 1] + [m << 1 | top for m in up] + [top]
            if not any(_order_isomorphism(ups, lat.up) for lat in found):
                found.append(lattice_from_up([f"x{i}" for i in range(n)], ups))
    return found


def test_binary_reduction_is_exact_on_small_carriers():
    """The binary strongness and approximability checks against every
    finite instance: on every relation compatible on both sides of
    every lattice with at most 5 elements, idempotent or not, and on
    every proximity morphism among the proximity lattices with at most
    4 elements. The module docstring of proxlat.proximity proves the
    idempotent case."""
    lattices = small_lattices(5)
    carriers = []
    other = 0
    for lat in lattices:
        n = lat.size
        for mu in itertools.product(range(n), repeat=n):
            rel = Relation(n, n, tuple(lat.down[m] for m in mu)).converse()
            fast = verify_axioms(lat, rel)
            if not (fast.join_compatible and fast.meet_compatible):
                continue
            slow = verify_axioms_exhaustive(lat, rel)
            assert (fast.join_strong, fast.meet_strong) == \
                (slow.join_strong, slow.meet_strong), (n, rel.rows)
            if fast.idempotent:
                carriers.append(ProximityLattice(lat, rel, fast))
            else:
                other += 1
    assert (len(lattices), len(carriers), other) == (10, 165, 143)

    small = [p for p in carriers if p.size <= 4]
    morphisms = 0
    for src, tgt in itertools.product(small, repeat=2):
        for t in all_proximity_morphisms(src, tgt):
            fast = t.report
            slow = verify_morphism_exhaustive(src, tgt, t.T)
            assert (fast.join_approximable, fast.meet_approximable) == \
                (slow.join_approximable, slow.meet_approximable), t.T.rows
            morphisms += 1
    assert (len(small), morphisms) == (32, 2717)
