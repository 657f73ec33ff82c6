"""Spectra, finite-space presentations, duality round trips, and the
idempotent-splitting picture."""

import dataclasses
import itertools

import pytest

from oracles import (
    all_posets_at_leaves,
    finite_space_by_pairs,
    is_prime_filter_by_pairs,
)
from proxlat import spectra
from proxlat.bitset import bits, is_subset
from proxlat.canext import check_uniqueness, pi_extension, verify_extension
from proxlat.errors import (
    ExtensionError,
    NotALattice,
    NotDistributive,
    NotJoinStrong,
    NotT0,
    ProxlatError,
)
from proxlat.lattice import antisymmetry_witness, find_isomorphism, lattice_from_up
from proxlat.proximity import (
    all_j_morphisms,
    identity_morphism,
    morph_compose,
    order_proximity,
    proximity_lattice,
    round_filter_masks,
    round_subsets,
)
from proxlat.relations import Relation, order_relation
from proxlat.spectra import (
    _is_prime_filter_mask,
    all_posets,
    all_t0_spaces,
    canext_via_duality,
    co_compact_dual,
    compsat_basis_presentation,
    dual_map,
    find_homeomorphism,
    finite_space,
    karoubi_check,
    open_basis_presentation,
    pairs_presentation,
    prime_filter_between,
    prime_round_filters,
    retract_image,
    saturated_lattice,
    spectral_case_check,
    spectral_proximity_space,
    spectrum,
    spectrum_roundtrip,
)


@pytest.fixture(scope="module")
def sierpinski():
    return finite_space(["x", "y"], [0b00, 0b01, 0b11])


@pytest.fixture(scope="module")
def discrete2():
    return finite_space(["x", "y"], [0b00, 0b01, 0b10, 0b11])


def test_prime_round_filters(corpus):
    assert prime_round_filters(corpus["C2"]) == (0b10,)
    assert prime_round_filters(corpus["C3R"]) == (0b100,)
    assert prime_round_filters(corpus["FULL2"]) == ()
    with pytest.raises(NotDistributive):
        prime_round_filters(corpus["M3"])
    assert prime_round_filters(corpus["M3"], allow_nondistributive=True) == ()


def test_prime_check_against_the_pair_loop():
    """The one-join check agrees with the pair loop on every up-set of
    every labelled lattice with at most 5 elements, M3 and N5 shapes
    included."""
    lattices = upsets = 0
    for n in range(1, 6):
        labels = [str(i) for i in range(n)]
        for up in all_posets(n):
            try:
                lat = lattice_from_up(labels, up)
            except NotALattice:
                continue
            lattices += 1
            for mask in range(1 << n):
                if all(is_subset(up[a], mask) for a in bits(mask)):
                    upsets += 1
                    assert _is_prime_filter_mask(lat, mask) == \
                        is_prime_filter_by_pairs(lat, mask), (up, mask)
    assert (lattices, upsets) == (425, 2944)


def test_prime_round_filters_against_the_pair_loop(corpus):
    chain32 = lattice_from_up([f"c{i}" for i in range(32)],
                              [(1 << 32) - (1 << i) for i in range(32)])
    boolean5 = lattice_from_up([f"s{i}" for i in range(32)],
                               [sum(1 << j for j in range(32) if i & j == i)
                                for i in range(32)])
    # the prime filters of (L, <=) are the up-sets of the join-primes
    cases = [(order_proximity(chain32), False, 31),
             (order_proximity(boolean5), False, 5),
             (corpus["M3"], True, 0)]
    for p, explore, count in cases:
        expected = tuple(m for m in round_filter_masks(p)
                         if is_prime_filter_by_pairs(p.lattice, m))
        assert prime_round_filters(p, allow_nondistributive=explore) == expected
        assert len(expected) == count


def test_prime_filters_exclude_bottom_contain_top(corpus):
    for name, p in corpus.items():
        if not p.distributive:
            continue
        for fm in prime_round_filters(p):
            assert not fm >> p.lattice.bot & 1
            assert fm >> p.lattice.top & 1


def test_prime_filter_between_examples(corpus):
    c2 = corpus["C2"]
    filt = {s.members: s for s in round_subsets(c2, "filter")}
    idl = {s.members: s for s in round_subsets(c2, "ideal")}
    found = prime_filter_between(c2, filt[0b10], idl[0b01])
    assert found is not None and found.members == 0b10
    assert prime_filter_between(c2, filt[0b11], idl[0b01]) is None

    c3r = corpus["C3R"]
    filt3 = {s.members: s for s in round_subsets(c3r, "filter")}
    idl3 = {s.members: s for s in round_subsets(c3r, "ideal")}
    found3 = prime_filter_between(c3r, filt3[0b100], idl3[0b001])
    assert found3 is not None and found3.members == 0b100


def test_prime_filter_between_exhaustive(distributive_corpus):
    for name, p in distributive_corpus.items():
        for g in round_subsets(p, "filter"):
            for j in round_subsets(p, "ideal"):
                f0 = prime_filter_between(p, g, j)
                if g.members & j.members:
                    assert f0 is None
                else:
                    assert f0 is not None, name
                    assert g.members & ~f0.members == 0
                    assert not f0.members & j.members


def test_spectrum_shapes(corpus):
    assert spectrum(corpus["C2"]).space.points == 1
    c3r = spectrum(corpus["C3R"])
    assert c3r.space.points == 1
    assert c3r.basic_open == (0, 0, 1)
    full2 = spectrum(corpus["FULL2"])
    assert full2.space.points == 0
    assert full2.space.opens == (0,)


def test_basic_opens_identities(distributive_corpus):
    for p in distributive_corpus.values():
        res = spectrum(p)
        for d in range(p.size):
            for e in range(p.size):
                assert res.basic_open[p.lattice.meet[d][e]] == \
                    res.basic_open[d] & res.basic_open[e]
                assert res.basic_open[p.lattice.join[d][e]] == \
                    res.basic_open[d] | res.basic_open[e]


def test_saturated_lattice_shapes(sierpinski):
    pt = finite_space(["p"], [0, 1])
    assert saturated_lattice(pt).size == 2
    empty = finite_space([], [0])
    assert saturated_lattice(empty).size == 1
    assert saturated_lattice(sierpinski).size == 3  # a three-chain


def test_co_compact_dual(sierpinski, discrete2):
    dual = co_compact_dual(sierpinski)
    assert find_homeomorphism(sierpinski, dual) is not None
    assert dual.opens != sierpinski.opens  # roles of the points swap
    assert co_compact_dual(discrete2).opens == discrete2.opens
    empty = finite_space([], [0])
    assert co_compact_dual(empty).opens == (0,)


def test_co_compact_involution_on_small_spaces():
    for n in range(4):
        for sp in all_t0_spaces(n):
            assert co_compact_dual(co_compact_dual(sp)).opens == sp.opens


def test_open_basis_presentation(sierpinski, discrete2, corpus):
    p = open_basis_presentation(sierpinski)
    assert p.join_strong and p.increasing and p.distributive
    assert find_isomorphism(p.lattice, corpus["C3"].lattice) is not None

    pt = open_basis_presentation(finite_space(["p"], [0, 1]))
    assert find_isomorphism(pt.lattice, corpus["C2"].lattice) is not None
    assert pt.R == order_relation(pt.lattice)

    sq = open_basis_presentation(discrete2)
    assert find_isomorphism(sq.lattice, corpus["B2"].lattice) is not None


def test_open_basis_rejects_non_t0():
    indiscrete = finite_space(["x", "y"], [0b00, 0b11])
    with pytest.raises(NotT0):
        open_basis_presentation(indiscrete)


def test_compsat_presentation(sierpinski):
    p = compsat_basis_presentation(sierpinski)
    assert p.meet_strong and p.distributive


def test_pairs_presentation(sierpinski):
    pt = pairs_presentation(finite_space(["p"], [0, 1]))
    assert pt.doubly_strong and pt.distributive

    sier = pairs_presentation(sierpinski)
    assert sier.doubly_strong and sier.distributive
    # measured: pairs with a strict gap are not self-related
    assert not sier.reflexive

    empty = pairs_presentation(finite_space([], [0]))
    assert empty.size == 1 and empty.doubly_strong


def test_canext_via_duality_on_fixtures(distributive_corpus):
    for name, p in distributive_corpus.items():
        result = canext_via_duality(p)
        assert result.iso is not None, name
        # embeddings commute through the isomorphism
        for a in range(p.size):
            assert result.iso.table[result.pi_ext.embed[a]] == \
                result.extension.embed[a]


def test_canext_via_duality_verifies_each_extension_once(distributive_corpus,
                                                        monkeypatch):
    # the saturated-set extension and the pi build, once each; the
    # isomorphism is the one check_uniqueness finds for the pair
    verified = []

    def counting(ext):
        verified.append(ext)
        return verify_extension(ext)

    monkeypatch.setattr(spectra, "verify_extension", counting)
    chain16 = lattice_from_up([f"c{i}" for i in range(16)],
                              [0xFFFF & ~((1 << i) - 1) for i in range(16)])
    # fresh carriers, which keep no duality build
    carriers = {name: dataclasses.replace(p)
                for name, p in distributive_corpus.items()}
    carriers["chain16"] = proximity_lattice(chain16, order_relation(chain16))
    for name, p in carriers.items():
        verified.clear()
        result = canext_via_duality(p)
        assert verified == [result.extension, result.pi_ext], name
        assert result.iso == check_uniqueness(result.pi_ext, result.extension), name


def test_canext_via_duality_refuses_an_unverified_pi_build(corpus, monkeypatch):
    p = dataclasses.replace(corpus["C3"])  # a fresh carrier keeps no build
    pi = pi_extension(p)
    bad = dataclasses.replace(pi, embed=tuple(reversed(pi.embed)))
    monkeypatch.setattr(spectra, "pi_extension", lambda q: bad)
    with pytest.raises(ExtensionError) as raised:
        canext_via_duality(p)
    with pytest.raises(ExtensionError) as wanted:
        check_uniqueness(bad, pi)
    assert str(raised.value) == str(wanted.value)


def posets_by_choice_loop(n):
    """Every choice of strict pairs, in increasing order of its number,
    kept when reflexive closure makes it a partial order: the loop
    all_posets ran before it pruned, kept as its oracle."""
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b]
    for choice in range(1 << len(pairs)):
        up = [1 << a for a in range(n)]
        for k in bits(choice):
            a, b = pairs[k]
            up[a] |= 1 << b
        if all(up[b] & ~up[a] == 0 for a in range(n) for b in bits(up[a])) \
                and antisymmetry_witness(up) is None:
            yield tuple(up)


def test_all_posets_against_the_choice_loop():
    for n in range(5):
        assert list(all_posets(n)) == list(posets_by_choice_loop(n))
    assert [sum(1 for _ in all_posets(n)) for n in range(6)] == \
        [1, 1, 3, 19, 219, 4231]  # OEIS A001035


def test_all_posets_against_the_leaf_search():
    for n in range(6):
        assert list(all_posets(n)) == list(all_posets_at_leaves(n))
    assert sum(1 for _ in all_posets(6)) == 130023  # OEIS A001035


def all_topologies(n):
    """Every topology on n labelled points, T0 or not."""
    full = (1 << n) - 1
    middle = range(1, full)
    for choice in range(1 << len(middle)):
        fam = {0, full} | {u for i, u in enumerate(middle) if choice >> i & 1}
        if all(u | v in fam and u & v in fam for u in fam for v in fam):
            yield finite_space([str(i) for i in range(n)], fam)


def image(perm, mask):
    return sum(1 << perm[x] for x in bits(mask))


def homeomorphism_by_permutations(a, b):
    """The first bijection, in lexicographic order, carrying opens onto
    opens: the search find_homeomorphism ran before it compared
    specialization orders, kept as its oracle."""
    if a.points != b.points:
        return None
    for perm in itertools.permutations(range(b.points)):
        if {image(perm, u) for u in a.opens} == set(b.opens):
            return perm
    return None


def test_find_homeomorphism_against_permutation_search():
    spaces = list(all_topologies(3))
    assert len(spaces) == 29
    for a in spaces:
        for b in spaces:
            found = find_homeomorphism(a, b)
            assert (found is None) == (homeomorphism_by_permutations(a, b) is None)
            if found is not None:
                assert sorted(found) == [0, 1, 2]
                assert {image(found, u) for u in a.opens} == set(b.opens)


def test_find_homeomorphism_of_a_chain_and_its_reverse():
    # the only homeomorphism is the last permutation in lexicographic
    # order, which the permutation search reaches after 9! - 1 others
    n = 9
    labels = [str(i) for i in range(n)]
    full = (1 << n) - 1
    ups = finite_space(labels, [full & ~((1 << i) - 1) for i in range(n + 1)])
    downs = finite_space(labels, [(1 << i) - 1 for i in range(n + 1)])
    assert find_homeomorphism(ups, downs) == tuple(reversed(range(n)))


def test_spectrum_roundtrip_exhaustive():
    for n in range(5):
        for sp in all_t0_spaces(n):
            assert spectrum_roundtrip(sp)


def test_canext_via_duality_on_all_small_presentations():
    # beyond the fixture corpus: the open-basis presentation of every
    # T0 space on up to 4 points verifies and matches the polarity build
    for n in range(5):
        for sp in all_t0_spaces(n):
            result = canext_via_duality(open_basis_presentation(sp))
            assert result.iso is not None


def test_pairs_presentations_on_all_3point_spaces():
    for sp in all_t0_spaces(3):
        q = pairs_presentation(sp)
        assert q.doubly_strong and q.distributive


def test_dual_map_examples(corpus):
    c3r = corpus["C3R"]
    ident = identity_morphism(c3r)
    dm = dual_map(ident)
    assert dm.point_map == (0,)

    # duals compose contravariantly; with composition written
    # left-to-right the point maps chain up
    dist = {k: v for k, v in corpus.items() if v.distributive}
    for (na, a), (nb, b) in itertools.product(dist.items(), repeat=2):
        for t in all_j_morphisms(a, b):
            for (nc, c) in dist.items():
                if nc != nb:
                    continue
                for u in all_j_morphisms(b, c):
                    left = dual_map(morph_compose(t, u))
                    dt = dual_map(t)
                    du = dual_map(u)
                    chained = tuple(dt.point_map[x] for x in du.point_map)
                    assert left.point_map == chained


def test_dual_map_of_homs_is_prime_filter_preimage(corpus):
    from proxlat.lattice import LatticeMap
    from proxlat.proximity import hom_as_morphism
    b2 = corpus["B2"].lattice
    c2 = corpus["C2"].lattice
    h = LatticeMap(b2, c2, (0, 1, 0, 1))
    t = hom_as_morphism(h)
    dm = dual_map(t)
    # every point of the domain spectrum maps to the preimage filter
    for q, fm in enumerate(dm.domain.point_filters):
        expected = 0
        for a in range(b2.size):
            if fm >> h.table[a] & 1:
                expected |= 1 << a
        assert dm.codomain.point_filters[dm.point_map[q]] == expected


def test_karoubi_and_retracts(sierpinski):
    collapse = spectral_proximity_space(sierpinski, (1, 1))
    ident = spectral_proximity_space(sierpinski, (0, 1))
    assert karoubi_check(collapse, collapse, collapse.f)
    assert not karoubi_check(collapse, collapse, ident.f)

    assert retract_image(ident).opens == sierpinski.opens
    one = retract_image(collapse)
    assert one.points == 1

    pt_space = finite_space(["p"], [0, 1])
    one_obj = spectral_proximity_space(pt_space, (0,))
    assert karoubi_check(collapse, one_obj, (0, 0))

    const = spectral_proximity_space(sierpinski, (1, 1))
    assert retract_image(const).points == 1


def test_spectral_proximity_space_validation(sierpinski):
    with pytest.raises(ProxlatError):
        spectral_proximity_space(sierpinski, (1, 0))  # not idempotent


@pytest.mark.parametrize("f", [(0, 7), (0,), (0, -1), (0, 1, 1), ("x", 1)])
def test_spectral_proximity_space_refuses_a_bad_map(sierpinski, f):
    with pytest.raises(ProxlatError, match="self-map must send each of the 2 "
                                           "points to one of them"):
        spectral_proximity_space(sierpinski, f)


@pytest.mark.parametrize("g", [(0, 5), (0, -1), ("x", 1)])
def test_karoubi_check_refuses_a_bad_map(sierpinski, g):
    ident = spectral_proximity_space(sierpinski, (0, 1))
    assert not karoubi_check(ident, ident, g)


def chain(n):
    return lattice_from_up([f"c{i}" for i in range(n)],
                           [((1 << n) - 1) & ~((1 << i) - 1) for i in range(n)])


def proximity_lattices_on(lat):
    """Every proximity lattice on the labelled lattice `lat`, read off
    the idempotent meet-preserving maps mu (the `proximity` module
    docstring)."""
    n = lat.size
    for mu in itertools.product(range(n), repeat=n):
        if mu[lat.top] == lat.top and all(mu[m] == m for m in mu):
            rel = Relation(n, n, tuple(lat.down[m] for m in mu)).converse()
            try:
                yield proximity_lattice(lat, rel)
            except ProxlatError:
                pass


def spectral_case_carriers(corpus):
    """Distributive join-strong carriers: every one on C2, C3, C4 and B2,
    the fixtures, the order and C3R-style relations (x R y iff x is
    bottom or y is top) on chains of 2 to 8 elements, and the open-basis
    and pair presentations of every T0 space with at most 3 points."""
    b2 = corpus["B2"].lattice
    small = [p for lat in (chain(2), chain(3), chain(4), b2)
             for p in proximity_lattices_on(lat)
             if p.distributive and p.join_strong]
    assert len(small) == 26
    fixtures = [p for p in corpus.values() if p.distributive and p.join_strong]
    assert len(fixtures) == 5
    chains = []
    for n in range(2, 9):
        lat = chain(n)
        c3r = Relation(n, n, tuple(lat.full if a == lat.bot else 1 << lat.top
                                   for a in range(n)))
        chains += [order_proximity(lat), proximity_lattice(lat, c3r)]
    spaces = [sp for n in range(4) for sp in all_t0_spaces(n)]
    assert len(spaces) == 24
    presented = [present(sp) for sp in spaces
                 for present in (open_basis_presentation, pairs_presentation)]
    return small + fixtures + chains + presented


def test_spectral_case_check(corpus):
    # the pair read off Fix mu is a j-isomorphism onto the order
    # proximity lattice of the opens on every carrier (its composites
    # are checked inside); on reflexive carriers it is the pair of
    # natural candidates {(d, U) : U inside U_d}, {(U, d) : U_d inside U}
    carriers = spectral_case_carriers(corpus)
    assert len(carriers) == 93
    reflexive = 0
    for p in carriers:
        rep = spectral_case_check(p)
        assert rep.reflexive == p.reflexive
        assert rep.phi.is_j and rep.psi.is_j
        if not p.reflexive:
            continue
        reflexive += 1
        basic = spectrum(p).basic_open
        opens = spectrum(p).space.opens
        assert rep.phi.T.rows == tuple(
            sum(1 << i for i, u in enumerate(opens) if is_subset(u, basic[d]))
            for d in range(p.size))
        assert rep.psi.T.rows == tuple(
            sum(1 << d for d in range(p.size) if is_subset(basic[d], u))
            for u in opens)
    assert reflexive == 55


def not_join_strong_b2(corpus):
    # x R y iff x = 0 or y = 1 on B2: distributive, not join-strong
    lat = corpus["B2"].lattice
    rel = Relation(4, 4, tuple(lat.full if a == lat.bot else 1 << lat.top
                               for a in range(4)))
    p = proximity_lattice(lat, rel)
    assert p.distributive and not p.join_strong
    return p


def test_spectral_case_check_refusals(corpus):
    with pytest.raises(NotDistributive):
        spectral_case_check(corpus["M3"])
    with pytest.raises(NotJoinStrong):
        spectral_case_check(not_join_strong_b2(corpus))


def test_prime_filter_between_refusals(corpus):
    for p, error in ((corpus["M3"], NotDistributive),
                     (not_join_strong_b2(corpus), NotJoinStrong)):
        g = round_subsets(p, "filter")[0]
        j = round_subsets(p, "ideal")[0]
        with pytest.raises(error):
            prime_filter_between(p, g, j)


def outcome(build, labels, opens):
    try:
        return build(labels, opens)
    except ProxlatError as exc:
        return str(exc)


def test_finite_space_against_the_pair_loop():
    # every family of subsets of at most 4 points: same space, or the
    # same message
    for n in range(5):
        labels = [str(i) for i in range(n)]
        for choice in range(1 << (1 << n)):
            fam = list(bits(choice))
            assert outcome(finite_space, labels, fam) == \
                outcome(finite_space_by_pairs, labels, fam), (n, fam)


def test_finite_space_refuses_masks_outside_first():
    # with the stray mask 0b10, {0, 0b01, 0b10} also misses the union
    # 0b11; the stray mask is named before any closure failure
    for stray in (0b10, -1):
        with pytest.raises(ProxlatError, match="^open set outside the carrier$"):
            finite_space(["x"], [0, 1, stray])


def test_open_basis_relation_is_interpolation():
    # d R e iff some saturated (here: open) k has d inside k inside e
    for n in range(5):
        for sp in all_t0_spaces(n):
            opens = sp.opens
            interpolation = tuple(
                sum(1 << j for j, e in enumerate(opens)
                    if any(is_subset(d, k) and is_subset(k, e) for k in opens))
                for d in opens)
            assert open_basis_presentation(sp).R.rows == interpolation
