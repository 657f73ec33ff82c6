"""Lattice construction, order primitives, and the cut completion."""

import collections
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    closed_family,
    cut_completion,
    distributive_by_pairs,
    intersection_polarity,
    kept_value,
    lattice_laws_hold,
)
from proxlat.bitset import bits, transpose
from proxlat.canext import concept_lattice, pi_extension, sigma_extension
from proxlat.errors import DimensionMismatch, NotALattice, NotAPartialOrder
from proxlat.formats import lattice_from_doc
from proxlat.lattice import (
    FiniteLattice,
    LatticeMap,
    _lattice_of_sets,
    _set_label,
    compose_maps,
    down_index,
    find_isomorphism,
    is_distributive,
    is_homomorphism,
    lattice_from_order,
    lattice_from_up,
    opposite,
    up_index,
)
from proxlat.proximity import proximity_lattice, round_ideal_lattice
from proxlat.relations import Relation, relation_from_pairs
from proxlat.spectra import all_posets


def chain_pairs(n):
    return [(i, i) for i in range(n)] + [(i, j) for i in range(n)
                                         for j in range(i + 1, n)]


def test_two_chain():
    lat = lattice_from_order(["0", "1"], chain_pairs(2))
    assert lat.bot == 0 and lat.top == 1
    assert lat.meet[0][1] == 0 and lat.join[0][1] == 1


def test_m3_meets_and_joins(corpus):
    m3 = corpus["M3"].lattice
    a, b = 1, 2
    assert m3.meet[a][b] == m3.bot
    assert m3.join[a][b] == m3.top


def test_n_poset_is_not_a_lattice():
    # two maximal and two minimal incomparable elements
    pairs = [(0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (0, 3), (1, 3)]
    with pytest.raises(NotALattice) as exc:
        lattice_from_order(["a", "b", "c", "d"], pairs)
    assert exc.value.witness is not None


def test_not_a_partial_order_rejected():
    # reflexivity, then transitivity, then antisymmetry
    with pytest.raises(NotAPartialOrder, match=r"not reflexive at 0"):
        lattice_from_order(["0", "1"], [(0, 1), (1, 0)])
    with pytest.raises(NotAPartialOrder, match=r"not transitive at \(0,1\)"):
        lattice_from_order(["0", "1", "2"],
                           [(0, 0), (1, 1), (2, 2), (0, 1), (1, 0), (1, 2)])
    with pytest.raises(NotAPartialOrder, match=r"antisymmetry fails at \(0,1\)"):
        lattice_from_order(["0", "1"], [(0, 0), (1, 1), (0, 1), (1, 0)])


def tables_by_cone_scan(labels, up):
    """Meet and join tables, bot and top, found the way lattice_from_up
    did before its mask lookup, kept as its oracle: a bound of (a, b) is
    the first element of the common cone whose own cone holds the whole
    common cone. Raises NotALattice at the first pair (a, b), a <= b,
    without one, the meet tested before the join."""
    n = len(up)
    down = transpose(up, n)

    def bound(a, b, cone, kind):
        common = cone[a] & cone[b]
        for m in bits(common):
            if common & ~cone[m] == 0:
                return m
        raise NotALattice(
            f"elements {labels[a]!r} and {labels[b]!r} have no {kind}",
            witness=(a, b), missing=kind, labels=labels)

    meet = [[0] * n for _ in range(n)]
    join = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            meet[a][b] = meet[b][a] = bound(a, b, down, "meet")
            join[a][b] = join[b][a] = bound(a, b, up, "join")
    bot = top = 0
    for a in range(n):
        bot, top = meet[bot][a], join[top][a]
    return (tuple(map(tuple, meet)), tuple(map(tuple, join)), bot, top)


def build_matches_cone_scan(labels, up):
    """Assert that lattice_from_up agrees with the cone scan, tables or
    failure, and that a build keeps each table only once it is read;
    True when up is a lattice."""
    try:
        expected = tables_by_cone_scan(labels, up)
    except NotALattice as want:
        with pytest.raises(NotALattice) as got:
            lattice_from_up(labels, up)
        assert (str(got.value), got.value.witness, got.value.missing,
                got.value.labels, got.value.witnesses) == \
            (str(want), want.witness, want.missing, want.labels,
             want.witnesses), up
        return False
    lat = lattice_from_up(labels, up)
    assert kept_value(lat, FiniteLattice.meet) is None, up
    meet = lat.meet
    assert kept_value(lat, FiniteLattice.meet) is meet, up
    assert kept_value(lat, FiniteLattice.join) is None, up
    assert (meet, lat.join, lat.bot, lat.top) == expected, up
    assert lat.join is kept_value(lat, FiniteLattice.join), up
    return True


def inclusion_up(masks):
    """The up-set masks of a family of sets under inclusion, as
    _lattice_of_sets orders it; equal sets give equal masks."""
    return [sum(1 << j for j, other in enumerate(masks) if m & ~other == 0)
            for m in masks]


def bounded_posets(n):
    """The up-sets of 0 + P + 1 on the labels 0..n-1, n >= 2: a choice
    of bottom and top, and a poset P from all_posets on the other
    labels."""
    for bot, top in itertools.permutations(range(n), 2):
        rest = [x for x in range(n) if x not in (bot, top)]
        for up in all_posets(n - 2):
            ups = [0] * n
            ups[bot], ups[top] = (1 << n) - 1, 1 << top
            for i, x in enumerate(rest):
                ups[x] = 1 << top | sum(1 << rest[j] for j in bits(up[i]))
            yield ups


def test_build_against_cone_scan_on_small_posets():
    """Every labelled poset with at most 5 points, and 0 + P + 1 for
    every labelled 4-point poset P with its bottom and top at every two
    of the 6 labels, so that the first pair without a bound is named
    among 6 elements."""
    lattices = others = 0
    for n in range(1, 6):
        labels = [f"p{i}" for i in range(n)]
        for up in all_posets(n):
            if build_matches_cone_scan(labels, up):
                lattices += 1
            else:
                others += 1
    assert lattices > 0 and others > 0
    labels = [f"p{i}" for i in range(6)]
    verdicts = collections.Counter(
        build_matches_cone_scan(labels, up) for up in bounded_posets(6))
    # the 2 + 2 bowtie, on each choice of its two lower points, is the
    # only 4-point poset whose 0 + P + 1 is no lattice
    assert verdicts == {True: 30 * 213, False: 30 * 6}


def test_build_against_cone_scan_on_set_families():
    # seeded families of subsets of a 4-set, each with a repeated set,
    # so that the up-set masks are a preorder with equal masks; adding
    # the empty and the whole set to some makes lattices likely
    rng = random.Random(11)
    verdicts = []
    for trial in range(400):
        family = [rng.getrandbits(4) for _ in range(rng.randint(1, 7))]
        if trial % 2:
            family += [0, 0b1111]
        family.append(rng.choice(family))
        rng.shuffle(family)
        up = inclusion_up(family)
        labels = [f"s{i}" for i in range(len(family))]
        verdicts.append(build_matches_cone_scan(labels, up))
        if verdicts[-1]:
            lat = _lattice_of_sets(family, "abcd")
            # the up-sets read off containment masks equal the pairwise scan
            assert lat.up == tuple(up), family
            assert (lat.meet, lat.join, lat.bot, lat.top) == \
                tables_by_cone_scan(lat.labels, up)
        else:
            with pytest.raises(NotALattice):
                _lattice_of_sets(family, "abcd")
    assert 0 < sum(verdicts) < len(verdicts)


def test_build_against_cone_scan_at_64_elements():
    n = 64
    chain_up = [((1 << n) - 1) & ~((1 << i) - 1) for i in range(n)]
    b6_up = [sum(1 << j for j in range(n) if i & j == i) for i in range(n)]
    # the C3R-style carrier: a 64-chain listed in a seeded order, with
    # x R y iff x is bottom or y is top
    order = list(range(n))
    random.Random(64).shuffle(order)
    pos = {old: new for new, old in enumerate(order)}
    c3r_up = [sum(1 << pos[b] for b in bits(chain_up[old])) for old in order]
    labels = [f"e{i}" for i in range(n)]
    for up in (chain_up, b6_up, c3r_up):
        assert build_matches_cone_scan(labels, up)
    lat = lattice_from_up(labels, c3r_up)
    rel = Relation(n, n, tuple(lat.full if a == lat.bot else 1 << lat.top
                               for a in range(n)))
    p = proximity_lattice(lat, rel)
    for built in (pi_extension(p).C, sigma_extension(p).C,
                  round_ideal_lattice(p).lattice):
        assert build_matches_cone_scan(built.labels, built.up)


@pytest.mark.parametrize(
    "build", (lattice_from_up, lattice_from_doc, _set_label, _lattice_of_sets),
    ids=lambda b: b.__qualname__)
def test_lattice_builds_make_no_cells(build):
    """A generator or comprehension that reads a local of its function
    makes a cell for it on every call; no build on the lattice path
    has one."""
    assert build.__code__.co_cellvars == ()


def test_distributivity(corpus):
    assert is_distributive(corpus["C2"].lattice)
    assert is_distributive(corpus["B2"].lattice)
    assert not is_distributive(corpus["M3"].lattice)


def distributive_by_the_law(lat):
    """a ^ (b v c) = (a ^ b) v (a ^ c) over every triple: the reference
    for is_distributive."""
    meet, join = lat.meet, lat.join
    every = range(lat.size)
    return all(meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
               for a in every for b in every for c in every)


def intersection_lattices():
    """Lattices of families of subsets of a 5-set that hold the whole
    set and are closed under intersection, under inclusion."""
    rng = random.Random(5)
    for _ in range(1000):
        family = {0b11111}
        for _ in range(rng.randint(1, 7)):
            new = rng.getrandbits(5)
            family |= {new & old for old in family}
        yield _lattice_of_sets(sorted(family), "abcde")


def test_distributivity_against_the_law():
    verdicts = []
    for lat in intersection_lattices():
        assert kept_value(lat, is_distributive) is None
        verdicts.append(is_distributive(lat))
        assert verdicts[-1] == distributive_by_the_law(lat), lat.labels
        # the verdict is kept on the lattice and read back from there
        assert kept_value(lat, is_distributive) is verdicts[-1]
        assert is_distributive(lat) is verdicts[-1]
    assert 0 < sum(verdicts) < len(verdicts)


def labelled_lattices(most):
    """Every lattice on the labels 0..n-1, n <= most: one element, or a
    bounded poset from bounded_posets(n), kept when it is a lattice.
    Filtering all_posets(n) itself would give the same lattices, but
    takes tens of seconds at n = 6."""
    yield lattice_from_up(["0"], [1])
    for n in range(2, most + 1):
        labels = [str(i) for i in range(n)]
        for ups in bounded_posets(n):
            try:
                yield lattice_from_up(labels, ups)
            except NotALattice:
                pass


def test_distributivity_on_every_small_lattice():
    """Every join-irreducible join-prime, against the loop over pairs
    and the law over triples, on every labelled lattice with at most
    6 elements."""
    verdicts = collections.Counter()
    for lat in labelled_lattices(6):
        found = is_distributive(lat)
        assert found == distributive_by_pairs(lat), (lat.size, lat.up)
        assert found == distributive_by_the_law(lat), (lat.size, lat.up)
        verdicts[found] += 1
    assert (sum(verdicts.values()), verdicts[True]) == (6815, 2805)


def test_down_index_is_kept_and_invisible(corpus):
    # a preorder too: {} < {a} = {a}, where the lowest index must win
    lattices = {name: p.lattice for name, p in corpus.items()}
    lattices["preorder"] = _lattice_of_sets([0, 1, 1], "a")
    for name, lat in lattices.items():
        fresh = lattice_from_up(lat.labels, lat.up)
        # the build keeps the two indices it made and no table
        index, up_of = kept_value(fresh, down_index), kept_value(fresh, up_index)
        assert index == {d: lat.down.index(d) for d in lat.down}, name
        assert up_of == {u: lat.up.index(u) for u in lat.up}, name
        assert down_index(fresh) is index and up_index(fresh) is up_of, name
        assert kept_value(fresh, FiniteLattice.meet) is None, name
        assert kept_value(fresh, FiniteLattice.join) is None, name
        # an opposite keeps the two indices of the lattice, swapped
        op = opposite(fresh)
        assert kept_value(op, down_index) is up_of, name
        assert kept_value(op, up_index) is index, name
        # a lattice made otherwise builds each index once, on first read
        bare = FiniteLattice(lat.size, lat.up, lat.down, lat.bot, lat.top,
                             lat.labels)
        assert kept_value(bare, down_index) is None, name
        assert kept_value(bare, up_index) is None, name
        assert down_index(bare) == index and up_index(bare) == up_of, name
        assert down_index(bare) is down_index(bare), name
        assert up_index(bare) is up_index(bare), name
        assert fresh == bare and hash(fresh) == hash(bare), name
        assert repr(fresh) == repr(bare), name


def test_opposite_swaps_and_involutes(corpus):
    lattices = [p.lattice for p in corpus.values()]
    lattices += list(itertools.islice(intersection_lattices(), 50))
    for lat in lattices:
        op = opposite(lat)
        assert op.bot == lat.top and op.top == lat.bot
        assert op.meet == lat.join
        assert opposite(op) == lat
        # built once, kept on the lattice, equal to a fresh build
        assert opposite(lat) is op
        assert op == lattice_from_up(lat.labels, lat.down)
        assert lat == lattice_from_up(lat.labels, lat.up)


def test_opposite_single_examples(corpus):
    c2 = corpus["C2"].lattice
    op = opposite(c2)
    assert op.leq(1, 0) and not op.leq(0, 1)
    m3 = corpus["M3"].lattice
    assert find_isomorphism(m3, opposite(m3)) is not None


def test_lattice_laws_on_corpus(corpus):
    for p in corpus.values():
        assert lattice_laws_hold(p.lattice)


def test_lattice_laws_on_derived_lattices(corpus):
    # the tables of every lattice the library constructs satisfy the
    # same laws: round-ideal lattices, concept lattices, completions
    for p in corpus.values():
        assert lattice_laws_hold(round_ideal_lattice(p).lattice)
        pol, _, _ = intersection_polarity(p)
        assert lattice_laws_hold(concept_lattice(pol).lattice)
        assert lattice_laws_hold(pi_extension(p).C)


def test_homomorphism_checks(corpus):
    m3 = corpus["M3"].lattice
    ident = LatticeMap(m3, m3, tuple(range(m3.size)))
    assert is_homomorphism(ident)

    c2 = corpus["C2"].lattice
    const_top = LatticeMap(c2, c2, (1, 1))
    assert not is_homomorphism(const_top)


def test_lattice_map_needs_one_target_element_per_source_element(corpus):
    # too long, too short, and out of the target: each refused up front
    # rather than judged by is_homomorphism or read into an IndexError
    c2 = corpus["C2"].lattice
    for table in ((0, 1, 1), (0,), (0, 5), (-1, 1)):
        with pytest.raises(DimensionMismatch):
            LatticeMap(c2, c2, table)
    assert LatticeMap(c2, c2, (0, 1)).table == (0, 1)


def test_compose_maps_refuses_a_mismatched_middle(corpus):
    c2, c3 = corpus["C2"].lattice, corpus["C3"].lattice
    f = LatticeMap(c2, c2, (0, 1))
    g = LatticeMap(c3, c2, (0, 1, 1))
    with pytest.raises(DimensionMismatch, match="share the middle lattice"):
        compose_maps(f, g)
    assert compose_maps(g, f).table == (0, 1, 1)


def test_pair_readers_keep_their_errors():
    # lattice_from_order and relation_from_pairs read pairs by one loop,
    # each with its own refusal, before any order check
    with pytest.raises(NotAPartialOrder,
                       match=r"pair \(0,2\) outside carrier of size 2"):
        lattice_from_order(["0", "1"], [(0, 0), (0, 2)])
    with pytest.raises(NotAPartialOrder,
                       match=r"pair \(-1,0\) outside carrier of size 2"):
        lattice_from_order(["0", "1"], [(-1, 0)])
    with pytest.raises(DimensionMismatch, match=r"pair \(2,0\) outside carriers"):
        relation_from_pairs(2, 3, [(0, 2), (2, 0)])
    assert relation_from_pairs(2, 3, [(0, 2), (1, 0)]).rows == (4, 1)
    assert lattice_from_order(["0", "1"], [(0, 0), (1, 1), (0, 1)]).up == (3, 2)


def test_homomorphism_exhaustive_pair_oracle(corpus):
    # C3 -> C2 collapsing the middle element to top, against a direct
    # two-loop oracle over all pairs
    c3 = corpus["C3"].lattice
    c2 = corpus["C2"].lattice
    f = LatticeMap(c3, c2, (0, 1, 1))

    def oracle(fmap):
        lhs = fmap.table
        ok = lhs[c3.bot] == c2.bot and lhs[c3.top] == c2.top
        for a in range(c3.size):
            for b in range(c3.size):
                ok = ok and lhs[c3.meet[a][b]] == c2.meet[lhs[a]][lhs[b]]
                ok = ok and lhs[c3.join[a][b]] == c2.join[lhs[a]][lhs[b]]
        return ok

    assert is_homomorphism(f) == oracle(f) is True
    g = LatticeMap(c3, c2, (0, 1, 0))
    assert is_homomorphism(g) == oracle(g) is False


def homomorphism_by_pairs(src, tgt, t):
    """Both bounds kept and every binary meet and join, pair by pair."""
    return (t[src.bot] == tgt.bot and t[src.top] == tgt.top
            and all(t[src.join[a][b]] == tgt.join[t[a]][t[b]]
                    and t[src.meet[a][b]] == tgt.meet[t[a]][t[b]]
                    for a in range(src.size) for b in range(src.size)))


def test_homomorphism_against_the_pair_loop():
    """is_homomorphism, read off the preimages of principal down- and
    up-sets, on every map between the lattices 0 + P + 1 with at most 4
    elements, against the loop over all pairs."""
    lats = [lat for lat in labelled_lattices(4)
            if lat.bot == 0 and lat.top == lat.size - 1]
    verdicts = collections.Counter()
    for src, tgt in itertools.product(lats, repeat=2):
        for table in itertools.product(range(tgt.size), repeat=src.size):
            got = is_homomorphism(LatticeMap(src, tgt, table))
            assert got == homomorphism_by_pairs(src, tgt, table), \
                (src.up, tgt.up, table)
            verdicts[got] += 1
    assert (verdicts[True], verdicts[False]) == (116, 2790)


def test_macneille_of_chain_and_antichain():
    assert cut_completion([0b11, 0b10]).lattice.size == 2

    anti = cut_completion([0b01, 0b10])
    # bottom, the two (incomparable) elements, top: the Boolean square
    assert anti.lattice.size == 4
    assert is_distributive(anti.lattice)
    ex, ey = anti.f
    assert not anti.lattice.leq(ex, ey) and not anti.lattice.leq(ey, ex)


def test_macneille_density():
    # every cut is a join of embedded cuts below it and a meet of
    # embedded cuts above it
    # a <= c and b <= c
    cl = cut_completion([0b101, 0b110, 0b100])
    lat = cl.lattice
    embedded = set(cl.f)
    for u in range(lat.size):
        jn = lat.bot
        mt = lat.top
        for e in embedded:
            if lat.leq(e, u):
                jn = lat.join[jn][e]
            if lat.leq(u, e):
                mt = lat.meet[mt][e]
        assert jn == u and mt == u


def preorders(n):
    """Every reflexive transitive relation on n points, as up-set masks."""
    off = [(a, b) for a in range(n) for b in range(n) if a != b]
    for choice in range(1 << len(off)):
        up = [1 << a for a in range(n)]
        for k, (a, b) in enumerate(off):
            if choice >> k & 1:
                up[a] |= 1 << b
        if all(up[b] & ~up[a] == 0 for a in range(n) for b in bits(up[a])):
            yield up


def test_macneille_cuts_against_the_closure():
    # the cuts are the sets closed under lower-bounds-of-upper-bounds,
    # saturated one point at a time, on every preorder with at most 4
    # points (1, 4, 29, 355 of them)
    counts = []
    for n in range(1, 5):
        counts.append(0)
        for up in preorders(n):
            counts[-1] += 1
            down = transpose(up, n)

            def close(mask):
                ub = lb = (1 << n) - 1
                for x in bits(mask):
                    ub &= up[x]
                for y in bits(ub):
                    lb &= down[y]
                return lb

            cuts = closed_family(n, close)
            cl = cut_completion(up)
            assert cl.extents == tuple(cuts), up
            assert cl.f == cl.g == tuple(cuts.index(close(1 << x))
                                         for x in range(n)), up
            assert cl.lattice.up == tuple(inclusion_up(cuts)), up
    assert counts == [1, 4, 29, 355]


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 20 - 1), st.integers(2, 5))
def test_macneille_of_random_preorders_is_a_lattice(seedbits, n):
    # random reflexive relation, transitively closed
    up = [1 << a for a in range(n)]
    k = 0
    for a in range(n):
        for b in range(n):
            if a != b and seedbits >> k & 1:
                up[a] |= 1 << b
            k += 1
    changed = True
    while changed:
        changed = False
        for a in range(n):
            out = up[a]
            for b in bits(up[a]):
                out |= up[b]
            if out != up[a]:
                up[a] = out
                changed = True
    cl = cut_completion(up)
    assert lattice_laws_hold(cl.lattice)
    # embedding is monotone both ways modulo preorder equivalence
    for a in range(n):
        for b in range(n):
            assert cl.lattice.leq(cl.f[a], cl.f[b]) == bool(up[a] >> b & 1)
    # density: every cut is a join of embedded elements below it and a
    # meet of embedded elements above it
    lat = cl.lattice
    for u in range(lat.size):
        jn, mt = lat.bot, lat.top
        for e in cl.f:
            if lat.leq(e, u):
                jn = lat.join[jn][e]
            if lat.leq(u, e):
                mt = lat.meet[mt][e]
        assert jn == u and mt == u


def test_completion_of_a_lattice_is_itself():
    """On every lattice with at most 5 elements the concept lattice of
    the order polarity has the principal down-sets as its closed sets,
    f == g, and f is a bijective homomorphism L -> C."""
    count = 0
    for lat in labelled_lattices(5):
        cl = cut_completion(lat.up)
        assert sorted(cl.extents) == sorted(lat.down), lat.up
        assert cl.f == cl.g, lat.up
        assert sorted(cl.f) == list(range(lat.size)), lat.up
        assert is_homomorphism(LatticeMap(lat, cl.lattice, cl.f)), lat.up
        count += 1
    assert count == 425


def test_find_isomorphism_basics(corpus):
    c2 = corpus["C2"].lattice
    c3 = corpus["C3"].lattice
    b2 = corpus["B2"].lattice
    ident = find_isomorphism(c2, c2)
    assert ident is not None and ident.table == (0, 1)
    assert find_isomorphism(c3, b2) is None
