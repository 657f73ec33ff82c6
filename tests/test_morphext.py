"""Extension of morphisms to the canonical extensions."""

import dataclasses
import itertools
from types import SimpleNamespace

import pytest

from oracles import (
    directed_pair_by_filter,
    join_of_image,
    pi_table_two_stage,
    sigma_table_by_adjoint,
)
from proxlat import spectra
from proxlat.canext import pi_extension, sigma_extension
from proxlat.errors import ExtensionError, KindMismatch, NotAProximityMorphism
from proxlat.lattice import LatticeMap, is_homomorphism, lattice_from_up
from proxlat.morphext import (
    check_preservation,
    compare_with_dual,
    extend_pi,
    extend_sigma,
)
from proxlat.proximity import (
    all_j_morphisms,
    all_proximity_morphisms,
    fixed_points,
    identity_morphism,
    morph_compose,
    opposite_proximity,
    order_proximity,
    proximity_morphism,
)
from proxlat.relations import Relation, full_relation
from proxlat.spectra import dual_map
from test_canext import (
    labelled_proximity_lattices,
    perturbed,
    proximity_lattices_on,
)


@pytest.fixture(scope="module")
def pi_exts(distributive_corpus):
    return {k: pi_extension(v) for k, v in distributive_corpus.items()}


def chain(n):
    return lattice_from_up([f"c{i}" for i in range(n)],
                           [((1 << n) - 1) & ~((1 << i) - 1) for i in range(n)])


def test_identity_extends_to_identity(corpus, pi_exts):
    c3r = corpus["C3R"]
    m = extend_pi(identity_morphism(c3r), pi_exts["C3R"], pi_exts["C3R"])
    assert m.table == tuple(range(pi_exts["C3R"].C.size))

    c2 = corpus["C2"]
    m2 = extend_pi(identity_morphism(c2), pi_exts["C2"], pi_exts["C2"])
    assert m2.table == tuple(range(pi_exts["C2"].C.size))


def test_full_relation_extension_against_brute_force(corpus, pi_exts):
    # the all-pairs relation C3R -> C3R is a proximity morphism whose
    # extension is computed independently from the two-stage definition
    c3r = corpus["C3R"]
    t = proximity_morphism(c3r, c3r, full_relation(3, 3))
    assert t.is_proximity
    e = pi_exts["C3R"]
    m = extend_pi(t, e, e)

    c = e.C
    ideal_elems = sorted(set(e.g))
    expected = []
    for u in range(c.size):
        out = c.top
        for y in ideal_elems:
            if not c.leq(u, y):
                continue
            acc = c.bot
            for b in range(c3r.size):
                if any(c.leq(e.embed[a], y) for a in range(c3r.size)
                       if t.T.has(a, b)):
                    acc = c.join[acc][e.embed[b]]
            out = c.meet[out][acc]
        expected.append(out)
    assert m.table == tuple(expected)


def test_one_stage_against_the_two_stage_definition(corpus):
    """extend_pi gives the table of both stages of the definition
    (oracles.pi_table_two_stage), and extend_sigma the upper adjoint of
    that table for T^-1 between the opposites
    (oracles.sigma_table_by_adjoint), on every proximity morphism
    between the proximity lattices on the labelled lattices with at
    most 4 elements and on M3 (morphext module docstring). Every report
    is required_ok, the sigma ones read with the j flag too."""
    carriers = labelled_proximity_lattices(4) + list(
        proximity_lattices_on(corpus["M3"].lattice))
    checked = {"pi": 0, "sigma": 0, "sigma_m": 0}
    for a, b in itertools.product(carriers, repeat=2):
        for t in all_proximity_morphisms(a, b):
            for kind, strong, build, extend, oracle in (
                    ("pi", "join_strong", pi_extension, extend_pi,
                     pi_table_two_stage),
                    ("sigma", "meet_strong", sigma_extension, extend_sigma,
                     sigma_table_by_adjoint)):
                if not (getattr(a, strong) and getattr(b, strong)):
                    continue
                e_a, e_b = build(a), build(b)
                m = extend(t, e_a, e_b)
                assert m.table == oracle(t.T, e_a, e_b), (kind, t.T.rows)
                assert check_preservation(m).required_ok, (kind, t.T.rows)
                checked[kind] += 1
                checked["sigma_m"] += kind == "sigma" and t.is_m
    assert checked == {"pi": 5315, "sigma": 5315, "sigma_m": 2402}


def test_extension_property_for_all_corpus_morphisms(distributive_corpus, pi_exts):
    """On every proximity morphism between distributive fixtures the
    extended map sends each embedded element e(a) to the join of the
    embedded image of T[a], and is monotone: extend_pi reads both off
    tau without checking them (morphext module docstring)."""
    for (na, a), (nb, b) in itertools.product(distributive_corpus.items(), repeat=2):
        e_a, e_b = pi_exts[na], pi_exts[nb]
        c_a, c_b = e_a.C, e_b.C
        for t in all_proximity_morphisms(a, b):
            table = extend_pi(t, e_a, e_b).table
            for x in range(a.size):
                assert table[e_a.embed[x]] == \
                    join_of_image(c_b, e_b.embed, t.T.rows[x]), (na, nb, x)
            assert all(c_b.leq(table[u], table[v])
                       for u in range(c_a.size) for v in range(c_a.size)
                       if c_a.leq(u, v)), (na, nb, t.T.rows)


def test_preservation_for_j_morphisms(distributive_corpus, pi_exts):
    for (na, a), (nb, b) in itertools.product(distributive_corpus.items(), repeat=2):
        for t in all_j_morphisms(a, b):
            rep = check_preservation(extend_pi(t, pi_exts[na], pi_exts[nb]))
            assert rep.all_meets, (na, nb)
            assert rep.directed_ideal_joins, (na, nb)
            assert rep.finite_ideal_joins, (na, nb)
            # distributive sources: the dual transport predicts all joins
            assert rep.all_joins, (na, nb)


def test_finite_ideal_joins_leave_out_the_empty_join(corpus, pi_exts):
    # the full relation on C2 sends the bottom of C, an ideal element,
    # to the top: only all_joins, which has the empty join, fails
    c2 = corpus["C2"]
    e = pi_exts["C2"]
    m = extend_pi(proximity_morphism(c2, c2, full_relation(2, 2)), e, e)
    bot = e.C.bot
    assert bot in e.ideal_elements() and m.table[bot] != bot
    rep = check_preservation(m)
    assert rep.finite_ideal_joins
    assert rep.witnesses == (("all_joins", (bot,)),)


def test_preservation_for_non_j_morphisms(distributive_corpus, pi_exts):
    # proximity morphisms that are not j-morphisms must still preserve
    # meets and directed ideal joins; finite ideal joins may fail
    seen_non_j = 0
    for (na, a), (nb, b) in itertools.product(distributive_corpus.items(), repeat=2):
        for t in all_proximity_morphisms(a, b):
            if t.is_j:
                continue
            seen_non_j += 1
            rep = check_preservation(extend_pi(t, pi_exts[na], pi_exts[nb]))
            assert rep.all_meets, (na, nb)
            assert rep.directed_ideal_joins, (na, nb)
    assert seen_non_j > 0


def test_functoriality_of_both_extensions():
    """pi(T;U) = pi(U) o pi(T) and sigma(T;U) = sigma(U) o sigma(T) on
    every composable pair of proximity morphisms among the first 20
    labelled carriers with at most 4 elements; the morphext module
    docstring proves both for every pair. Canonical extensions of maps
    need not compose in general (Gehrke & Jonsson, "Bounded
    distributive lattice expansions", Math. Scand. 94, 2004). The sigma
    pairs include 2,877 pairs of m-morphisms."""
    carriers = labelled_proximity_lattices(4)[:20]
    morphisms = {(a, b): all_proximity_morphisms(carriers[a], carriers[b])
                 for a in range(20) for b in range(20)}
    checked = {"pi": 0, "sigma": 0, "sigma_m": 0}
    for a, b, c in itertools.product(range(20), repeat=3):
        kinds = [(kind, build, extend) for kind, strong, build, extend in (
            ("pi", "join_strong", pi_extension, extend_pi),
            ("sigma", "meet_strong", sigma_extension, extend_sigma))
            if all(getattr(carriers[x], strong) for x in (a, b, c))]
        for t, u in itertools.product(morphisms[a, b], morphisms[b, c]):
            tu = morph_compose(t, u)
            for kind, build, extend in kinds:
                e_a, e_b, e_c = (build(carriers[x]) for x in (a, b, c))
                first = extend(t, e_a, e_b).table
                then = extend(u, e_b, e_c).table
                assert extend(tu, e_a, e_c).table == \
                    tuple(then[x] for x in first), (kind, t.T.rows, u.T.rows)
                checked[kind] += 1
                checked["sigma_m"] += kind == "sigma" and t.is_m and u.is_m
    assert checked == {"pi": 14810, "sigma": 14810, "sigma_m": 2877}


def test_compare_with_dual(distributive_corpus, pi_exts):
    for (na, a), (nb, b) in itertools.product(distributive_corpus.items(), repeat=2):
        for t in all_j_morphisms(a, b):
            m = extend_pi(t, pi_exts[na], pi_exts[nb])
            assert compare_with_dual(m, dual_map(t)), (na, nb)


def test_compare_with_dual_refuses_the_dual_of_another_morphism(corpus):
    # the rows (1, 7) are a j-morphism C2 -> C3 and C2 -> C3R alike; the
    # dual of the second runs between other carriers and gets no verdict
    c2, c3, c3r = corpus["C2"], corpus["C3"], corpus["C3R"]
    rows = Relation(2, 3, (1, 7))
    t = proximity_morphism(c2, c3, rows)
    m = extend_pi(t, pi_extension(c2), pi_extension(c3))
    assert compare_with_dual(m, dual_map(t))
    assert compare_with_dual(m, dual_map(proximity_morphism(c2, c3, rows)))
    other = proximity_morphism(c2, c3r, rows)
    assert other.is_j
    with pytest.raises(KindMismatch):
        compare_with_dual(m, dual_map(other))


def test_compare_with_dual_refuses_a_sigma_map(corpus):
    # under the full relation on C2 both extensions are one element, so
    # a sigma map has the C of the kept pi build; it still gets no verdict
    full2 = corpus["FULL2"]
    ident = identity_morphism(full2)
    k = sigma_extension(full2)
    assert k.C == pi_extension(full2).C and k.C.size == 1
    with pytest.raises(KindMismatch):
        compare_with_dual(extend_sigma(ident, k, k), dual_map(ident))


def test_duality_is_built_once_per_carrier(distributive_corpus, monkeypatch):
    """Over every j-morphism between the distributive corpus carriers,
    each carrier's spectrum and duality build run once; dual_map and
    compare_with_dual read what the carriers keep."""
    built = {"spectrum": [], "duality": []}

    def counting(name, fn, at):
        def run(*args, **kwargs):
            built[name].append(args[at])
            return fn(*args, **kwargs)
        return run

    # each runs once per build, with the carrier as argument `at`:
    # prime_round_filters in spectrum, the record of the saturated-set
    # extension in canext_via_duality
    monkeypatch.setattr(spectra, "prime_round_filters",
                        counting("spectrum", spectra.prime_round_filters, 0))
    monkeypatch.setattr(spectra, "CanonicalExtension",
                        counting("duality", spectra.CanonicalExtension, 1))
    carriers = [dataclasses.replace(p) for p in distributive_corpus.values()]
    morphisms = 0
    for a, b in itertools.product(carriers, repeat=2):
        for t in all_j_morphisms(a, b):
            m = extend_pi(t, pi_extension(a), pi_extension(b))
            assert compare_with_dual(m, dual_map(t))
            morphisms += 1
    assert morphisms > len(carriers)
    for name, seen in built.items():
        assert sorted(map(id, seen)) == sorted(map(id, carriers)), name


def test_extend_pi_rejects_bad_inputs(corpus, pi_exts):
    c3r = corpus["C3R"]
    not_prox = proximity_morphism(c3r, c3r, c3r.R)
    with pytest.raises(NotAProximityMorphism):
        extend_pi(not_prox, pi_exts["C3R"], pi_exts["C3R"])
    with pytest.raises(KindMismatch):
        extend_pi(identity_morphism(c3r), pi_exts["C3R"],
                  sigma_extension(c3r))


@pytest.mark.parametrize("build,extend", [(pi_extension, extend_pi),
                                          (sigma_extension, extend_sigma)])
def test_an_embedding_that_collapses_fixed_points_is_refused(corpus, build,
                                                             extend):
    # on the order proximity of B2 every element is a fixed point; a
    # record that sends the top where the bottom goes is no extension,
    # on either side of the morphism
    p = corpus["B2"]
    e = build(p)
    embed = list(e.embed)
    embed[p.lattice.top] = embed[p.lattice.bot]
    bad = dataclasses.replace(e, embed=tuple(embed))
    ident = identity_morphism(p)
    for ends in ((bad, e), (e, bad)):
        with pytest.raises(ExtensionError, match="one to one onto C"):
            extend(ident, *ends)


def test_sigma_extension_of_m_morphisms(distributive_corpus):
    """m-morphisms between the distributive fixtures extend between
    sigma extensions: sigma(T) is the upper adjoint of g, the
    pi-extension of T^-1 between the opposites read in the sigma order,
    it agrees with T on the embedded fixed points of nu, e(x) going to
    the join of the embedded image of T[x], and its report, read in
    C_sigma, is required_ok."""
    checked = 0
    for a, b in itertools.product(distributive_corpus.values(), repeat=2):
        s_a, s_b = sigma_extension(a), sigma_extension(b)
        op_a, op_b = opposite_proximity(a), opposite_proximity(b)
        for t in all_proximity_morphisms(a, b):
            if not t.is_m:
                continue
            m = extend_sigma(t, s_a, s_b)
            assert check_preservation(m).required_ok, t.T.rows
            g = extend_pi(proximity_morphism(op_b, op_a, t.T.converse()),
                          pi_extension(op_b), pi_extension(op_a)).table
            for x, y in itertools.product(range(s_a.C.size), range(s_b.C.size)):
                assert s_a.C.leq(g[y], x) == s_b.C.leq(y, m.table[x]), \
                    (t.T.rows, x, y)
            for x in fixed_points(op_a):
                assert m.table[s_a.embed[x]] == \
                    join_of_image(s_b.C, s_b.embed, t.T.rows[x]), t.T.rows
            checked += 1
    assert checked > 0


def test_sigma_extension_of_the_identity_is_the_identity(corpus):
    """The sigma extension of the identity j-morphism R^-1 is the
    identity of C, as is its pi extension, on the order proximity of B2
    and on the 334 doubly strong labelled carriers with at most 5
    elements."""
    carriers = [p for p in labelled_proximity_lattices(5) if p.doubly_strong]
    assert len(carriers) == 334
    for p in [order_proximity(corpus["B2"].lattice)] + carriers:
        ident = identity_morphism(p)
        for build, extend in ((pi_extension, extend_pi),
                              (sigma_extension, extend_sigma)):
            ext = build(p)
            assert extend(ident, ext, ext).table == tuple(range(ext.C.size)), \
                (ext.kind, p.R.rows)


def test_directed_joins_fail_for_a_non_monotone_map(corpus):
    # swapping the images of two comparable ideal elements breaks the
    # directed family {y, g}; the 16-chain has more than 14 of them
    for p in (corpus["C3"], order_proximity(chain(16))):
        ext = pi_extension(p)
        m = extend_pi(identity_morphism(p), ext, ext)
        assert check_preservation(m).directed_ideal_joins
        y, g = ext.g[0], ext.g[-1]
        assert ext.C.leq(y, g) and y != g
        table = list(m.table)
        table[y], table[g] = table[g], table[y]
        rep = check_preservation(dataclasses.replace(m, table=tuple(table)))
        assert not rep.directed_ideal_joins
        y2, g2 = dict(rep.witnesses)["directed_ideal_joins"]
        assert ext.C.leq(y2, g2) and not ext.C.leq(table[y2], table[g2])


def test_directed_joins_against_the_pair_filter(corpus):
    # the identity extended both ways on C3, B2 and the 16-chain, with
    # every entry of its table moved and every pair of entries swapped:
    # the first failed pair is the one the filter over all pairs finds,
    # each map read in its own lattices
    failed = 0
    for p in (corpus["C3"], corpus["B2"], order_proximity(chain(16))):
        pi_ext, sigma_ext = pi_extension(p), sigma_extension(p)
        for m in (extend_pi(identity_morphism(p), pi_ext, pi_ext),
                  extend_sigma(identity_morphism(p), sigma_ext, sigma_ext)):
            c_src, c_tgt = m.source_ext.C, m.target_ext.C
            ideal_elems = m.source_ext.ideal_elements()
            for table in perturbed(m.table, c_tgt.size):
                rep = check_preservation(dataclasses.replace(m, table=table))
                want = directed_pair_by_filter(c_src, c_tgt, table,
                                               ideal_elems)
                got = dict(rep.witnesses).get("directed_ideal_joins")
                assert got == want, table
                failed += want is not None
    assert failed > 0


def test_one_witness_per_failed_property():
    # the swapped map above fails the empty meet and the empty join; each
    # property reports its first failed instance and no other
    p = order_proximity(chain(16))
    ext = pi_extension(p)
    m = extend_pi(identity_morphism(p), ext, ext)
    table = list(m.table)
    y, g = ext.g[0], ext.g[-1]
    table[y], table[g] = table[g], table[y]
    rep = check_preservation(dataclasses.replace(m, table=tuple(table)))
    names = [name for name, _ in rep.witnesses]
    assert len(names) == len(set(names))
    assert dict(rep.witnesses)["all_meets"] == (ext.C.top,)
    assert dict(rep.witnesses)["all_joins"] == (ext.C.bot,)


def loop_witnesses(src, tgt, table, ideal_elems):
    """The meet and join loops check_preservation ran before it shared
    one join-side kernel, kept as its oracle: every witness they record,
    in order, for all_meets, finite_ideal_joins and all_joins."""
    witnesses = []
    all_meets = table[src.top] == tgt.top
    if not all_meets:
        witnesses.append(("all_meets", (src.top,)))
    for u in range(src.size):
        for v in range(u, src.size):
            if table[src.meet[u][v]] != tgt.meet[table[u]][table[v]]:
                all_meets = False
                witnesses.append(("all_meets", (u, v)))
                break
        if not all_meets:
            break
    finite_joins = True
    for y1 in ideal_elems:
        for y2 in ideal_elems:
            if table[src.join[y1][y2]] != tgt.join[table[y1]][table[y2]]:
                finite_joins = False
                witnesses.append(("finite_ideal_joins", (y1, y2)))
                break
        if not finite_joins:
            break
    all_joins = table[src.bot] == tgt.bot
    if not all_joins:
        witnesses.append(("all_joins", (src.bot,)))
    for u in range(src.size):
        for v in range(u, src.size):
            if table[src.join[u][v]] != tgt.join[table[u]][table[v]]:
                all_joins = False
                witnesses.append(("all_joins", (u, v)))
                break
        if not all_joins:
            break
    return witnesses


def loop_is_homomorphism(src, tgt, t):
    if t[src.bot] != tgt.bot or t[src.top] != tgt.top:
        return False
    for a in range(src.size):
        for b in range(a, src.size):
            if t[src.meet[a][b]] != tgt.meet[t[a]][t[b]]:
                return False
            if t[src.join[a][b]] != tgt.join[t[a]][t[b]]:
                return False
    return True


@pytest.mark.parametrize("a,b", [("C3", "B2"), ("B2", "B2"), ("M3", "C3"),
                                 ("C3", "M3")])
def test_preservation_kernel_against_loops(corpus, a, b):
    # every map between the two carriers, read as an extended map of
    # either kind and in the map's own lattices whatever the kind, with
    # every element as an ideal element or those of even index
    src, tgt = corpus[a].lattice, corpus[b].lattice
    families = (tuple(range(src.size)), tuple(range(0, src.size, 2)))
    for table in itertools.product(range(tgt.size), repeat=src.size):
        assert is_homomorphism(LatticeMap(src, tgt, table)) == \
            loop_is_homomorphism(src, tgt, table)
        for kind, family in itertools.product(("pi", "sigma"), families):
            ext = SimpleNamespace(C=src, ideal_elements=lambda: family)
            m = SimpleNamespace(kind=kind, source_ext=ext,
                                target_ext=SimpleNamespace(C=tgt),
                                morphism=SimpleNamespace(is_j=True),
                                table=table)
            rep = check_preservation(m)
            first = {}
            for name, witness in loop_witnesses(src, tgt, table, family):
                first.setdefault(name, witness)
            got = dict(rep.witnesses)
            assert got.pop("directed_ideal_joins", None) == \
                directed_pair_by_filter(src, tgt, table, family)
            assert got == first, (kind, table)
            for name in ("all_meets", "finite_ideal_joins", "all_joins"):
                assert getattr(rep, name) == (name not in first)
