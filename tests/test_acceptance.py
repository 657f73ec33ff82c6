"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Budgets are wall-clock guards asserted inside the tests.
"""

import itertools
import time

import pytest

from oracles import (
    cut_completion,
    generator_iso_by_loops,
    intersection_polarity,
    polarity_preorder_pairs,
)
from proxlat import fixtures
from proxlat.canext import (
    concept_lattice,
    pi_extension,
    pi_sigma_comparison,
    sigma_extension,
    verify_extension,
)
from proxlat.cli import main as cli_main
from proxlat.morphext import check_preservation, compare_with_dual, extend_pi
from proxlat.proximity import (
    all_j_morphisms,
    identity_morphism,
    increasing_presentation,
    morph_compose,
    round_subsets,
    transpose_to_hom,
    transpose_to_morphism,
    verify_axioms,
)
from proxlat.relations import compose, relation_from_pairs
from proxlat.spectra import (
    all_t0_spaces,
    canext_via_duality,
    co_compact_dual,
    dual_map,
    prime_filter_between,
    prime_round_filters,
    spectrum_roundtrip,
)

CORPUS = fixtures.corpus()
DISTRIBUTIVE = {k: v for k, v in CORPUS.items() if v.distributive}

EXPECTED_FLAGS = {
    "C2": dict(axioms_ok=True, join_strong=True, meet_strong=True,
               increasing=True, reflexive=True, distributive=True),
    "C3": dict(axioms_ok=True, join_strong=True, meet_strong=True,
               increasing=True, reflexive=True, distributive=True),
    "B2": dict(axioms_ok=True, join_strong=True, meet_strong=True,
               increasing=True, reflexive=True, distributive=True),
    "M3": dict(axioms_ok=True, join_strong=True, meet_strong=True,
               increasing=True, reflexive=True, distributive=False),
    "FULL2": dict(axioms_ok=True, join_strong=True, meet_strong=True,
                  increasing=False, reflexive=True, distributive=True),
    "C3R": dict(axioms_ok=True, join_strong=True, meet_strong=True,
                increasing=True, reflexive=False, distributive=True),
}


def _verdict(number, ok, text):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {text}")
    assert ok, f"criterion {number}: {text}"


def test_criterion_01_axiom_suite():
    start = time.monotonic()
    ok = True
    for name, flags in EXPECTED_FLAGS.items():
        p = CORPUS[name]
        report = verify_axioms(p.lattice, p.R)
        got = report.flags()
        for key, value in flags.items():
            ok = ok and got[key] == value
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 1.0
    _verdict(1, ok, f"axiom flags exact on all six fixtures ({elapsed:.3f}s < 1s)")


def test_criterion_02_existence():
    ok = True
    for name, p in CORPUS.items():
        if p.join_strong:
            ok = ok and verify_extension(pi_extension(p)).passes("pi")
        if p.meet_strong:
            ok = ok and verify_extension(sigma_extension(p)).passes("sigma")
    _verdict(2, ok, "pi/sigma extensions verify (dense, compact, preserving) "
                    "on every join-/meet-strong fixture")


def test_criterion_03_uniqueness_oracle():
    ok = True
    for name, p in CORPUS.items():
        pol, _, _ = intersection_polarity(p)
        cl = concept_lattice(pol)
        n = pol.nx + pol.ny
        pairs = polarity_preorder_pairs(pol)
        mc = cut_completion(relation_from_pairs(n, n, pairs).rows)
        phi = generator_iso_by_loops(cl.lattice, cl.f, cl.g, mc.lattice,
                                     mc.f[: pol.nx], mc.f[pol.nx:])
        ok = ok and phi is not None
    _verdict(3, ok, "concept lattice isomorphic to the cut completion of the "
                    "two-sorted preorder, generators commuting, all fixtures")


def test_criterion_04_pi_sigma_dichotomy():
    ok = True
    for name, p in CORPUS.items():
        if not p.doubly_strong:
            continue
        rep = pi_sigma_comparison(p)
        ok = ok and rep.equivalent and rep.reflexive == p.reflexive
    # mandatory negative witness: the middle of C3R embeds at bottom in
    # the pi extension and at top in the sigma extension
    h = pi_extension(CORPUS["C3R"])
    k = sigma_extension(CORPUS["C3R"])
    ok = ok and h.embed[1] == h.C.bot and k.embed[1] == k.C.top
    ok = ok and not pi_sigma_comparison(CORPUS["C3R"]).phi_exists
    _verdict(4, ok, "reflexive iff embeddings-compatible isomorphism exists, "
                    "with C3R as the negative witness")


def test_criterion_05_morphism_extension():
    start = time.monotonic()
    exts = {k: pi_extension(v) for k, v in DISTRIBUTIVE.items()}
    count = 0
    ok = True
    for (na, a), (nb, b) in itertools.product(DISTRIBUTIVE.items(), repeat=2):
        for t in all_j_morphisms(a, b):
            count += 1
            m = extend_pi(t, exts[na], exts[nb])  # asserts the extension lemma
            rep = check_preservation(m)
            ok = ok and rep.all_meets and rep.directed_ideal_joins \
                and rep.finite_ideal_joins
            ok = ok and compare_with_dual(m, dual_map(t))
    elapsed = time.monotonic() - start
    ok = ok and count >= 20 and elapsed < 60.0
    _verdict(5, ok, f"{count} j-morphisms extended; meets, directed and "
                    f"finite ideal joins preserved; dual transport exact "
                    f"({elapsed:.2f}s < 60s)")


def test_criterion_06_prime_round_filter_theorem():
    ok = True
    for name, p in DISTRIBUTIVE.items():
        for g in round_subsets(p, "filter"):
            for j in round_subsets(p, "ideal"):
                f0 = prime_filter_between(p, g, j)
                if g.members & j.members:
                    ok = ok and f0 is None
                else:
                    ok = ok and f0 is not None
                    ok = ok and g.members & ~f0.members == 0
                    ok = ok and not f0.members & j.members
    ok = ok and prime_round_filters(CORPUS["M3"]) == ()
    _verdict(6, ok, "prime filter found for every disjoint filter/ideal pair "
                    "on distributive fixtures; M3 has zero prime filters")


def test_criterion_07_duality_round_trips():
    ok = True
    for name, p in DISTRIBUTIVE.items():
        result = canext_via_duality(p)
        ok = ok and result.iso is not None
    count = 0
    for n in range(5):
        for sp in all_t0_spaces(n):
            count += 1
            ok = ok and spectrum_roundtrip(sp)
            ok = ok and co_compact_dual(co_compact_dual(sp)).opens == sp.opens
    _verdict(7, ok, f"extension-via-spectrum isomorphism on all distributive "
                    f"fixtures; spectrum round trip and co-compact involution "
                    f"on {count} T0 spaces up to 4 points")


def test_criterion_08_category_laws():
    ok = True
    morphisms = {}
    for (na, a), (nb, b) in itertools.product(DISTRIBUTIVE.items(), repeat=2):
        morphisms[(na, nb)] = all_j_morphisms(a, b)
    # identity laws and closure under composition
    for (na, nb), ts in morphisms.items():
        ia = identity_morphism(DISTRIBUTIVE[na])
        ib = identity_morphism(DISTRIBUTIVE[nb])
        for t in ts:
            ok = ok and morph_compose(ia, t).T == t.T
            ok = ok and morph_compose(t, ib).T == t.T
            for (nc, nd), us in morphisms.items():
                if nc != nb:
                    continue
                for u in us:
                    ok = ok and morph_compose(t, u).is_j
    # functoriality of the hom-to-morphism construction
    from proxlat.lattice import LatticeMap, compose_maps, is_homomorphism
    from proxlat.proximity import hom_as_morphism
    lats = [CORPUS[k].lattice for k in ("C2", "C3", "B2")]

    def homs(x, y):
        for table in itertools.product(range(y.size), repeat=x.size):
            f = LatticeMap(x, y, table)
            if is_homomorphism(f):
                yield f

    for x, y, z in itertools.product(lats, repeat=3):
        for h in homs(x, y):
            for k in homs(y, z):
                ok = ok and hom_as_morphism(compose_maps(h, k)).T == \
                    morph_compose(hom_as_morphism(h), hom_as_morphism(k)).T
    # adjunction transposes are mutually inverse
    from proxlat.proximity import order_proximity
    for name, p in CORPUS.items():
        src = order_proximity(CORPUS["C3"].lattice)
        for t in all_j_morphisms(src, p):
            f = transpose_to_hom(t)
            ok = ok and transpose_to_morphism(f).T == t.T
            ok = ok and transpose_to_hom(transpose_to_morphism(f)).values == f.values
    _verdict(8, ok, "identity laws, composition closure, functoriality, and "
                    "transpose round trips, exhaustive on the corpus")


def test_criterion_09_increasing_presentation():
    ok = True
    for name, p in CORPUS.items():  # every fixture is join-strong
        pres = increasing_presentation(p)
        ok = ok and pres.output.increasing and pres.output.join_strong
        ok = ok and compose(pres.phi.T, pres.psi.T) == p.R.converse()
        ok = ok and compose(pres.psi.T, pres.phi.T) == \
            pres.ideals.way_below.converse()
    _verdict(9, ok, "way-below presentation increasing and join-strong with "
                    "both composition identities, all fixtures")


def test_criterion_10_cli_determinism(capsys, tmp_path):
    from proxlat.formats import dumps, morphism_to_doc

    ok = True
    verbs = [("check", ()), ("canext", ()), ("canext", ("--kind", "sigma")),
             ("spectrum", ()), ("dualize", ()), ("roundtrip", ()),
             ("export-dot", ())]
    targets = []
    for verb, extra in verbs:
        names = DISTRIBUTIVE if verb in ("spectrum", "roundtrip") else CORPUS
        targets.extend((verb, name, extra) for name in names)
    for name, p in CORPUS.items():
        path = tmp_path / f"ident_{name}.json"
        path.write_text(dumps(morphism_to_doc(identity_morphism(p))))
        targets.append(("extend", str(path), ()))
    for verb, arg, extra in targets:
        code1 = cli_main([verb, arg, *extra])
        out1 = capsys.readouterr().out
        code2 = cli_main([verb, arg, *extra])
        out2 = capsys.readouterr().out
        ok = ok and code1 == code2 == 0
        ok = ok and out1.encode() == out2.encode()
    with capsys.disabled():
        _verdict(10, ok, "byte-identical CLI output across two runs, "
                         "every verb, full fixture corpus")
