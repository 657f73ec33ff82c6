"""Polarities, concept lattices, extensions, uniqueness, and the
pi/sigma dichotomy."""

import dataclasses
import itertools
import random

import pytest

from oracles import (
    assert_generation_by_loops,
    closed_family,
    generator_iso_by_loops,
    intersection_polarity,
    kept_value,
    pi_extension_by_polarity,
    sigma_extension_explicit,
    verify_extension_by_loops,
)
from proxlat.bitset import bits
from proxlat.canext import (
    CanonicalExtension,
    Polarity,
    _assert_generation,
    _forced_iso,
    check_uniqueness,
    concept_lattice,
    galois_maps,
    pi_extension,
    pi_sigma_comparison,
    polarity_preorder_pairs,
    sigma_extension,
    verify_extension,
)
from proxlat.errors import (
    ExtensionError,
    InternalCheckError,
    NotJoinStrong,
    NotMeetStrong,
)
from proxlat.lattice import (
    _intersection_closure,
    dedekind_macneille,
    find_isomorphism,
    lattice_from_up,
    opposite,
    preorder,
)
from proxlat.proximity import (
    ProximityLattice,
    fixed_points,
    opposite_proximity,
    proximity_lattice,
    round_filter_masks,
    verify_axioms,
)
from proxlat.relations import Relation, order_relation
from proxlat.spectra import all_posets


def polarity_of(p):
    pol, _, _ = intersection_polarity(p)
    return pol


def chain(n):
    return lattice_from_up([f"c{i}" for i in range(n)],
                           [((1 << n) - 1) & ~((1 << i) - 1) for i in range(n)])


def carriers_64():
    """The 64-chain and B6 with their orders, and the C3R-style carrier:
    a 64-chain listed in a seeded order, x R y iff x is bottom or y is
    top."""
    n = 64
    chain64 = chain(n)
    labels = [f"e{i}" for i in range(n)]
    b6 = lattice_from_up(labels, [sum(1 << j for j in range(n) if i & j == i)
                                  for i in range(n)])
    order = list(range(n))
    random.Random(64).shuffle(order)
    pos = {old: new for new, old in enumerate(order)}
    c3r = lattice_from_up(labels, [sum(1 << pos[b] for b in bits(chain64.up[old]))
                                   for old in order])
    c3r_rel = Relation(n, n, tuple(c3r.full if a == c3r.bot else 1 << c3r.top
                                   for a in range(n)))
    return [proximity_lattice(chain64, order_relation(chain64)),
            proximity_lattice(b6, order_relation(b6)),
            proximity_lattice(c3r, c3r_rel)]


def assert_closed_sets_against_oracle(pol):
    """The closed sets and generator maps of concept_lattice against the
    closure saturated one point at a time."""
    _, r, close = galois_maps(pol)
    want = closed_family(pol.nx, close)
    polars = [r(1 << y) for y in range(pol.ny)]
    assert _intersection_closure((1 << pol.nx) - 1, polars) == want
    cl = concept_lattice(pol)
    assert cl.extents == tuple(want)
    assert cl.f == tuple(want.index(close(1 << x)) for x in range(pol.nx))
    assert cl.g == tuple(want.index(v) for v in polars)


def test_closed_sets_of_every_relation_on_3x3():
    for rows in itertools.product(range(8), repeat=3):
        assert_closed_sets_against_oracle(Polarity(3, 3, Relation(3, 3, rows)))


def test_closed_sets_of_seeded_relations():
    rng = random.Random(2000)
    for _ in range(2000):
        nx, ny = rng.randint(1, 8), rng.randint(1, 8)
        density = rng.random()
        rows = tuple(sum(1 << y for y in range(ny) if rng.random() < density)
                     for _ in range(nx))
        assert_closed_sets_against_oracle(Polarity(nx, ny, Relation(nx, ny, rows)))


def test_closed_sets_of_pi_and_sigma_polarities(corpus):
    for p in list(corpus.values()) + carriers_64():
        for q in (p, opposite_proximity(p)):  # pi, and sigma read upside down
            assert_closed_sets_against_oracle(polarity_of(q))


def labelled_proximity_lattices(most):
    """Every proximity lattice on every labelled lattice with at most
    `most` elements: the one-element lattice, and 0 + P + 1 for every
    labelled poset P on n - 2 points. The relations are read off the
    maps mu, as in every_proximity_lattice; only the maps that fix top
    (the empty meet of meet-compatibility) and are idempotent (R;R = R)
    can pass, so only those go to verify_axioms."""
    lattices = [lattice_from_up(["x0"], [1])]
    for n in range(2, most + 1):
        top = 1 << (n - 1)
        for up in all_posets(n - 2):
            lattices.append(lattice_from_up(
                [f"x{i}" for i in range(n)],
                [(1 << n) - 1] + [m << 1 | top for m in up] + [top]))
    out = []
    for lat in lattices:
        n = lat.size
        for mu in itertools.product(range(n), repeat=n):
            if mu[lat.top] != lat.top or any(mu[m] != m for m in mu):
                continue
            rel = Relation(n, n, tuple(lat.down[m] for m in mu)).converse()
            report = verify_axioms(lat, rel)
            if report.axioms_ok:
                out.append(ProximityLattice(lat, rel, report))
    return out


def test_pi_extension_against_the_polarity_build(corpus):
    """pi_extension reads C off mu; the concept lattice of the
    intersection polarity is its oracle, for pi and for sigma (the pi
    build of the opposite). |C| <= n, Fix mu having n members at most."""
    carriers = (list(corpus.values()) + carriers_64()
                + labelled_proximity_lattices(5))
    built = 0
    for p in carriers:
        for q in (p, opposite_proximity(p)):
            if not q.join_strong:
                continue
            got, want = pi_extension(q), pi_extension_by_polarity(q)
            assert (got.C.up, got.C.labels) == (want.C.up, want.C.labels), q.R.rows
            for name in ("extents", "embed", "f", "g"):
                assert getattr(got, name) == getattr(want, name), (q.R.rows, name)
            assert len(got.extents) <= q.size
            built += 1
    assert built == 804


def test_pi_extension_has_one_element_per_fixed_point(corpus):
    """|C| = |Fix mu| (canext module docstring), and every element of C
    is a round ideal element, as the one-stage extension of maps needs
    (morphext module docstring): every pi build, of a carrier or of its
    opposite, on the corpus and every proximity lattice on C3, C4, B2
    and M3."""
    built = 0
    carriers = list(corpus.values())
    for lat in (chain(3), chain(4), corpus["B2"].lattice,
                corpus["M3"].lattice):
        carriers.extend(proximity_lattices_on(lat))
    for p in carriers:
        for q in (p, opposite_proximity(p)):
            if q.join_strong:
                fixed = [x for x in range(q.size) if q.mu[x] == x]
                ext = pi_extension(q)
                assert ext.C.size == len(fixed), q.R.rows
                assert ext.ideal_elements() == tuple(range(ext.C.size)), \
                    q.R.rows
                built += 1
    assert built == 64


def test_pi_extension_runs_no_closure(corpus, monkeypatch):
    # pins the design: pi, and sigma through it, never route through
    # the generic polarity closure
    def closure(*args, **kwargs):
        raise AssertionError("the pi build ran the polarity closure")

    for target in ("proxlat.canext.concept_lattice",
                   "proxlat.canext.galois_maps",
                   "proxlat.canext._intersection_closure",
                   "proxlat.lattice._intersection_closure"):
        monkeypatch.setattr(target, closure)
    for name, kept in corpus.items():
        p = dataclasses.replace(kept)  # a fresh carrier keeps no build
        if p.join_strong:
            assert verify_extension(pi_extension(p)).passes("pi"), name
        if p.meet_strong:
            assert verify_extension(sigma_extension(p)).passes("sigma"), name


def test_pi_guards_raise_on_their_condition(corpus, monkeypatch):
    # each theorem guard of pi_extension, given its failing condition on
    # C3R (mu = (0, 0, 2)); a non-round filter up 1 holds 1 but not mu(1)
    import proxlat.canext as canext
    p = dataclasses.replace(corpus["C3R"])  # a fresh carrier keeps no build
    assert p.mu == (0, 0, 2)

    cases = [
        ("round_filter_masks",
         lambda q, real=canext.round_filter_masks: real(q) + (q.lattice.up[1],),
         "embedding disagrees with membership"),
        ("is_homomorphism", lambda hom: False,
         "pi embedding is not a homomorphism"),
    ]
    for name, fake, message in cases:
        with monkeypatch.context() as m:
            m.setattr(canext, name, fake)
            with pytest.raises(InternalCheckError, match=message):
                pi_extension(p)


def perturbed(values, size):
    """Every copy of `values` with one entry moved to another element of
    0..size-1, and every copy with two distinct entries swapped."""
    values = tuple(values)
    for i, v in enumerate(values):
        for w in range(size):
            if w != v:
                yield values[:i] + (w,) + values[i + 1:]
    for i, j in itertools.combinations(range(len(values)), 2):
        if values[i] != values[j]:
            out = list(values)
            out[i], out[j] = out[j], out[i]
            yield tuple(out)


def small_carriers(corpus):
    """The corpus, the 4- and 6-chain and B3 with their orders, and the
    6-chain with the C3R-style relation."""
    four, six = chain(4), chain(6)
    b3 = lattice_from_up([f"s{i}" for i in range(8)],
                         [sum(1 << j for j in range(8) if i & j == i)
                          for i in range(8)])
    c3r6 = Relation(6, 6, tuple(six.full if a == six.bot else 1 << six.top
                                for a in range(6)))
    return list(corpus.values()) + [
        proximity_lattice(four, order_relation(four)),
        proximity_lattice(six, order_relation(six)),
        proximity_lattice(b3, order_relation(b3)),
        proximity_lattice(six, c3r6)]


def test_verify_extension_against_the_loops(corpus):
    # every embed entry moved to every other element of C, and every
    # pair of distinct entries swapped
    failed = set()
    for p in small_carriers(corpus):
        for ext in (pi_extension(p), sigma_extension(p)):
            for embed in itertools.chain([ext.embed],
                                         perturbed(ext.embed, ext.C.size)):
                bad = dataclasses.replace(ext, embed=embed)
                report = verify_extension(bad)
                assert report == verify_extension_by_loops(bad), embed
                failed.update(name for name, _ in report.witnesses)
    assert failed == {"increasing", "dense", "compact", "join_preserving",
                      "meet_preserving"}


def raised(check, cl):
    try:
        check(cl)
    except InternalCheckError as exc:
        return str(exc), exc.witnesses, exc.labels
    return None


def test_assert_generation_against_the_loops(corpus):
    # every f and g entry moved to every other element, and every pair
    # of distinct entries swapped
    seen = set()
    for p in small_carriers(corpus):
        for q in (p, opposite_proximity(p)):
            cl = concept_lattice(polarity_of(q))
            size = cl.lattice.size
            cases = [dataclasses.replace(cl, f=f) for f in perturbed(cl.f, size)]
            cases += [dataclasses.replace(cl, g=g) for g in perturbed(cl.g, size)]
            for case in cases:
                got = raised(_assert_generation, case)
                assert got == raised(assert_generation_by_loops, case)
                seen.add(got and got[0])
    assert seen == {"filter images fail to join-generate",
                    "ideal images fail to meet-generate",
                    "generator order disagrees with Z"}


def test_galois_maps_boundary_cases(corpus):
    pol = polarity_of(corpus["FULL2"])
    l, r, c = galois_maps(pol)
    assert l(0) == (1 << pol.ny) - 1
    assert r(0) == (1 << pol.nx) - 1
    assert c(0) == 0b1  # the only filter is closed

    pol3 = polarity_of(corpus["C3R"])
    l3, r3, c3 = galois_maps(pol3)
    # filters are ordered ({1}, L); ideals ({0}, L)
    assert round_filter_masks(corpus["C3R"]) == (0b100, 0b111)
    assert c3(0b01) == 0b11  # closing the filter {1} sweeps in L


def test_closure_operator_laws(corpus):
    for p in corpus.values():
        pol = polarity_of(p)
        _, _, c = galois_maps(pol)
        for u in range(1 << pol.nx):
            cu = c(u)
            assert u & ~cu == 0          # inflationary
            assert c(cu) == cu           # idempotent
            for v in range(1 << pol.nx):
                if u & ~v == 0:
                    assert cu & ~c(v) == 0  # monotone


def test_concept_lattice_shapes(corpus):
    assert concept_lattice(polarity_of(corpus["FULL2"])).lattice.size == 1
    assert concept_lattice(polarity_of(corpus["C3R"])).lattice.size == 2
    c2 = concept_lattice(polarity_of(corpus["C2"]))
    assert find_isomorphism(c2.lattice,
                            corpus["C2"].lattice) is not None


def test_concept_lattice_derived_properties(corpus):
    # the comparisons between generators of the same sort are the
    # subset comparisons of their Z-rows and Z-columns
    for p in corpus.values():
        pol = polarity_of(p)
        cl = concept_lattice(pol)
        cols = pol.z.converse().rows
        for x1 in range(pol.nx):
            for x2 in range(pol.nx):
                expected = pol.z.rows[x2] & ~pol.z.rows[x1] == 0
                assert cl.lattice.leq(cl.f[x1], cl.f[x2]) == expected
        for y1 in range(pol.ny):
            for y2 in range(pol.ny):
                expected = cols[y1] & ~cols[y2] == 0
                assert cl.lattice.leq(cl.g[y1], cl.g[y2]) == expected
        for y in range(pol.ny):
            for x in range(pol.nx):
                expected = all(
                    not (pol.z.has(x2, y) and pol.z.has(x, y2)) or pol.z.has(x2, y2)
                    for x2 in range(pol.nx) for y2 in range(pol.ny))
                assert cl.lattice.leq(cl.g[y], cl.f[x]) == expected


def test_macneille_oracle_for_concept_lattices(corpus):
    # the completion of the two-sorted preorder recovers the concept
    # lattice with commuting generator maps
    for name, p in corpus.items():
        pol = polarity_of(p)
        cl = concept_lattice(pol)
        labels = [f"F{i}" for i in range(pol.nx)] + \
                 [f"I{j}" for j in range(pol.ny)]
        q = preorder(labels, polarity_preorder_pairs(pol))
        mc = dedekind_macneille(q)
        phi = generator_iso_by_loops(cl.lattice, cl.f, cl.g, mc.lattice,
                                     tuple(mc.embed[: pol.nx]),
                                     tuple(mc.embed[pol.nx:]))
        assert phi is not None, name


def test_pi_extension_examples(corpus):
    e = pi_extension(corpus["C2"])
    assert e.C.size == 2
    assert e.embed == (0, 1)  # injective

    full2 = pi_extension(corpus["FULL2"])
    assert full2.C.size == 1
    assert full2.embed == (0, 0)  # collapses, top equals bottom

    c3r = pi_extension(corpus["C3R"])
    assert c3r.C.size == 2
    assert c3r.embed[0] == c3r.embed[1] == c3r.C.bot
    assert c3r.embed[2] == c3r.C.top


def test_pi_extension_requires_join_strength(corpus):
    # build a meet-strong-only carrier: opposite of one that is only
    # join-strong cannot be produced from the corpus (all are doubly
    # strong), so check the guard directly on a stub report
    from dataclasses import replace
    p = corpus["C3R"]
    crippled = replace(p, report=replace(p.report, join_strong=False))
    with pytest.raises(NotJoinStrong):
        pi_extension(crippled)
    with pytest.raises(NotMeetStrong):
        sigma_extension(replace(p, report=replace(p.report, meet_strong=False)))


def test_sigma_extension_examples(corpus):
    k = sigma_extension(corpus["C2"])
    h = pi_extension(corpus["C2"])
    assert verify_extension(k).passes("sigma")
    # reflexive case: the two extensions have matching embeds up to iso
    assert pi_sigma_comparison(corpus["C2"]).phi_exists

    c3r = sigma_extension(corpus["C3R"])
    assert c3r.C.size == 2
    assert c3r.embed[0] == c3r.C.bot
    assert c3r.embed[1] == c3r.C.top  # differs from pi at the middle
    assert c3r.embed[2] == c3r.C.top

    full2 = sigma_extension(corpus["FULL2"])
    assert full2.C.size == 1


def proximity_lattices_on(lat):
    """Every proximity lattice on lat, read off the maps mu: R^-1[b] is
    the down-set of mu(b)."""
    n = lat.size
    for mu in itertools.product(range(n), repeat=n):
        rel = Relation(n, n, tuple(lat.down[m] for m in mu)).converse()
        report = verify_axioms(lat, rel)
        if report.axioms_ok:
            yield ProximityLattice(lat, rel, report)


def every_proximity_lattice(corpus):
    """The corpus and every proximity lattice on C3, C4 and B2."""
    out = list(corpus.values())
    for lat in (chain(3), chain(4), corpus["B2"].lattice):
        out.extend(proximity_lattices_on(lat))
    return out


def test_sigma_explicit_oracle_agrees(corpus):
    for name, p in corpus.items():
        direct = sigma_extension(p)
        explicit = sigma_extension_explicit(p)
        assert check_uniqueness(direct, explicit) is not None, name


def test_round_subset_images_are_the_embedded_fixed_points():
    """The images a record derives, on the labelled proximity lattices
    with at most 5 elements: on every pi build f[i] = embed(p_i) and
    g[j] = embed(q_j) for Fix nu and Fix mu in canonical order (canext
    module docstring); on every sigma build, those of its pi build of
    the opposite with filters and ideals swapped."""
    pis = sigmas = 0
    for p in labelled_proximity_lattices(5):
        if p.join_strong:
            e = pi_extension(p)
            assert e.f == tuple(e.embed[x] for x in
                                fixed_points(opposite_proximity(p))), p.R.rows
            assert e.g == tuple(e.embed[x] for x in fixed_points(p)), p.R.rows
            pis += 1
        if p.meet_strong:
            k = sigma_extension(p)
            epi = pi_extension(opposite_proximity(p))
            assert (k.filters, k.ideals) == (epi.ideals, epi.filters), p.R.rows
            assert (k.f, k.g) == (epi.g, epi.f), p.R.rows
            sigmas += 1
    assert (pis, sigmas) == (393, 393)


def test_round_subset_images_are_generators(corpus):
    # meets of embedded round filters and joins of embedded round
    # ideals land exactly on the polarity generators (computed here
    # independently from the closure operator, not from the extension)
    for p in corpus.values():
        e = pi_extension(p)
        pol, _, _ = intersection_polarity(p)
        cl = concept_lattice(pol)
        c = e.C
        for i, fm in enumerate(e.filters):
            out = c.top
            for a in bits(fm):
                out = c.meet[out][e.embed[a]]
            assert out == cl.f[i]
        for j, im in enumerate(e.ideals):
            out = c.bot
            for a in bits(im):
                out = c.join[out][e.embed[a]]
            assert out == cl.g[j]


def test_verify_extension_on_constructions(corpus):
    for name, p in corpus.items():
        rep = verify_extension(pi_extension(p))
        assert rep.passes("pi"), name
        rep2 = verify_extension(sigma_extension(p))
        assert rep2.passes("sigma"), name


def test_verify_extension_flags_for_c3r(corpus):
    rep = verify_extension(pi_extension(corpus["C3R"]))
    assert rep.dense and rep.compact and rep.join_preserving
    assert not rep.meet_preserving
    assert rep.witness("meet_preserving") == (1,)


def test_verify_extension_reflexive_case_gets_all_four(corpus):
    rep = verify_extension(pi_extension(corpus["C2"]))
    assert rep.dense and rep.compact
    assert rep.join_preserving and rep.meet_preserving


def test_hand_built_bad_extension(corpus):
    # embedding the three-chain into the two-chain with the middle sent
    # to top is meet- but not join-preserving, with the middle as witness
    c3r = corpus["C3R"]
    c2 = corpus["C2"].lattice
    bad = CanonicalExtension("pi", c3r, c2, (0, 1, 1))
    rep = verify_extension(bad)
    assert not rep.join_preserving
    assert rep.witness("join_preserving") == (1,)
    assert rep.meet_preserving
    assert not rep.passes("pi")


def test_check_uniqueness_identity_and_rejection(corpus):
    e = pi_extension(corpus["C3R"])
    phi = check_uniqueness(e, e)
    assert phi is not None and phi.table == tuple(range(e.C.size))

    k = sigma_extension(corpus["C3R"])
    fake_pi = CanonicalExtension("pi", k.source, k.C, k.embed)
    with pytest.raises(ExtensionError):
        check_uniqueness(e, fake_pi)


def test_an_extension_is_verified_once(corpus, monkeypatch):
    # check_uniqueness(e, e) runs the body of verify_extension once,
    # counted by its one call of the density kernel, and keeps the
    # report that verify_extension then returns
    import proxlat.canext as canext
    runs = []

    def counting(*args, real=canext._first_ungenerated):
        runs.append(args)
        return real(*args)

    monkeypatch.setattr(canext, "_first_ungenerated", counting)
    e = pi_extension(dataclasses.replace(corpus["C3R"]))  # a fresh build
    assert kept_value(e, verify_extension) is None
    assert check_uniqueness(e, e) is not None
    report = kept_value(e, verify_extension)
    assert report is not None and len(runs) == 1
    assert verify_extension(e) is report and len(runs) == 1


def test_a_verified_pi_build_transposes_its_up_preimages_once(corpus,
                                                                monkeypatch):
    # the homomorphism guard of pi_extension and the record's kept
    # `over` read one down_preimages(opposite(C), embed), and so does
    # verify_extension after them; a sigma build, through the pi build
    # of the opposite, the same
    import proxlat.canext as canext
    import proxlat.lattice as lattice
    calls = []

    def counting(tgt, table, real=lattice.down_preimages):
        calls.append((tgt, table))
        return real(tgt, table)

    for module in (canext, lattice):
        monkeypatch.setattr(module, "down_preimages", counting)
    builds = 0
    for name, kept in corpus.items():
        p = dataclasses.replace(kept)  # a fresh carrier keeps no build
        for kind, strong, build, pi_source in (
                ("pi", "join_strong", pi_extension, lambda q: q),
                ("sigma", "meet_strong", sigma_extension, opposite_proximity)):
            if not getattr(p, strong):
                continue
            calls.clear()
            assert verify_extension(build(p)).passes(kind), (name, kind)
            pi = pi_extension(pi_source(p))
            ups = [table for tgt, table in calls
                   if tgt is opposite(pi.C) and table is pi.embed]
            assert len(ups) == 1, (name, kind)
            builds += 1
    assert builds > 10


def commuting_permutations(c1, embed1, c2, embed2):
    """Every order isomorphism c1 -> c2, by brute force over all
    permutations, that carries embed1 to embed2."""
    if c1.size != c2.size:
        return []
    return [perm for perm in itertools.permutations(range(c2.size))
            if all(perm[u] == v for u, v in zip(embed1, embed2))
            and all(c1.leq(u, v) == c2.leq(perm[u], perm[v])
                    for u in range(c1.size) for v in range(c1.size))]


def test_verified_extensions_embed_onto_c():
    """Every extension that passes verify_extension embeds onto C
    (module docstring): each build of the 576 proximity lattices on
    labelled lattices with at most 5 elements."""
    from proxlat.spectra import canext_via_duality

    carriers = labelled_proximity_lattices(5)
    assert len(carriers) == 576
    built = 0
    for p in carriers:
        builds = []
        if p.join_strong:
            builds += [pi_extension(p), pi_extension_by_polarity(p)]
            if p.distributive:
                builds.append(canext_via_duality(p).extension)
        if p.meet_strong:
            builds += [sigma_extension(p), sigma_extension_explicit(p)]
        for e in builds:
            assert verify_extension(e).passes(e.kind), (e.kind, p.R.rows)
            assert set(e.embed) == set(range(e.C.size)), (e.kind, p.R.rows)
        built += len(builds)
    assert built > len(carriers)


def test_forced_isomorphism_against_brute_force():
    """The table read off the embeddings is the one commuting order
    isomorphism, by brute force over every permutation: between the
    two pi builds of the 393 join-strong carriers above, and between
    the pi and sigma builds of the 334 doubly strong ones (none when
    pi_sigma_comparison reports no phi)."""
    joins = doubles = 0
    for p in labelled_proximity_lattices(5):
        if p.join_strong:
            h, want = pi_extension(p), pi_extension_by_polarity(p)
            phi = check_uniqueness(h, want)
            assert commuting_permutations(h.C, h.embed, want.C, want.embed) \
                == [phi.table], p.R.rows
            joins += 1
        if p.doubly_strong:
            h, k = pi_extension(p), sigma_extension(p)
            phi = pi_sigma_comparison(p).phi
            assert commuting_permutations(h.C, h.embed, k.C, k.embed) \
                == ([] if phi is None else [phi.table]), p.R.rows
            doubles += 1
    assert (joins, doubles) == (393, 334)


def test_an_extension_missing_an_element_is_refused(corpus):
    # the 2-chain embedded in the 3-chain, missing its middle: not onto
    # C, so not dense, check_uniqueness refuses it, and the table read
    # off the embeddings is no bijection either way round
    c2 = corpus["C2"]
    e = pi_extension(c2)
    bad = CanonicalExtension("pi", c2, chain(3), (0, 2))
    report = verify_extension(bad)
    assert not report.passes("pi")
    assert report.witness("dense") == (1,)
    with pytest.raises(ExtensionError):
        check_uniqueness(e, bad)
    assert _forced_iso(e, bad) == _forced_iso(bad, e) == (None, None)


def test_forced_table_must_be_an_order_isomorphism(corpus):
    # the identity table onto the reversed 2-chain is a bijection that
    # reverses the order; on C3R the pi and sigma embeddings pin the
    # image of the middle twice
    e = pi_extension(corpus["C2"])
    flipped = CanonicalExtension("pi", corpus["C2"], opposite(e.C), e.embed)
    assert _forced_iso(e, e)[1].table == (0, 1)
    assert _forced_iso(e, flipped) == (None, None)
    c3r = corpus["C3R"]
    assert _forced_iso(pi_extension(c3r), sigma_extension(c3r)) == (1, None)


def test_commuting_isomorphism_is_unique(corpus):
    # brute force over all order isomorphisms between the two builds of
    # the extension: exactly one commutes with the embeddings
    from proxlat.spectra import canext_via_duality

    for name in ("C3R", "B2", "C3"):
        result = canext_via_duality(corpus[name])
        assert commuting_permutations(
            result.pi_ext.C, result.pi_ext.embed,
            result.sat_lattice, result.extension.embed,
        ) == [tuple(result.iso.table)], name
    # between the pi and the sigma extension there is one exactly when
    # the comparison reports phi, and phi is it
    compared = 0
    for p in every_proximity_lattice(corpus):
        if not p.doubly_strong:
            continue
        h, k = pi_extension(p), sigma_extension(p)
        phi = pi_sigma_comparison(p).phi
        want = [] if phi is None else [phi.table]
        assert commuting_permutations(h.C, h.embed, k.C, k.embed) == want, p.R.rows
        compared += 1
    assert compared == 28


def test_pi_sigma_dichotomy(corpus):
    for name, p in corpus.items():
        rep = pi_sigma_comparison(p)
        assert rep.equivalent, name
        assert rep.reflexive == p.reflexive
        if name == "C3R":
            assert not rep.phi_exists
            assert not rep.sigma_join_preserving


def test_finite_lattice_is_its_own_extension(corpus):
    # with the order as relation the construction collapses to the
    # identity completion
    for name in ("C2", "C3", "B2", "M3"):
        p = corpus[name]
        e = pi_extension(p)
        assert sorted(e.embed) == list(range(e.C.size)), name
        assert all(p.lattice.leq(a, b) == e.C.leq(e.embed[a], e.embed[b])
                   for a in range(p.size) for b in range(p.size)), name
