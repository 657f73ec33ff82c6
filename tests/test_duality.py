"""Meet-side checks are join-side checks on (L^op, R^-1), and the checks
read off the map mu agree with the loops over row pairs.

The reports below are pinned by digest, flags and witnesses alike, so
any change to how a flag or witness is found shows up here.
"""

import collections
import dataclasses
import hashlib
import itertools
import random

from oracles import (
    is_round_ideal_by_definition,
    is_round_ideal_by_join,
    join_approx_binary_by_loops,
    join_approx_exhaustive,
    join_strong_binary,
    join_strong_exhaustive,
    join_strong_mu,
    kept_value,
    round_subsets_slow,
    tops_by_join,
    verify_axioms_by_loops,
    verify_axioms_exhaustive,
    verify_morphism_exhaustive,
)
from proxlat import proximity
from proxlat.bitset import bits, is_subset, transpose
from proxlat.canext import pi_extension, sigma_extension, verify_extension
from proxlat.fixtures import CORPUS
from proxlat.lattice import is_distributive, lattice_from_up, opposite
from proxlat.proximity import (
    MorphismReport,
    ProximityLattice,
    _first_unapproximated,
    all_proximity_morphisms,
    is_round_filter,
    is_round_ideal,
    opposite_proximity,
    round_ideal_lattice,
    round_ideal_masks,
    verify_axioms,
    verify_morphism,
)
from proxlat.relations import Relation, order_relation
from proxlat.spectra import canext_via_duality
from test_canext import labelled_proximity_lattices

# sha256 of the reports below, computed before the meet-side kernels
# were derived from the join-side ones
REPORTS_SHA256 = (
    "1ad27f63efd799320bd5157792f59116f67f8079ad2925aa8d2b38a219c631fc")
EXHAUSTIVE_SHA256 = (
    "4aca45cf7644ab79887445f11d2abaed04fc298f905d823fcb825b23fa1c26f6")
# sha256 of verify_morphism on every map into the principal down-sets,
# computed before approximability was read off mu
PRINCIPAL_SHA256 = (
    "106b4ebe9056e17ac627c7352c06e76f6e82c8a712325b9e18eee2362f9f10a5")
# sha256 of verify_axioms on every relation on C4, the census carrier
# that pinned_reports leaves out, computed before each binary instance
# was read as one mask test over kept join sets
C4_SHA256 = (
    "e8edfa5c54aaa045c7cbb3bd10e122b2ff70e6794f9481c111c380361509d6b3")
# the same on B2, the other census carrier, computed before a failing
# relation was decided in the frame of verify_axioms
B2_SHA256 = (
    "b75ce7c271ee45c6ed0f1b4f8858f8d921fa83ce54c24a2a6865a19a8dd9dd85")


def chain(n):
    return lattice_from_up([f"c{i}" for i in range(n)],
                           [((1 << n) - 1) & ~((1 << i) - 1) for i in range(n)])


def boolean(k):
    n = 1 << k
    return lattice_from_up([f"s{i}" for i in range(n)],
                           [sum(1 << j for j in range(n) if i & j == i)
                            for i in range(n)])


def c3r_style(lat):
    """x R y iff x is bottom or y is top."""
    return Relation(lat.size, lat.size,
                    tuple(lat.full if a == lat.bot else 1 << lat.top
                          for a in range(lat.size)))


def relations(lat, count, seed):
    """Every relation on lat when count is None, else a seeded sample."""
    n = lat.size
    full = (1 << n) - 1
    if count is None:
        codes = range(1 << (n * n))
    else:
        rng = random.Random(seed)
        codes = [rng.getrandbits(n * n) for _ in range(count)]
    for code in codes:
        yield Relation(n, n, tuple(code >> (a * n) & full for a in range(n)))


def half_with_full_bot(lat, count, seed):
    """A seeded sample of relations on lat, every other one with its
    row of bot made full (bot R b for every b), so that verify_axioms
    reads its columns."""
    for i, rel in enumerate(relations(lat, count, seed)):
        rows = list(rel.rows)
        rows[lat.bot] |= lat.full if i % 2 else 0
        yield Relation(lat.size, lat.size, tuple(rows))


def compatible_relations(lat):
    """Every relation on lat compatible on both sides, with its report.
    Join-compatibility makes each R^-1[b] a principal ideal, so R is
    fixed by the map b -> top of it."""
    n = lat.size
    for mu in itertools.product(range(n), repeat=n):
        cols = Relation(n, n, tuple(lat.down[m] for m in mu))
        rel = cols.converse()
        report = verify_axioms(lat, rel)
        if report.join_compatible and report.meet_compatible:
            yield rel, report


def proximity_lattices(lat):
    """Every proximity relation on lat."""
    for rel, report in compatible_relations(lat):
        if report.idempotent:
            yield ProximityLattice(lat, rel, report)


def morphism_candidates(corpus, values=round_ideal_masks):
    """Every relation whose rows are taken from values(target), by
    default its round ideals, for every ordered pair in corpus."""
    for a, b in itertools.product(corpus, repeat=2):
        src, tgt = corpus[a], corpus[b]
        for rows in itertools.product(values(tgt), repeat=src.size):
            yield src, tgt, Relation(src.size, tgt.size, rows)


def principal_down_sets(p):
    return p.lattice.down


def approximable(*args):
    """_first_unapproximated as a flag and a witness, the form of the
    loop oracles; a sixth argument, tau, takes its principal-row path."""
    wit = _first_unapproximated(*args)
    return wit is None, wit


def strong_by_approx(kernel, lat, rows, cols, *tau):
    """Join-strongness as join-approximability of R^-1 from (L, R) to
    itself, the witness rotated from (b1, b2, a) to (a, b1, b2); tau,
    the tops of the columns, goes to the principal-row path."""
    found, wit = kernel(lat, lat, rows, cols, cols, *tau)
    return found, wit and wit[-1:] + wit[:-1]


def digest(reports):
    h = hashlib.sha256()
    for report in reports:
        h.update(pinned_repr(report).encode() + b"\n")
    return h.hexdigest()


def pinned_repr(report):
    """repr(report) in the form the digests were computed from: a
    MorphismReport then had a field proximity_via_round_sets after
    proximity, always equal to it (verify_morphism raised otherwise),
    so it is written back in to keep every digest above as it was."""
    text = repr(report)
    if isinstance(report, MorphismReport):
        flag = f"proximity={report.proximity}, "
        text = text.replace(
            flag, f"{flag}proximity_via_round_sets={report.proximity}, ", 1)
    return text


def pinned_reports(corpus):
    c3, b2, m3 = (corpus[k].lattice for k in ("C3", "B2", "M3"))
    for lat, count in ((c3, None), (b2, 5000), (m3, 5000)):
        for rel in relations(lat, count, seed=lat.size):
            yield verify_axioms(lat, rel)
    for src, tgt, rel in morphism_candidates(corpus):
        yield verify_morphism(src, tgt, rel)


def pinned_exhaustive_reports(corpus):
    c3, b2, m3 = (corpus[k].lattice for k in ("C3", "B2", "M3"))
    for lat, count in ((c3, None), (b2, 500), (m3, 500)):
        for rel in relations(lat, count, seed=lat.size):
            yield verify_axioms_exhaustive(lat, rel)
    small = {k: corpus[k] for k in ("C2", "C3", "FULL2", "C3R")}
    for src, tgt, rel in morphism_candidates(small):
        yield verify_morphism_exhaustive(src, tgt, rel)


def test_reports_are_pinned(corpus):
    assert digest(pinned_reports(corpus)) == REPORTS_SHA256


def test_exhaustive_reports_are_pinned(corpus):
    assert digest(pinned_exhaustive_reports(corpus)) == EXHAUSTIVE_SHA256


def test_opposite_report_is_the_swapped_report(corpus):
    c16 = chain(16)
    carriers = list(corpus.values())
    for lat in (chain(3), chain(4), corpus["B2"].lattice):
        carriers.extend(proximity_lattices(lat))
    assert len(carriers) == len(CORPUS) + 29
    for rel in (order_relation(c16), c3r_style(c16)):
        carriers.append(ProximityLattice(c16, rel, verify_axioms(c16, rel)))
    for p in carriers:
        assert p.report.axioms_ok
        expected = verify_axioms(opposite(p.lattice), p.R.converse())
        op = opposite_proximity(p)
        assert op.report == expected, p.R.rows
        # and taking the opposite twice gives the report back
        assert opposite_proximity(op).report == p.report, p.R.rows


def test_mu_strongness_against_the_loops(corpus):
    """On every relation compatible on both sides _first_unapproximated
    without tau, the binary path, fails where the mu oracle does; its
    path with tau, which skips the comparable pairs, is asked only on
    the idempotent ones, the proximity relations verify_axioms gives it
    tau on."""
    cases = []
    for lat in (chain(3), chain(4), corpus["B2"].lattice, corpus["M3"].lattice):
        cases.extend((lat, rel, report.idempotent)
                     for rel, report in compatible_relations(lat))
    for lat in (chain(16), boolean(4)):
        cases.extend((lat, rel, True)
                     for rel in (order_relation(lat), c3r_style(lat)))
    verdicts = set()
    for lat, rel, idempotent in cases:
        rows, cols = rel.rows, rel.converse().rows
        for side in ((lat, rows, cols), (opposite(lat), cols, rows)):
            found = join_strong_mu(*side)
            assert found == join_strong_binary(*side), (lat.size, rows)
            assert strong_by_approx(approximable, *side) == found, \
                (lat.size, rows)
            if idempotent:
                # the path with tau gets the tops of the columns by join
                # and compare
                tau = tops_by_join(side[0], side[2])
                assert strong_by_approx(approximable, *side, tau) == \
                    found, (lat.size, rows)
            verdicts.add((found[0], idempotent))
    assert verdicts == {(True, True), (False, True), (True, False),
                        (False, False)}


def test_strongness_is_approximability_of_the_converse(corpus):
    """The binary path of _first_unapproximated and the exhaustive
    approximability oracle, run on (L, L, R, R^-1), give the flags and
    witnesses of the direct strongness loops, compatible relation or
    not: every relation on C3 and seeded samples on C4, B2 and M3."""
    cases = [(chain(3), None)] + [
        (lat, 5000) for lat in (chain(4), corpus["B2"].lattice,
                                corpus["M3"].lattice)]
    verdicts = set()
    for lat, count in cases:
        for rel in relations(lat, count, seed=lat.size + 1):
            rows, cols = rel.rows, rel.converse().rows
            for side in ((lat, rows, cols), (opposite(lat), cols, rows)):
                found = join_strong_binary(*side)
                assert strong_by_approx(approximable, *side) == found, \
                    (lat.size, rows)
                exhaustive = join_strong_exhaustive(*side)
                assert strong_by_approx(join_approx_exhaustive, *side) == \
                    exhaustive, (lat.size, rows)
                verdicts.add((found[0], exhaustive[0]))
    # off the compatible relations an instance of every size may pass
    # where the binary one fails, so (False, True) occurs too
    assert verdicts >= {(True, True), (False, False)}


def test_strongness_is_the_report_of_the_identity_morphism():
    """On every proximity lattice on a labelled lattice with at most 5
    elements, the strongness flags and witnesses of its report are the
    approximability flags and witnesses verify_morphism gives R^-1 from
    (L, R) to itself, the join witness rotated from (b1, b2, a) to
    (a, b1, b2): the two reports read both sides with the same
    _first_unapproximated calls."""
    carriers = labelled_proximity_lattices(5)
    flags = set()
    for p in carriers:
        ident = verify_morphism(p, p, p.R.converse())
        assert ident.proximity, p.R.rows
        found = dict(ident.witnesses)
        j_wit = found.get("join_approximable")
        m_wit = found.get("meet_approximable")
        assert (p.report.join_strong, p.report.meet_strong) == \
            (ident.join_approximable, ident.meet_approximable), p.R.rows
        assert p.report.witness("join_strong") == \
            (j_wit and j_wit[-1:] + j_wit[:-1]), p.R.rows
        assert p.report.witness("meet_strong") == m_wit, p.R.rows
        flags.add((p.join_strong, p.meet_strong))
    assert len(carriers) == 576
    assert flags == {(True, True), (True, False), (False, True),
                     (False, False)}


def test_principal_map_reports_are_pinned(corpus):
    """Every map into the principal down-sets of the target; on the
    proximity morphisms among them approximability is read off tau, the
    tops of the rows, and agrees with the binary path."""
    reports = []
    hits = 0
    for src, tgt, rel in morphism_candidates(corpus, principal_down_sets):
        report = verify_morphism(src, tgt, rel)
        reports.append(report)
        if not report.proximity:
            continue
        hits += 1
        for side in ((src.lattice, tgt.lattice, tgt.R.rows,
                      tgt.R.converse().rows, rel.rows),
                     (opposite(tgt.lattice), opposite(src.lattice),
                      src.R.converse().rows, src.R.rows, rel.converse().rows)):
            tau = tops_by_join(side[1], side[4])
            assert None not in tau
            assert approximable(*side, tau) == approximable(*side)
    assert (len(reports), hits, sum(r.j_morphism for r in reports)) == (6426, 231, 56)
    assert digest(reports) == PRINCIPAL_SHA256


def test_c4_reports_are_pinned():
    c4 = chain(4)
    reports = (verify_axioms(c4, rel) for rel in relations(c4, None, seed=0))
    assert digest(reports) == C4_SHA256


def test_b2_reports_are_pinned():
    """Every relation on B2, the census carrier next to C4: the reports
    match their pinned digest and equal those on a new lattice per
    relation, whose opposite starts cold. Only a proximity relation
    keeps its converse, equal to one built from the transpose."""
    b2 = boolean(2)
    rels = list(relations(b2, None, seed=0))
    reports = [verify_axioms(b2, rel) for rel in rels]
    assert digest(reports) == B2_SHA256
    kept = 0
    for rel, report in zip(rels, reports):
        cold = dataclasses.replace(b2)
        assert kept_value(cold, opposite) is None
        assert verify_axioms(cold, rel) == report, rel.rows
        conv = kept_value(rel, Relation.converse)
        assert (conv is None) != report.axioms_ok, rel.rows
        if report.axioms_ok:
            kept += 1
            built = Relation(4, 4, transpose(rel.rows, 4))
            assert conv == built, rel.rows
            assert hash(conv) == hash(built), rel.rows
    assert kept == sum(1 for _ in proximity_lattices(b2)) > 0


def kernel_sides(lat, rel):
    """Both _first_unapproximated calls of verify_axioms: (L, R^-1) and
    (L^op, R)."""
    rows, cols = rel.rows, rel.converse().rows
    op = opposite(lat)
    return (lat, lat, rows, cols, cols), (op, op, cols, rows, rows)


def morphism_sides(src, tgt, rel):
    """Both _first_unapproximated calls of verify_morphism on T from src
    to tgt."""
    return ((src.lattice, tgt.lattice, tgt.R.rows, tgt.R.converse().rows,
             rel.rows),
            (opposite(tgt.lattice), opposite(src.lattice),
             src.R.converse().rows, src.R.rows, rel.converse().rows))


def test_binary_kernel_against_the_loops(corpus):
    """The binary path of _first_unapproximated gives the flags and
    witnesses of the loop over the targets: on every relation on C3, on
    seeded samples on C4, B2 and M3, and on every map into the principal
    down-sets, where the two lattices differ."""
    calls = []
    for lat, count in ((chain(3), None), (chain(4), 5000),
                       (corpus["B2"].lattice, 5000),
                       (corpus["M3"].lattice, 5000)):
        calls.extend(side for rel in relations(lat, count, seed=lat.size + 3)
                     for side in kernel_sides(lat, rel))
    for src, tgt, rel in morphism_candidates(corpus, principal_down_sets):
        calls.extend(morphism_sides(src, tgt, rel))
    verdicts = set()
    for side in calls:
        found = approximable(*side)
        assert found == join_approx_binary_by_loops(*side), \
            (side[0].size, side[1].size, side[2:])
        verdicts.add((found[0], len(found[1] or ()), side[0] is not side[1]))
    # both flags, both witness shapes, and maps between two lattices
    assert {(True, 0, False), (False, 1, False), (False, 3, False),
            (True, 0, True), (False, 3, True)} <= verdicts


def test_lattice_memos_are_invisible(corpus):
    """A lattice that filtered failing relations by axioms_ok alone
    keeps no distributivity verdict, and reading the flags of those
    reports keeps it. Neither that lattice nor one that the builds of a
    valid carrier ran on shows what it keeps in equality, hash or repr."""
    for name, p in corpus.items():
        built = lattice_from_up(p.lattice.labels, p.lattice.up)
        carrier = ProximityLattice(built, p.R, verify_axioms(built, p.R))
        for ext in (pi_extension(carrier), sigma_extension(carrier)):
            assert verify_extension(ext).passes(ext.kind), name
        assert all_proximity_morphisms(carrier, carrier), name
        if carrier.distributive:
            canext_via_duality(carrier)

        lat = lattice_from_up(p.lattice.labels, p.lattice.up)
        reports = [verify_axioms(lat, rel) for rel in relations(lat, 200, seed=1)]
        failing = [r for r in reports if not r.axioms_ok]
        assert failing, name
        assert kept_value(lat, is_distributive) is None, name
        for r in failing:
            r.flags()
        assert kept_value(lat, is_distributive) is not None, name
        fresh = lattice_from_up(lat.labels, lat.up)
        for used in (built, lat):
            assert used == fresh and hash(used) == hash(fresh), name
            assert repr(used) == repr(fresh), name
            assert opposite(used) == opposite(fresh), name


# what a caller may read first on a report from verify_axioms
FIRST_READS = {
    "axioms_ok": lambda report: report.axioms_ok,
    "idempotent": lambda report: report.idempotent,
    "join_compatible": lambda report: report.join_compatible,
    "meet_compatible": lambda report: report.meet_compatible,
    "witnesses": lambda report: report.witnesses,
    "join_strong": lambda report: report.join_strong,
    "hash": hash,
    "repr": repr,
    "flags": lambda report: report.flags(),
}


def test_deferred_fields_are_decided_once(corpus, monkeypatch):
    """verify_axioms decides the conjuncts of axioms_ok up to the first
    that fails and leaves the other fields to the first read of any of
    them. Whatever is read first, the reports of one relation equal one
    another and verify_axioms_by_loops, in equality, hash, repr, asdict,
    flags and witnesses, on every relation on C3 and on seeded samples
    on B2 and M3 (every other one with bot R b for every b) with the
    relations compatible on both sides. The binary kernel runs on no
    relation filtered by axioms_ok alone, and at most once per side over
    all the reads of any report."""
    calls = []
    real = proximity._first_binary_failure

    def counting(sjoin, *args):
        calls.append(id(sjoin))  # the join or the meet table: the side
        return real(sjoin, *args)

    monkeypatch.setattr(proximity, "_first_binary_failure", counting)
    c3 = corpus["C3"].lattice
    cases = [(c3, rel) for rel in relations(c3, None, seed=0)]
    for lat in (corpus["B2"].lattice, corpus["M3"].lattice):
        cases.extend((lat, rel) for rel in
                     half_with_full_bot(lat, 400, seed=lat.size + 4))
        cases.extend((lat, rel) for rel, _ in compatible_relations(lat))
    ran = 0
    for lat, rel in cases:
        expected = verify_axioms_by_loops(lat, rel)
        reports = []
        for first, read in FIRST_READS.items():
            calls.clear()
            report = verify_axioms(lat, rel)
            read(report)
            if first == "axioms_ok":
                assert report.axioms_ok == expected.axioms_ok
                assert not calls, rel.rows
            assert report == expected, (first, lat.size, rel.rows)
            assert hash(report) == hash(expected), (first, rel.rows)
            assert repr(report) == repr(expected), (first, rel.rows)
            assert dataclasses.asdict(report) == dataclasses.asdict(expected)
            assert report.flags() == expected.flags(), (first, rel.rows)
            for name, wit in expected.witnesses:
                assert report.witness(name) == wit, (first, name, rel.rows)
            assert max(collections.Counter(calls).values(), default=0) <= 1
            ran += len(calls)
            reports.append(report)
        assert all(r == reports[0] for r in reports), rel.rows
    assert ran > 0


def test_a_filtered_relation_builds_no_columns(corpus, monkeypatch):
    """axioms_ok on a report from verify_axioms transposes R only when
    its row of bot is full, and then once, and runs neither _decide_rest
    nor the binary kernel: on every relation on C3 and on the seeded
    samples on C4 and B2 of test_axioms_read_off_mu_against_the_loops."""
    transposed = []
    real = proximity.transpose

    def counting(rows, width):
        transposed.append(rows)
        return real(rows, width)

    def refuse(*args):
        raise AssertionError("a filtered relation decided more")

    monkeypatch.setattr(proximity, "transpose", counting)
    monkeypatch.setattr(proximity, "_decide_rest", refuse)
    monkeypatch.setattr(proximity, "_first_binary_failure", refuse)
    c3 = chain(3)
    cases = [(c3, rel) for rel in relations(c3, None, seed=0)]
    for lat in (chain(4), corpus["B2"].lattice):
        cases.extend((lat, rel) for rel in
                     half_with_full_bot(lat, 3000, seed=lat.size + 2))
    full = 0
    for lat, rel in cases:
        transposed.clear()
        verify_axioms(lat, rel).axioms_ok
        if rel.rows[lat.bot] == lat.full:
            full += 1
            assert transposed == [rel.rows], (lat.size, rel.rows)
        else:
            assert not transposed, (lat.size, rel.rows)
    assert 0 < full < len(cases)


def test_round_ideals_against_the_definition(corpus):
    """mu and the round sets read off it, on the carrier and on its
    opposite, against the columns and the definition: every mask from
    -1 to 2^n is tested for membership, by the down-set index, by the
    definition and by the join and compare that is_round_ideal ran
    before."""
    carriers = list(corpus.values())
    for lat in (chain(3), chain(4), corpus["B2"].lattice, corpus["M3"].lattice):
        carriers.extend(proximity_lattices(lat))
    for p in carriers:
        for q in (p, opposite_proximity(p)):
            assert q.mu == tuple(q.lattice.join_mask(col)
                                 for col in q.R.converse().rows), q.R.rows
            op = opposite_proximity(q)
            for mask in range(-1, (1 << q.size) + 1):
                assert is_round_ideal(q, mask) == \
                    is_round_ideal_by_definition(q, mask) == \
                    is_round_ideal_by_join(q, mask), (q.R.rows, mask)
                assert is_round_filter(q, mask) == \
                    is_round_ideal_by_definition(op, mask) == \
                    is_round_ideal_by_join(op, mask), (q.R.rows, mask)
            assert round_ideal_masks(q) == round_subsets_slow(q, "ideal")
            ridl = round_ideal_lattice(q)
            cols = q.R.converse().rows
            for i, mi in enumerate(ridl.ideals):
                for j, mj in enumerate(ridl.ideals):
                    below = any(is_subset(mi, cols[d]) for d in bits(mj))
                    assert ridl.way_below.has(i, j) == below


def test_axioms_read_off_mu_against_the_loops(corpus):
    """verify_axioms reads compatibility off the columns and rows,
    idempotence off mu o mu and strongness off the incomparable pairs;
    verify_axioms_by_loops decides every flag by its loop over pairs.
    Reports, witnesses included, agree on every relation on C3, on
    seeded samples on C4, B2 and M3 (every other one with bot R b for
    every b, so that the columns are read), on every relation
    compatible on both sides of C3, C4, B2 and M3, idempotent or not,
    and on the order and C3R-style relations of chain(16) and
    boolean(4)."""
    c3 = chain(3)
    cases = [(c3, rel) for rel in relations(c3, None, seed=0)]
    for lat in (chain(4), corpus["B2"].lattice, corpus["M3"].lattice):
        cases.extend((lat, rel) for rel in
                     half_with_full_bot(lat, 3000, seed=lat.size + 2))
    for lat in (c3, chain(4), corpus["B2"].lattice, corpus["M3"].lattice):
        cases.extend((lat, rel) for rel, _ in compatible_relations(lat))
    for lat in (chain(16), boolean(4)):
        cases.extend((lat, rel) for rel in (order_relation(lat), c3r_style(lat)))
    kinds = collections.Counter()
    for lat, rel in cases:
        report = verify_axioms(lat, rel)
        assert report == verify_axioms_by_loops(lat, rel), (lat.size, rel.rows)
        kinds[report.join_compatible, report.meet_compatible,
              report.idempotent, report.join_strong] += 1
    # (join-compatible, meet-compatible, idempotent, join-strong)
    T, F = True, False
    assert kinds == {
        (F, F, F, F): 4001, (F, F, F, T): 4898, (F, F, T, F): 99,
        (F, F, T, T): 223, (F, T, F, F): 8, (F, T, F, T): 40,
        (F, T, T, F): 6, (F, T, T, T): 2, (T, F, F, F): 26,
        (T, F, F, T): 158, (T, F, T, T): 33, (T, T, F, F): 31,
        (T, T, F, T): 15, (T, T, T, F): 25, (T, T, T, T): 43}


def test_axioms_on_every_relation_with_a_full_row_of_bot(corpus):
    """Every relation on C4 and on B2 whose row of bot is full, the
    relations whose columns verify_axioms builds, gets the report of
    verify_axioms_by_loops, witnesses included."""
    for lat in (chain(4), corpus["B2"].lattice):
        n, full = lat.size, lat.full
        others = [a for a in range(n) if a != lat.bot]
        for code in range(1 << (n * len(others))):
            rows = [full] * n
            for i, a in enumerate(others):
                rows[a] = code >> (i * n) & full
            rel = Relation(n, n, tuple(rows))
            expected = verify_axioms_by_loops(lat, rel)
            assert verify_axioms(lat, rel) == expected, (lat.size, rel.rows)
