"""Meet-side checks are join-side checks on (L^op, R^-1).

The reports below are pinned by digest, flags and witnesses alike, so
any change to how a meet-side flag or witness is found shows up here.
"""

import hashlib
import itertools
import random

from proxlat.fixtures import CORPUS
from proxlat.lattice import lattice_from_up, opposite
from proxlat.proximity import (
    ProximityLattice,
    opposite_proximity,
    round_ideal_masks,
    verify_axioms,
    verify_morphism,
)
from proxlat.relations import Relation

# sha256 of the reports below, computed before the meet-side kernels
# were derived from the join-side ones
REPORTS_SHA256 = (
    "1ad27f63efd799320bd5157792f59116f67f8079ad2925aa8d2b38a219c631fc")
EXHAUSTIVE_SHA256 = (
    "4aca45cf7644ab79887445f11d2abaed04fc298f905d823fcb825b23fa1c26f6")


def chain(n):
    return lattice_from_up([f"c{i}" for i in range(n)],
                           [((1 << n) - 1) & ~((1 << i) - 1) for i in range(n)])


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


def proximity_lattices(lat):
    """Every proximity relation on lat. Join-compatibility makes each
    R^-1[b] a principal ideal, so R is fixed by the map b -> top of it."""
    n = lat.size
    for mu in itertools.product(range(n), repeat=n):
        cols = Relation(n, n, tuple(lat.down[m] for m in mu))
        rel = cols.converse()
        report = verify_axioms(lat, rel)
        if report.axioms_ok:
            yield ProximityLattice(lat, rel, report)


def morphism_candidates(corpus):
    """Every relation whose rows are round ideals of the target, for
    every ordered pair of corpus fixtures."""
    for a, b in itertools.product(CORPUS, repeat=2):
        src, tgt = corpus[a], corpus[b]
        for rows in itertools.product(round_ideal_masks(tgt), repeat=src.size):
            yield src, tgt, Relation(src.size, tgt.size, rows)


def digest(reports):
    h = hashlib.sha256()
    for report in reports:
        h.update(repr(report).encode() + b"\n")
    return h.hexdigest()


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
            yield verify_axioms(lat, rel, exhaustive=True)
    small = {k: corpus[k] for k in ("C2", "C3", "FULL2", "C3R")}
    for a, b in itertools.product(small, repeat=2):
        src, tgt = small[a], small[b]
        for rows in itertools.product(round_ideal_masks(tgt), repeat=src.size):
            yield verify_morphism(src, tgt, Relation(src.size, tgt.size, rows),
                                  exhaustive=True)


def test_reports_are_pinned(corpus):
    assert digest(pinned_reports(corpus)) == REPORTS_SHA256


def test_exhaustive_reports_are_pinned(corpus):
    assert digest(pinned_exhaustive_reports(corpus)) == EXHAUSTIVE_SHA256


def test_opposite_report_is_the_swapped_report(corpus):
    c3r16 = chain(16)
    c3r_rows = tuple(c3r16.full if a == c3r16.bot else 1 << c3r16.top
                     for a in range(16))
    carriers = list(corpus.values())
    for lat in (chain(3), chain(4), corpus["B2"].lattice):
        carriers.extend(proximity_lattices(lat))
    assert len(carriers) == len(CORPUS) + 29
    for rows in (c3r16.up, c3r_rows):
        rel = Relation(16, 16, rows)
        carriers.append(ProximityLattice(c3r16, rel, verify_axioms(c3r16, rel)))
    for p in carriers:
        assert p.report.axioms_ok
        expected = verify_axioms(opposite(p.lattice), p.R.converse())
        assert opposite_proximity(p).report == expected, p.R.rows
