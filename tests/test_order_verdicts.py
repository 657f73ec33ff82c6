"""Each order verdict read off a preimage transpose, against the loops
over pairs it replaced (tests/oracles.py): axiom reports, extension
reports and round-subset images, and morphism reports; the homomorphism
test is in test_lattice. A verdict only says that nothing fails; the
loop it spares still names the witness of a failure, so the hand-built
failures below reach each of those loops. Also pinned: the index space
of each extension witness, and that no rewritten kernel makes a cell
for a local."""

import dataclasses
import itertools

import pytest

from oracles import (
    first_unpreserved,
    join_of_image,
    verify_axioms_by_loops,
    verify_extension_by_loops,
    verify_morphism_by_loops,
)
from proxlat import canext, lattice, morphext, proximity
from proxlat.bitset import bits
from proxlat.canext import (
    CanonicalExtension,
    pi_extension,
    sigma_extension,
    verify_extension,
)
from proxlat.lattice import LatticeMap, is_homomorphism, lattice_from_up, opposite
from proxlat.proximity import (
    ProximityLattice,
    _tops,
    all_proximity_morphisms,
    order_proximity,
    verify_axioms,
    verify_morphism,
)
from proxlat.relations import Relation
from test_canext import chain, labelled_proximity_lattices
from test_duality import boolean, c3r_style


def images_by_loops(ext):
    """f and g of a record, each a meet resp. join of embedded members."""
    c = ext.C
    return (tuple(join_of_image(opposite(c), ext.embed, m) for m in ext.filters),
            tuple(join_of_image(c, ext.embed, m) for m in ext.ideals))


def b3_carriers():
    """Every proximity lattice on B3, whose 9 incomparable pairs
    outnumber its elements: R is fixed by mu, an idempotent
    meet-preserving map fixing top, and those maps are the idempotent
    endomorphisms of the order proximity lattice."""
    lat = boolean(3)
    order = order_proximity(lat)
    out = []
    for t in all_proximity_morphisms(order, order, limit=1 << 30):
        mu = _tops(lat, t.T.rows)
        if all(mu[m] == m for m in mu):
            rel = Relation(lat.size, lat.size,
                           tuple(lat.down[m] for m in mu)).converse()
            out.append(ProximityLattice(lat, rel, verify_axioms(lat, rel)))
    return out


def b4_under_m2():
    """B4 with two incomparable elements and a new top stacked on it, and
    the C3R-style relation, x R y iff x is bot or y is top: join-strong
    fails exactly at the pairs that join to top, and the one such pair,
    (16, 17), comes after the 55 incomparable pairs of B4."""
    b4 = boolean(4)
    up = [u | 7 << 16 for u in b4.up] + [1 << 16 | 1 << 18, 1 << 17 | 1 << 18,
                                         1 << 18]
    lat = lattice_from_up([f"s{i}" for i in range(19)], up)
    return ProximityLattice(lat, c3r_style(lat), verify_axioms(lat, c3r_style(lat)))


def test_axiom_reports_against_the_loops():
    """Every report on the 576 labelled proximity lattices with at most
    5 elements, where no side has more incomparable pairs than elements,
    and on the 123 proximity lattices on B3 and the stacked B4, where the
    verdict is read, against verify_axioms_by_loops."""
    carriers = labelled_proximity_lattices(5) + b3_carriers() + [b4_under_m2()]
    assert len(carriers) == 576 + 123 + 1
    for p in carriers:
        got = verify_axioms(p.lattice, p.R)
        assert got == verify_axioms_by_loops(p.lattice, p.R), p.R.rows


def test_the_strongness_verdict_is_read_both_ways(monkeypatch):
    """Past n incomparable pairs the verdict is read: on B3 it passes on
    every strong side, and on the stacked B4 it fails on the join side,
    where the walk goes on to the witness the loops name."""
    reads, sides = [], []
    real_read, real_side = proximity.down_preimages, proximity._first_unapproximated

    def read(tl, tau):
        reads.append(tau)
        return real_read(tl, tau)

    def side(*args):
        before = len(reads)
        wit = real_side(*args)
        sides.append((len(reads) > before, wit))
        return wit
    monkeypatch.setattr(proximity, "down_preimages", read)
    monkeypatch.setattr(proximity, "_first_unapproximated", side)
    seen = set()
    for p in b3_carriers() + [b4_under_m2()]:
        sides.clear()
        report = verify_axioms(p.lattice, p.R)
        assert report == verify_axioms_by_loops(p.lattice, p.R)
        seen.update((was_read, wit is None) for was_read, wit in sides)
    assert seen == {(True, True), (False, False), (True, False)}
    assert report.witness("join_strong") == (1, 16, 17)


def test_extension_reports_and_images_against_the_loops():
    """The pi and sigma builds of the 576 labelled proximity lattices,
    each on a fresh record: report, f and g against the loops."""
    built = 0
    for p in labelled_proximity_lattices(5):
        builds = ([pi_extension(p)] if p.join_strong else []) + (
            [sigma_extension(p)] if p.meet_strong else [])
        for e in builds:
            fresh = dataclasses.replace(e)
            assert verify_extension(fresh) == verify_extension_by_loops(fresh)
            assert (fresh.f, fresh.g) == images_by_loops(fresh), p.R.rows
            built += 1
    assert built == 786


def down_sets(lat):
    """Every down-set of lat, the empty one included."""
    return [m for m in range(1 << lat.size)
            if all(lat.down[a] & ~m == 0 for a in bits(m))]


def test_morphism_reports_against_the_loops():
    """verify_morphism on every relation with down-set rows between the
    proximity lattices with at most 3 elements, and on every proximity
    morphism from the order on B3 into the strong carriers on B3, where
    the verdict is read, against verify_morphism_by_loops."""
    small = labelled_proximity_lattices(3)
    checked = proximity_hits = 0
    for src, tgt in itertools.product(small, repeat=2):
        for rows in itertools.product(down_sets(tgt.lattice), repeat=src.size):
            rel = Relation(src.size, tgt.size, rows)
            report = verify_morphism(src, tgt, rel)
            assert report == verify_morphism_by_loops(src, tgt, rel), rows
            checked += 1
            proximity_hits += report.proximity
    assert (checked, proximity_hits) == (2142, 101)
    order = order_proximity(boolean(3))
    flags = set()
    for tgt in [q for q in b3_carriers() if q.doubly_strong]:
        for t in all_proximity_morphisms(order, tgt, limit=1 << 30):
            assert t.report == verify_morphism_by_loops(order, tgt, t.T)
            flags.add((t.report.join_approximable, t.report.meet_approximable))
    assert flags == {(True, True), (True, False), (False, True), (False, False)}


def test_fallback_loops_name_the_witnesses():
    """A verdict that fails hands over to the loop it spares: the
    images and preservation of a non-monotone embedding, the least
    ungenerated element, and the first unpreserved join over every
    element (the strongness walk past a failed verdict is above)."""
    # a non-monotone embedding of C3 into itself, swapping bot and top
    p = order_proximity(chain(3))
    e = CanonicalExtension("pi", p, pi_extension(p).C, (2, 1, 0))
    assert not e.monotone
    assert (e.f, e.g) == images_by_loops(e) == ((0, 0, 0), (2, 2, 2))
    assert verify_extension(e) == verify_extension_by_loops(e)
    assert verify_extension(e).witness("join_preserving") == (
        first_unpreserved(e.C, e.embed, p.R.converse().rows),) == (1,)
    # C2 inside C3, missing its middle: not dense, found by the loop
    gap = CanonicalExtension("pi", order_proximity(chain(2)), chain(3), (0, 2))
    assert gap.monotone and canext._first_ungenerated(gap.C, gap.f, gap.g) == (1, True)
    # B2 onto C2, only top sent up: meets kept, the join of the atoms not
    b2, c2 = boolean(2), chain(2)
    table = (0, 0, 0, 1)
    assert lattice._unpreserved_join(b2, c2, table, range(4)) == (1, 2)
    assert lattice._unpreserved_join(opposite(b2), opposite(c2), table,
                                     range(4)) is None
    assert not is_homomorphism(LatticeMap(b2, c2, table))


def test_extension_witnesses_name_their_index_spaces():
    """An embedding of B2 into the 3-chain failing all five properties:
    increasing names source elements (a, b) with a R b and images out of
    order, the preserving flags a source element, dense an element of C,
    and compact an index into the round filters and one into the round
    ideals, whose images are ordered while the two sets are disjoint."""
    b2 = boolean(2)
    p = order_proximity(b2)
    c = chain(3)
    e = CanonicalExtension("pi", p, c, (0, 0, 1, 0))
    report = verify_extension(e)
    assert dict(report.witnesses) == {
        "increasing": (2, 3), "dense": (1,), "compact": (0, 0),
        "join_preserving": (3,), "meet_preserving": (2,)}
    a, b = report.witness("increasing")
    assert p.R.has(a, b) and not c.leq(e.embed[a], e.embed[b])
    (u,) = report.witness("dense")
    assert 0 <= u < c.size and join_of_image(c, e.embed, 0) != u
    i, j = report.witness("compact")
    assert i < len(e.filters) and j < len(e.ideals)
    assert c.leq(e.f[i], e.g[j]) and not e.filters[i] & e.ideals[j]
    (a,) = report.witness("join_preserving")
    assert e.embed[a] != join_of_image(c, e.embed, p.R.converse().rows[a])
    (a,) = report.witness("meet_preserving")
    assert e.embed[a] != join_of_image(opposite(c), e.embed, p.R.rows[a])


KERNELS = (
    lattice.join_irreducibles, lattice.down_preimages,
    lattice._unpreserved_join, lattice._unordered_pair,
    lattice.is_homomorphism, canext._first_ungenerated, canext._images,
    canext.verify_extension.__wrapped__, canext.pi_sigma_comparison,
    CanonicalExtension.over.fget.__wrapped__,
    CanonicalExtension.monotone.fget.__wrapped__,
    CanonicalExtension.f.fget.__wrapped__,
    CanonicalExtension.g.fget.__wrapped__,
    morphext.check_preservation, proximity._first_unapproximated,
)


@pytest.mark.parametrize("kernel", KERNELS, ids=lambda k: k.__qualname__)
def test_order_kernels_make_no_cells(kernel):
    """A generator or comprehension that reads a local of its function
    makes a cell for it on every call; none of these kernels has one."""
    assert kernel.__code__.co_cellvars == ()
