"""The morphism search against its product-and-filter oracle, and the
size bound both enumerations share.

The proximity lattices are generated from their maps mu (the
`proximity` module docstring): every idempotent meet-preserving mu on L
gives the proximity relation a R b iff a <= mu(b), and every proximity
relation arises so. Each carrier is relabelled by a seeded permutation
that moves bottom off index 0, so the search cannot lean on bottom
coming first.
"""

import itertools
import random

import pytest

from oracles import proximity_morphisms_by_filter
from proxlat.fixtures import load
from proxlat.lattice import lattice_from_up
from proxlat.proximity import (
    all_j_morphisms,
    all_proximity_morphisms,
    proximity_lattice,
    round_ideal_masks,
)
from proxlat.relations import Relation

# cover pairs, bottom first; the labelling is shuffled below
CARRIERS = {
    "C3": [(0, 1), (1, 2)],
    "C4": [(0, 1), (1, 2), (2, 3)],
    "B2": [(0, 1), (0, 2), (1, 3), (2, 3)],
    "M3": [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)],
    "N5": [(0, 1), (1, 2), (0, 3), (2, 4), (3, 4)],
}


def shuffled_lattice(name, covers, rng):
    n = max(b for _, b in covers) + 1
    up = [1 << a for a in range(n)]
    for _ in range(n):  # transitive closure of the covers
        for a, b in covers:
            up[a] |= up[b]
    perm = list(range(n))
    while perm[0] == 0:
        rng.shuffle(perm)
    new_up = [0] * n
    labels = [""] * n
    for a in range(n):
        new_up[perm[a]] = sum(1 << perm[b] for b in range(n) if up[a] >> b & 1)
        labels[perm[a]] = f"{name.lower()}{a}"
    lat = lattice_from_up(labels, new_up)
    assert lat.bot != 0
    return lat


def proximity_lattices(lat, *, up_to_iso=True):
    """The proximity lattices on `lat` from the idempotent meet-preserving
    maps mu, one per isomorphism class unless `up_to_iso` is false."""
    n = lat.size
    autos = [s for s in itertools.permutations(range(n))
             if all(lat.leq(s[a], s[b]) == lat.leq(a, b)
                    for a in range(n) for b in range(n))
             ] if up_to_iso else [tuple(range(n))]
    seen = set()
    out = []
    for mu in itertools.product(range(n), repeat=n):
        if mu[lat.top] != lat.top or any(mu[mu[a]] != mu[a] for a in range(n)):
            continue
        if any(mu[lat.meet[a][b]] != lat.meet[mu[a]][mu[b]]
               for a in range(n) for b in range(a + 1, n)):
            continue
        images = []
        for s in autos:
            moved = [0] * n
            for a in range(n):
                moved[s[a]] = s[mu[a]]
            images.append(tuple(moved))
        if min(images) in seen:
            continue
        seen.add(min(images))
        rows = tuple(sum(1 << b for b in range(n) if lat.leq(a, mu[b]))
                     for a in range(n))
        out.append(proximity_lattice(lat, Relation(n, n, rows)))
    return out


@pytest.fixture(scope="module")
def generated():
    rng = random.Random(8)
    return {name: proximity_lattices(shuffled_lattice(name, covers, rng))
            for name, covers in CARRIERS.items()}


def test_generated_counts(generated):
    # isomorphism classes; C3, C4 and N5 have no automorphism but the
    # identity, B2 has 11 labelled proximity lattices and M3 21
    counts = {name: len(ps) for name, ps in generated.items()}
    assert counts == {"C3": 5, "C4": 13, "B2": 7, "M3": 8, "N5": 24}


def assert_same_as_oracle(src, tgt):
    fast = all_proximity_morphisms(src, tgt)
    slow = proximity_morphisms_by_filter(src, tgt)
    assert [t.T.rows for t in fast] == [t.T.rows for t in slow]
    assert [t.report for t in fast] == [t.report for t in slow]
    assert all(t.source is src and t.target is tgt for t in fast)
    return len(fast)


@pytest.mark.parametrize("src_name,tgt_name", list(itertools.product(
    ("C3", "C4", "B2", "M3"), repeat=2)))
def test_search_matches_oracle(generated, src_name, tgt_name):
    found = 0
    for src in generated[src_name]:
        for tgt in generated[tgt_name]:
            found += assert_same_as_oracle(src, tgt)
    assert found > 0


def test_search_matches_oracle_on_n5_sample(generated):
    rng = random.Random(5)
    others = [p for name in ("C3", "C4", "B2", "M3") for p in generated[name]]
    n5 = rng.sample(generated["N5"], 6)
    pairs = [(n5[i], n5[i + 1]) for i in range(0, 6, 2)]
    pairs += [(p, rng.choice(others)) for p in n5[:3]]
    pairs += [(rng.choice(others), p) for p in n5[3:]]
    for src, tgt in pairs:
        assert_same_as_oracle(src, tgt)


def test_search_reproduces_census_counts():
    # the census pass: every proximity morphism between the join-strong
    # proximity lattices on C4 and B2, all of them, labelled
    rng = random.Random(9)
    pool = [p for name in ("C4", "B2")
            for p in proximity_lattices(
                shuffled_lattice(name, CARRIERS[name], rng), up_to_iso=False)]
    assert len(pool) == 24
    pool = [p for p in pool if p.join_strong]
    found = j_found = 0
    for src, tgt in itertools.product(pool, repeat=2):
        ts = all_proximity_morphisms(src, tgt)
        found += len(ts)
        j_found += sum(t.is_j for t in ts)
        assert [t.T for t in all_j_morphisms(src, tgt)] == [t.T for t in ts if t.is_j]
    assert (len(pool), found, j_found) == (19, 1140, 538)


def test_search_limit_refusal():
    b2 = load("B2")
    # four round ideals on a four-element source: 4 ** 4 = 256 candidates
    assert len(round_ideal_masks(b2)) ** b2.size == 256
    for enumerate_ in (all_proximity_morphisms, all_j_morphisms,
                       proximity_morphisms_by_filter):
        with pytest.raises(ValueError, match=r"^search space 256 exceeds limit 255$"):
            enumerate_(b2, b2, limit=255)
        assert len(enumerate_(b2, b2, limit=256)) > 0
