"""Seeded input generators and independent reference checks.

Nothing here imports proxlat: the inputs and the verdicts expected of
them come from the definitions alone, so the benchmark does not grade
the library with the library.

A finite poset on 0..n-1 is a list of up-set masks (reflexive and
transitive). Every generator lists elements in a linear extension, so
bottom comes first and top last, and the seed picks only which linear
extension, the element names and the order of pairs in a document.
That keeps the work per input the same for every seed.
"""

from __future__ import annotations

import json
import random


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def subset(a: int, b: int) -> bool:
    return a & ~b == 0


# ---------------------------------------------------------------------------
# Posets and lattices
# ---------------------------------------------------------------------------

def close_up(n: int, pairs) -> list[int]:
    """Reflexive transitive closure of a relation given as (a, b) pairs."""
    up = [1 << a for a in range(n)]
    for a, b in pairs:
        up[a] |= 1 << b
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
    return up


def down_of(up: list[int]) -> list[int]:
    down = [0] * len(up)
    for a, row in enumerate(up):
        for b in bits(row):
            down[b] |= 1 << a
    return down


def covers(up: list[int]) -> list[tuple[int, int]]:
    down = down_of(up)
    out = []
    for a, row in enumerate(up):
        strict = row & ~(1 << a)
        for b in bits(strict):
            if not strict & down[b] & ~(1 << b):
                out.append((a, b))
    return out


def tables(up: list[int]):
    """Join and meet tables, or None when the poset is not a lattice."""
    n = len(up)
    down = down_of(up)

    def least(cone):
        for m in bits(cone):
            if subset(cone, up[m]):
                return m
        return None

    def greatest(cone):
        for m in bits(cone):
            if subset(cone, down[m]):
                return m
        return None

    join = [[0] * n for _ in range(n)]
    meet = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(a, n):
            j = least(up[a] & up[b])
            m = greatest(down[a] & down[b])
            if j is None or m is None:
                return None
            join[a][b] = join[b][a] = j
            meet[a][b] = meet[b][a] = m
    return join, meet


def distributive(up: list[int]) -> bool:
    join, meet = tables(up)
    n = len(up)
    return all(meet[a][join[b][c]] == join[meet[a][b]][meet[a][c]]
               for a in range(n) for b in range(n) for c in range(n))


def chain(n: int) -> list[int]:
    return [((1 << n) - 1) & ~((1 << a) - 1) for a in range(n)]


def boolean(k: int) -> list[int]:
    """Subsets of a k-set, listed by size, ordered by inclusion."""
    sets = sorted(range(1 << k), key=lambda s: (s.bit_count(), s))
    return [sum(1 << j for j, t in enumerate(sets) if subset(s, t))
            for s in sets]


def m3() -> list[int]:
    return close_up(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def reorder(up: list[int], order: list[int]) -> list[int]:
    """The same poset with old element order[i] renamed i."""
    pos = {old: new for new, old in enumerate(order)}
    out = [0] * len(up)
    for new, old in enumerate(order):
        out[new] = sum(1 << pos[b] for b in bits(up[old]))
    return out


def random_linear_extension(up: list[int], rng: random.Random) -> list[int]:
    n = len(up)
    down = down_of(up)
    placed = 0
    order = []
    while len(order) < n:
        ready = [a for a in range(n) if not placed >> a & 1
                 and subset(down[a] & ~(1 << a), placed)]
        a = rng.choice(ready)
        order.append(a)
        placed |= 1 << a
    return order


def shuffled(up: list[int], rng: random.Random) -> list[int]:
    return reorder(up, random_linear_extension(up, rng))


def random_lattice(n: int, rng: random.Random) -> list[int]:
    """A random bounded lattice on n elements, by rejection."""
    while True:
        pairs = [(0, a) for a in range(1, n)] + [(a, n - 1) for a in range(n - 1)]
        for a in range(1, n - 1):
            for b in range(a + 1, n - 1):
                if rng.random() < 0.35:
                    pairs.append((a, b))
        up = close_up(n, pairs)
        if tables(up) is not None:
            return up


# ---------------------------------------------------------------------------
# Relations
# ---------------------------------------------------------------------------

def c3r_rows(up: list[int]) -> list[int]:
    """x R y iff x is bottom or y is top (element 0 is bottom, n-1 top)."""
    n = len(up)
    full = (1 << n) - 1
    return [full if a == 0 else 1 << (n - 1) for a in range(n)]


def compose(r: list[int], s: list[int]) -> list[int]:
    out = []
    for row in r:
        acc = 0
        for b in bits(row):
            acc |= s[b]
        out.append(acc)
    return out


def converse(rows: list[int], m: int) -> list[int]:
    cols = [0] * m
    for a, row in enumerate(rows):
        for b in bits(row):
            cols[b] |= 1 << a
    return cols


def is_proximity_morphism(src_up, src_r, tgt_up, tgt_r, t) -> bool:
    """T : (L, S) -> (M, R) straight from the definition: S^-1;T = T,
    T;R^-1 = T, every row a lattice ideal of M, every column a lattice
    filter of L. Both carriers list bottom first and top last."""
    n, m = len(src_up), len(tgt_up)
    if compose(converse(src_r, n), t) != t:
        return False
    if compose(t, converse(tgt_r, m)) != t:
        return False
    tj, _ = tables(tgt_up)
    _, sm = tables(src_up)
    t_down = down_of(tgt_up)
    for row in t:
        if not row & 1 or any(not subset(t_down[b], row) for b in bits(row)):
            return False
        if any(not row >> tj[b][c] & 1 for b in bits(row) for c in bits(row)):
            return False
    for col in converse(t, m):
        if not col >> (n - 1) & 1 or any(not subset(src_up[a], col)
                                         for a in bits(col)):
            return False
        if any(not col >> sm[a][c] & 1 for a in bits(col) for c in bits(col)):
            return False
    return True


# ---------------------------------------------------------------------------
# Finite T0 spaces
# ---------------------------------------------------------------------------

def upsets(up: list[int]) -> list[int]:
    """Opens of the Alexandrov space whose specialization order is up."""
    n = len(up)
    return [s for s in range(1 << n)
            if all(subset(up[x], s) for x in bits(s))]


# Every specialization order (points, order pairs) on at most four
# points whose pair presentation has 27 to 42 elements, one per
# isomorphism class; the comment gives that size.
SPACE_SHAPES = (
    (3, ()),                                # 27, discrete
    (4, ((2, 0), (3, 2))),                  # 30
    (4, ((2, 0), (3, 0), (3, 1))),          # 31
    (4, ((3, 0), (3, 1), (3, 2))),          # 36
    (4, ((2, 0), (3, 1))),                  # 36
    (4, ((1, 0), (2, 0), (3, 0))),          # 36
    (4, ((3, 0), (3, 1))),                  # 42
    (4, ((2, 0), (3, 0))),                  # 42
)


def pairs_presentation(opens: list[int]):
    """Pairs (open d, saturated e) with d inside e, componentwise order,
    (d, e) R (d', e') iff e inside d'. On a finite space the saturated
    sets are the opens."""
    elems = [(d, e) for d in opens for e in opens if subset(d, e)]
    elems.sort(key=lambda de: (de[0].bit_count() + de[1].bit_count(), de))
    up = [sum(1 << j for j, (d2, e2) in enumerate(elems)
              if subset(d, d2) and subset(e, e2)) for d, e in elems]
    rows = [sum(1 << j for j, (d2, _) in enumerate(elems) if subset(e, d2))
            for _, e in elems]
    return up, rows


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------

SCHEMA = "proxlat/1"


def names(prefix: str, n: int, rng: random.Random) -> list[str]:
    """n distinct element names; the seed decides which element gets which."""
    idx = list(range(n))
    rng.shuffle(idx)
    return [f"{prefix}{i}" for i in idx]


def lattice_doc(up, labels, rng) -> dict:
    pairs = [[labels[a], labels[b]] for a, b in covers(up)]
    rng.shuffle(pairs)
    return {"elements": list(labels), "leq": pairs}


def proximity_doc(up, rows, labels, rng) -> dict:
    r = [[labels[a], labels[b]] for a, row in enumerate(rows) for b in bits(row)]
    rng.shuffle(r)
    return {"schema": SCHEMA, "kind": "proximity",
            "lattice": lattice_doc(up, labels, rng), "R": r}


def morphism_doc(src: dict, tgt: dict, t, src_labels, tgt_labels) -> dict:
    pairs = [[src_labels[a], tgt_labels[b]] for a, row in enumerate(t)
             for b in bits(row)]
    return {"schema": SCHEMA, "kind": "morphism",
            "source": {"lattice": src["lattice"], "R": src["R"]},
            "target": {"lattice": tgt["lattice"], "R": tgt["R"]},
            "T": pairs}


def space_doc(opens, labels) -> dict:
    return {"schema": SCHEMA, "kind": "space", "points": list(labels),
            "opens": [[labels[x] for x in bits(u)] for u in opens]}


def text(doc) -> str:
    return json.dumps(doc, indent=1) + "\n"
