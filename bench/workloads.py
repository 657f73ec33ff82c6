"""The three workloads: their inputs, made from the seed, and the
verdicts expected of them, known from how each input was built.

`scale` and `batch` are lists of `Item`s, each one call of
`proxlat.cli.main`. `census` is a function that makes its own library
calls through a timer. See README.md in this directory for why each
workload exists.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

import gen

VERBS = (("check",), ("canext", "--kind", "pi"), ("canext", "--kind", "sigma"),
         ("spectrum",), ("roundtrip",), ("dualize",), ("export-dot",))
FIXTURES = ("C2", "C3", "B2", "M3", "FULL2", "C3R")

Check = Callable[[str, str], Optional[str]]


@dataclass
class Item:
    id: str
    argv: tuple[str, ...]
    expect: int
    check: Optional[Check] = None


@dataclass
class CliWorkload:
    files: dict[str, str]
    items: list[Item]
    # checks over the stdout of several items, run after each pass
    cross: list[Callable[[dict[str, str]], Optional[str]]] = field(
        default_factory=list)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _json(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return None


def one_diagnostic(out: str, err: str) -> Optional[str]:
    """A failure exit writes nothing to stdout and one JSON document,
    a diagnostic, to stderr."""
    doc = _json(err)
    if out or not isinstance(doc, dict) or doc.get("kind") != "diagnostic":
        return "expected exactly one JSON diagnostic on stderr"
    return None


def check_report(flags: dict) -> Check:
    def check(out, err):
        doc = _json(out)
        if not isinstance(doc, dict) or doc.get("kind") != "axiom_report":
            return "check: no axiom report"
        wrong = {k: doc.get(k) for k, v in flags.items() if doc.get(k) != v}
        return f"check: flags {wrong} differ from {flags}" if wrong else None
    return check


def check_extension(kind: str, reflexive: bool, size: Optional[int]) -> Check:
    """Both extensions are increasing, dense and compact; pi preserves
    joins and sigma meets, and each preserves the other side exactly
    when R is reflexive."""
    want = {"increasing": True, "dense": True, "compact": True,
            "join_preserving": kind == "pi" or reflexive,
            "meet_preserving": kind == "sigma" or reflexive}

    def check(out, err):
        doc = _json(out)
        if not isinstance(doc, dict) or doc.get("extension_kind") != kind:
            return f"canext: no {kind} extension"
        if doc["report"] != want:
            return f"canext: report {doc['report']}, expected {want}"
        if size is not None and len(doc["elements"]) != size:
            return f"canext: {len(doc['elements'])} elements, expected {size}"
        return None
    return check


def check_spectrum(points: int) -> Check:
    def check(out, err):
        doc = _json(out)
        if not isinstance(doc, dict) or len(doc.get("points", ())) != points:
            return f"spectrum: expected {points} points"
        return None
    return check


def check_roundtrip(points: int) -> Check:
    def check(out, err):
        lines = out.splitlines()
        if len(lines) != 3 or not all(x.startswith("PASS") for x in lines) \
                or lines[0] != f"PASS spectrum: {points} point(s)":
            return f"roundtrip: unexpected output {lines[:1]}"
        return None
    return check


def _pairs(raw) -> set:
    return {tuple(p) for p in raw}


def check_opposite(leq: set, r: set) -> Check:
    """dualize gives (L^op, R^-1): covers and relation pairs reversed."""
    def check(out, err):
        doc = _json(out)
        if not isinstance(doc, dict) or doc.get("kind") != "proximity":
            return "dualize: no proximity document"
        if _pairs(doc["lattice"]["leq"]) != {(b, a) for a, b in leq}:
            return "dualize: order is not reversed"
        if _pairs(doc["R"]) != {(b, a) for a, b in r}:
            return "dualize: relation is not the converse"
        return None
    return check


def check_dot(edges: set) -> Check:
    """Hasse diagram: one node per element, one edge per cover."""
    def check(out, err):
        lines = out.splitlines()
        if not lines or not lines[0].startswith("digraph"):
            return "export-dot: not a digraph"
        label = {}
        got = set()
        for line in lines[2:-1]:
            head, _, rest = line.strip().partition(" ")
            if rest.startswith("[label="):
                label[head] = json.loads(rest[len("[label="):].split(",")[0]
                                         .rstrip("];"))
            elif rest.startswith("-> "):
                got.add((head, rest[3:].rstrip(";")))
        if {(label[a], label[b]) for a, b in got} != edges:
            return "export-dot: edges are not the covers"
        return None
    return check


def check_identity_extension(out, err) -> Optional[str]:
    doc = _json(out)
    if not isinstance(doc, dict) or doc.get("kind") != "extended_map":
        return "extend: no extended map"
    if any(k != v for k, v in doc["table"].items()):
        return "extend: identity does not extend to the identity"
    return None


def check_morphism_report(proximity: bool) -> Check:
    def check(out, err):
        doc = _json(out)
        if not isinstance(doc, dict) or doc.get("proximity") is not proximity:
            return f"check: proximity flag should be {proximity}"
        return None
    return check


def check_space_dual(opens: set) -> Check:
    def check(out, err):
        doc = _json(out)
        if not isinstance(doc, dict) or doc.get("kind") != "space":
            return "dualize: no space document"
        full = frozenset(doc["points"])
        if {full - frozenset(u) for u in doc["opens"]} != opens:
            return "dualize: opens are not the complements"
        return None
    return check


def _order_of(doc) -> tuple[dict, list[int]]:
    index = {x: i for i, x in enumerate(doc["elements"])}
    up = gen.close_up(len(index), [(index[a], index[b]) for a, b in doc["leq"]])
    return index, up


def iso_over_embeddings(d1: dict, d2: dict) -> bool:
    """Is there an order isomorphism between two extensions that carries
    the first embedding to the second? Found by backtracking."""
    i1, up1 = _order_of(d1)
    i2, up2 = _order_of(d2)
    n = len(up1)
    if n != len(up2):
        return False
    table: dict[int, int] = {}
    for a, x in d1["embed"].items():
        y = i2[d2["embed"][a]]
        if table.setdefault(i1[x], y) != y:
            return False
    if len(set(table.values())) != len(table):
        return False

    def fits(x, y):
        return all((up1[x] >> x2 & 1) == (up2[y] >> y2 & 1)
                   and (up1[x2] >> x & 1) == (up2[y2] >> y & 1)
                   for x2, y2 in table.items())

    pinned = list(table.items())
    table.clear()
    for x, y in pinned:
        if not fits(x, y):
            return False
        table[x] = y
    rest = [x for x in range(n) if x not in table]

    def extend(k):
        if k == len(rest):
            return True
        x = rest[k]
        for y in range(n):
            if y not in table.values() and fits(x, y):
                table[x] = y
                if extend(k + 1):
                    return True
                del table[x]
        return False

    return extend(0)


def cross_pi_sigma(pi_id: str, sigma_id: str, reflexive: bool):
    """pi and sigma extensions agree over the embeddings iff R is reflexive."""
    def check(outputs):
        if pi_id not in outputs or sigma_id not in outputs:
            return None
        iso = iso_over_embeddings(json.loads(outputs[pi_id]),
                                  json.loads(outputs[sigma_id]))
        if iso != reflexive:
            return f"{pi_id}: pi/sigma isomorphic={iso}, reflexive={reflexive}"
        return None
    return check


# ---------------------------------------------------------------------------
# One proximity lattice through every verb
# ---------------------------------------------------------------------------

@dataclass
class Carrier:
    """A generated proximity lattice with the facts known about it."""

    name: str
    up: list[int]
    rows: list[int]
    labels: list[str]
    doc: dict
    reflexive: bool
    points: Optional[int]      # spectrum size, known from the construction

    @property
    def distributive(self) -> bool:
        return gen.distributive(self.up)


def carrier(name, up, rows, rng, *, reflexive, points) -> Carrier:
    labels = gen.names(name[:1], len(up), rng)
    return Carrier(name, up, rows, labels,
                   gen.proximity_doc(up, rows, labels, rng), reflexive, points)


def verb_items(c: Carrier, path: str, out: CliWorkload) -> None:
    dist = c.distributive
    leq = _pairs(c.doc["lattice"]["leq"])
    r = _pairs(c.doc["R"])
    flags = {"axioms_ok": True, "join_strong": True, "meet_strong": True,
             "increasing": True, "reflexive": c.reflexive, "distributive": dist}
    size = len(c.up) if c.reflexive else None
    bad = 0 if dist else 1
    expect = {
        "check": (0, check_report(flags)),
        "canext-pi": (0, check_extension("pi", c.reflexive, size)),
        "canext-sigma": (0, check_extension("sigma", c.reflexive, size)),
        "spectrum": (bad, check_spectrum(c.points) if dist else one_diagnostic),
        "roundtrip": (bad, check_roundtrip(c.points) if dist else one_diagnostic),
        "dualize": (0, check_opposite(leq, r)),
        "export-dot": (0, check_dot(leq)),
    }
    for argv in VERBS:
        verb = "-".join(a for a in argv if a != "--kind")
        code, check = expect[verb]
        out.items.append(Item(f"{c.name}/{verb}", (argv[0], path) + argv[1:],
                              code, check))
    out.cross.append(cross_pi_sigma(f"{c.name}/canext-pi",
                                    f"{c.name}/canext-sigma", c.reflexive))


def identity_doc(c: Carrier) -> dict:
    """The identity j-morphism R^-1 of a join-strong carrier."""
    t = gen.converse(c.rows, len(c.rows))
    return gen.morphism_doc(c.doc, c.doc, t, c.labels, c.labels)


# ---------------------------------------------------------------------------
# scale
# ---------------------------------------------------------------------------

SCALE_SIZES = {
    "full": {"chain": (16, 32, 64), "boolean": (4, 5, 6), "c3r": (16, 32, 64),
             "spaces": gen.SPACE_SHAPES,
             "extend": (16, 42)},
    "min": {"chain": (4,), "boolean": (2,), "c3r": (4,),
            "spaces": gen.SPACE_SHAPES[:1], "extend": (4, 4)},
}


def scale_carriers(rng: random.Random, size: str) -> list[Carrier]:
    spec = SCALE_SIZES[size]
    out = []
    for n in spec["chain"]:
        up = gen.chain(n)
        out.append(carrier(f"chain{n}", up, up, rng, reflexive=True,
                           points=n - 1))
    for k in spec["boolean"]:
        up = gen.shuffled(gen.boolean(k), rng)
        out.append(carrier(f"bool{k}", up, up, rng, reflexive=True, points=k))
    for n in spec["c3r"]:
        up = gen.chain(n)
        out.append(carrier(f"c3r{n}", up, gen.c3r_rows(up), rng,
                           reflexive=False, points=1))
    for i, (points, pairs) in enumerate(spec["spaces"]):
        up = gen.close_up(points, pairs)
        lat_up, rows = gen.pairs_presentation(gen.upsets(up))
        order = gen.random_linear_extension(lat_up, rng)
        pos = {old: new for new, old in enumerate(order)}
        rows = [sum(1 << pos[b] for b in gen.bits(rows[old])) for old in order]
        out.append(carrier(f"pairs{len(lat_up)}-{i}", gen.reorder(lat_up, order),
                           rows, rng, reflexive=False, points=points))
    return out


def scale(seed: int, size: str = "full") -> CliWorkload:
    """Large carriers through every verb that applies; `extend` runs on
    the identity morphisms of the mid-size ones."""
    rng = random.Random(f"scale-{seed}")
    w = CliWorkload({}, [])
    for c in scale_carriers(rng, size):
        path = f"{c.name}.json"
        w.files[path] = gen.text(c.doc)
        verb_items(c, path, w)
        low, high = SCALE_SIZES[size]["extend"]
        if low <= len(c.up) <= high:
            mpath = f"{c.name}-id.json"
            w.files[mpath] = gen.text(identity_doc(c))
            w.items.append(Item(f"{c.name}/extend", ("extend", mpath), 0,
                                check_identity_extension))
    return w


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------

# Exit codes of the shipped fixtures: M3 is not distributive, so it has
# no spectrum; a proximity document is not a morphism document.
FIXTURE_EXIT = {"spectrum": {"M3": 1}, "roundtrip": {"M3": 1},
                "extend": {name: 2 for name in FIXTURES}}

# (source, target) carriers whose maps h give relations a T b iff b <= h(a)
MORPHISM_PAIRS = {"full": (("c3", "c3"), ("b2", "c3r"), ("b2", "b2"),
                           ("m3", "c2"), ("c3r", "c3r")),
                  "min": (("c2", "c2"),)}
RANDOM_LATTICES = {"full": (5, 6, 7, 8) * 3, "min": (5,)}
RANDOM_SPACES = {"full": (3, 3, 3, 4, 4, 4), "min": (3,)}


def small_carriers(rng: random.Random) -> dict[str, Carrier]:
    c2, c3 = gen.chain(2), gen.chain(3)
    b2 = gen.boolean(2)
    m3 = gen.m3()
    return {
        "c2": carrier("c2", c2, c2, rng, reflexive=True, points=1),
        "c3": carrier("c3", c3, c3, rng, reflexive=True, points=2),
        "b2": carrier("b2", b2, b2, rng, reflexive=True, points=2),
        "m3": carrier("m3", m3, m3, rng, reflexive=True, points=None),
        "c3r": carrier("c3r", c3, gen.c3r_rows(c3), rng, reflexive=False,
                       points=1),
    }


def random_poset(n: int, rng: random.Random) -> list[int]:
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)
             if rng.random() < 0.4]
    return gen.close_up(n, pairs)


def invalid_inputs(rng: random.Random) -> list[tuple[str, str, dict]]:
    """(name, file text, {verb: expected exit}) for inputs the CLI must
    refuse with a typed answer. A top-level JSON array still escapes
    `check` as an AttributeError at the seed commit; it stays here and
    counts as a failed item until the CLI answers it."""
    c3 = gen.chain(3)
    labels = gen.names("v", 3, rng)
    good = gen.proximity_doc(c3, c3, labels, rng)
    no_top = dict(good, lattice={"elements": labels,
                                 "leq": [[labels[0], labels[1]],
                                         [labels[0], labels[2]]]})
    # bottom R everything and a R top, but top R nothing: R;R misses (a, top)
    loose = dict(good, R=[[labels[0], x] for x in labels] + [[labels[1], labels[2]]])
    unknown = dict(good, R=good["R"] + [[labels[0], "zz"]])
    whole = gen.text(good)
    return [
        ("not-a-lattice", gen.text(no_top), {"check": 1, "canext": 1}),
        ("not-idempotent", gen.text(loose), {"check": 1, "canext": 1}),
        ("unknown-label", gen.text(unknown), {"check": 2, "canext": 2}),
        ("truncated", whole[:len(whole) // 2], {"check": 2, "canext": 2}),
        ("array", json.dumps([good]), {"check": 2, "canext": 2}),
    ]


def batch(seed: int, size: str = "full") -> CliWorkload:
    """Many small documents: fixed per-call cost dominates."""
    rng = random.Random(f"batch-{seed}")
    w = CliWorkload({}, [])

    for name in FIXTURES:
        for argv in VERBS + (("extend",),):
            verb = "-".join(a for a in argv if a != "--kind")
            code = FIXTURE_EXIT.get(argv[0], {}).get(name, 0)
            w.items.append(Item(f"{name}/{verb}", (argv[0], name) + argv[1:],
                                code, one_diagnostic if code else None))

    small = small_carriers(rng)
    for s, t in MORPHISM_PAIRS[size]:
        src, tgt = small[s], small[t]
        t_down = gen.down_of(tgt.up)
        maps = [[]]
        for _ in src.up:
            maps = [m + [y] for m in maps for y in range(len(tgt.up))]
        for k, h in enumerate(maps):
            rows = [t_down[y] for y in h]
            ok = gen.is_proximity_morphism(src.up, src.rows, tgt.up, tgt.rows,
                                           rows)
            path = f"morph-{s}-{t}-{k}.json"
            w.files[path] = gen.text(gen.morphism_doc(src.doc, tgt.doc, rows,
                                                      src.labels, tgt.labels))
            w.items.append(Item(f"{s}-{t}-{k}/check", ("check", path),
                                0 if ok else 1, check_morphism_report(ok)))
            w.items.append(Item(f"{s}-{t}-{k}/extend", ("extend", path),
                                0 if ok else 1,
                                None if ok else one_diagnostic))

    for k, n in enumerate(RANDOM_LATTICES[size]):
        up = gen.random_lattice(n, rng)
        c = carrier(f"lat{k}", up, up, rng, reflexive=True,
                    points=sum(1 for a in range(1, n) if _join_irreducible(up, a)))
        path = f"{c.name}.json"
        w.files[path] = gen.text(c.doc)
        verb_items(c, path, w)

    for k, n in enumerate(RANDOM_SPACES[size]):
        up = random_poset(n, rng)
        labels = gen.names("p", n, rng)
        opens = gen.upsets(up)
        path = f"space{k}.json"
        w.files[path] = gen.text(gen.space_doc(opens, labels))
        label_sets = {frozenset(labels[x] for x in gen.bits(u)) for u in opens}
        edges = {(labels[a], labels[b]) for a, b in gen.covers(up)}
        w.items.append(Item(f"space{k}/dualize", ("dualize", path), 0,
                            check_space_dual(label_sets)))
        w.items.append(Item(f"space{k}/export-dot", ("export-dot", path), 0,
                            check_dot(edges)))

    for name, body, verbs in invalid_inputs(rng):
        path = f"bad-{name}.json"
        w.files[path] = body
        for verb, code in verbs.items():
            check = one_diagnostic
            if name == "not-idempotent" and verb == "check":
                check = check_report({"axioms_ok": False, "idempotent": False})
            w.items.append(Item(f"bad-{name}/{verb}", (verb, path), code, check))
    return w


def _join_irreducible(up: list[int], a: int) -> bool:
    """Prime filters of a finite distributive lattice are the principal
    filters of its join-irreducible elements: those with one lower cover."""
    return sum(1 for _, b in gen.covers(up) if b == a) == 1


# ---------------------------------------------------------------------------
# census
# ---------------------------------------------------------------------------

CENSUS_CARRIERS = {"full": (("C4", gen.chain(4)), ("B2", gen.boolean(2))),
                   "min": (("C3", gen.chain(3)),)}


def census_lattices(lib, seed: int, size: str) -> list:
    """The census carriers under a seeded renaming of their elements.
    Any permutation will do: the library does not need bottom first."""
    rng = random.Random(f"census-{seed}")
    out = []
    for name, up in CENSUS_CARRIERS[size]:
        order = list(range(len(up)))
        rng.shuffle(order)
        out.append((name, lib.lattice.lattice_from_up(gen.names(name[0], len(up), rng),
                                              gen.reorder(up, order))))
    return out


def census(lib, lattices, call) -> tuple[dict, list[str]]:
    """One exhaustive pass; every library call goes through `call`, which
    times it as one item. Returns the counts and the failed checks."""
    errors: list[str] = []
    counts: dict[str, int] = {}

    def bump(key):
        counts[key] = counts.get(key, 0) + 1

    found = []
    for name, lat in lattices:
        n = lat.size
        full = (1 << n) - 1
        order_found = False
        for code in range(1 << (n * n)):
            rel = lib.Relation(n, n, tuple(code >> (a * n) & full
                                           for a in range(n)))
            rep = call(lib.verify_axioms, lat, rel)
            bump("relations")
            if not rep.axioms_ok:
                continue
            found.append(lib.ProximityLattice(lat, rel, rep))
            bump(f"{name}:" + ",".join(k for k in ("join_strong", "meet_strong",
                                                    "increasing", "reflexive")
                                       if getattr(rep, k)))
            if rel.rows == lat.up:
                order_found = rep.reflexive and rep.doubly_strong
        if not order_found:
            errors.append(f"census: the order of {name} is not a reflexive, "
                          "doubly strong proximity relation")

    pi = {}
    for i, p in enumerate(found):
        if p.join_strong:
            pi[i] = call(lib.pi_extension, p)
            if not call(lib.verify_extension, pi[i]).passes("pi"):
                errors.append(f"census: pi extension {i} does not verify")
        if p.meet_strong:
            s = call(lib.sigma_extension, p)
            if not call(lib.verify_extension, s).passes("sigma"):
                errors.append(f"census: sigma extension {i} does not verify")
        if p.doubly_strong:
            c = call(lib.pi_sigma_comparison, p)
            if not c.equivalent or c.phi_exists != p.reflexive:
                errors.append(f"census: pi/sigma dichotomy fails on {i}")

    for i in pi:
        for j in pi:
            src, tgt = found[i], found[j]
            for t in call(lib.all_proximity_morphisms, src, tgt):
                bump("morphisms")
                m = call(lib.extend_pi, t, pi[i], pi[j])
                if not call(lib.check_preservation, m).required_ok:
                    errors.append(f"census: extension of a morphism {i}->{j} "
                                  "fails its preservation report")
                if t.is_j:
                    bump("j_morphisms")
                    if src.distributive and tgt.distributive:
                        d = call(lib.dual_map, t)
                        if not call(lib.compare_with_dual, m, d):
                            errors.append(f"census: j-morphism {i}->{j} is not "
                                          "the preimage map of its dual")
    return counts, errors
