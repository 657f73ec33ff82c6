"""CLI outputs pinned byte for byte: every verb on every fixture.

`golden_cli.json` maps "<fixture> <verb args>" to the exit code and the
sha256 of stdout. `golden_wide_cli.json` does the same for carriers
with 32 to 42 elements, and `golden_morphism_cli.json` for morphism
documents that are not identities. Regenerate them only for an intended
output change:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import collections
import contextlib
import functools
import hashlib
import io
import json
import tempfile
from pathlib import Path

from proxlat.cli import main
from proxlat.fixtures import CORPUS, document
from proxlat.lattice import FiniteLattice, kept

GOLDEN = Path(__file__).with_name("golden_cli.json")
VERBS = (("check",), ("canext", "--kind", "pi"), ("canext", "--kind", "sigma"),
         ("spectrum",), ("roundtrip",), ("dualize",), ("export-dot",),
         ("extend",))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def call(argv) -> tuple[int, str]:
    """Run the CLI in this process; the exit code and stdout."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, stdout.getvalue()


def outputs() -> dict:
    out = {}
    for name in CORPUS:
        for verb in VERBS:
            code, stdout = call([verb[0], name, *verb[1:]])
            out[" ".join((name,) + verb)] = {"exit": code,
                                             "sha256": sha256(stdout)}
    return out


def test_cli_outputs_match_golden():
    assert outputs() == json.loads(GOLDEN.read_text())


def test_calls_in_one_process_share_no_options(tmp_path):
    """The parser is built once per process; no option of one call may
    reach the next."""
    golden = json.loads(GOLDEN.read_text())

    def expect(key, code, stdout):
        assert {"exit": code, "sha256": sha256(stdout)} == golden[key], key

    expect("C3R canext --kind sigma", *call(["canext", "C3R", "--kind", "sigma"]))
    expect("C3R canext --kind pi", *call(["canext", "C3R"]))

    out = tmp_path / "out.json"
    code, stdout = call(["check", "B2", "-o", str(out)])
    assert stdout == ""
    expect("B2 check", code, out.read_text())
    out.unlink()
    expect("B2 check", *call(["check", "B2"]))
    assert not out.exists()

    dot = tmp_path / "c2.dot"
    expect("C2 canext --kind pi", *call(["canext", "C2", "--dot", str(dot)]))
    assert dot.read_text().startswith("digraph")
    dot.unlink()
    expect("C2 canext --kind pi", *call(["canext", "C2"]))
    assert not dot.exists()

    # a bad command line exits 2 with one diagnostic and no output
    for bad in (["canext", "M3", "--kind", "tau"], ["nosuchverb", "M3"],
                ["check"]):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(bad)
        assert (code, stdout.getvalue()) == (2, ""), bad
        diag = json.loads(stderr.getvalue())
        assert (diag["kind"], diag["status"], diag["error"]) == \
            ("diagnostic", "parse-error", "ParseError"), bad
        expect("B2 spectrum", *call(["spectrum", "B2"]))
    expect("FULL2 dualize", *call(["dualize", "FULL2"]))


# Carriers wider than a byte, so that the CLI runs the bit-matrix paths
# that no fixture reaches: sides 32 to 42 for the carriers, and the
# sides of their extensions. Built from the definitions, not the library.
WIDE_VERBS = (("check",), ("canext", "--kind", "pi"), ("canext", "--kind", "sigma"),
              ("roundtrip",))
WIDE_GOLDEN = Path(__file__).with_name("golden_wide_cli.json")


def _proximity_doc(prefix: str, up, rows) -> dict:
    """Every order pair and every R pair, labels prefix0, prefix1, ..."""
    labels = [f"{prefix}{i}" for i in range(len(up))]

    def pairs(masks):
        return [[labels[a], labels[b]] for a, m in enumerate(masks)
                for b in range(len(masks)) if m >> b & 1]

    return {"schema": "proxlat/1", "kind": "proximity",
            "lattice": {"elements": labels, "leq": pairs(up)}, "R": pairs(rows)}


def _pair_presentation(opens):
    """(open d, open e) with d inside e, ordered componentwise, and
    (d, e) R (d', e') iff e is inside d'."""
    elems = sorted(((d, e) for d in opens for e in opens if d & ~e == 0),
                   key=lambda de: (de[0].bit_count() + de[1].bit_count(), de))
    up = [sum(1 << j for j, (d2, e2) in enumerate(elems)
              if d & ~d2 == 0 and e & ~e2 == 0) for d, e in elems]
    rows = [sum(1 << j for j, (d2, _) in enumerate(elems) if e & ~d2 == 0)
            for _, e in elems]
    return up, rows


def wide_documents() -> dict:
    """The 33-chain and B5 with their orders, the 33-chain with x R y iff
    x is bottom or y is top, and the 42-element pair presentation of the
    four-point space whose point 3 specializes to 0 and 1."""
    n = 33
    chain = [((1 << n) - 1) & ~((1 << a) - 1) for a in range(n)]
    c3r = [chain[0] if a == 0 else 1 << n - 1 for a in range(n)]
    b5 = [sum(1 << t for t in range(32) if s & ~t == 0) for s in range(32)]
    # the opens of that space: the subsets that hold 0 and 1 if they hold 3
    opens = [s for s in range(16) if not s >> 3 & 1 or s & 0b11 == 0b11]
    docs = {"chain33": _proximity_doc("c", chain, chain),
            "B5": _proximity_doc("s", b5, b5),
            "c3r33": _proximity_doc("r", chain, c3r),
            "pairs42": _proximity_doc("p", *_pair_presentation(opens))}
    # the identity j-morphism of each: T is the converse of R
    for name, doc in list(docs.items()):
        part = {"lattice": doc["lattice"], "R": doc["R"]}
        docs[f"{name}-id"] = {"schema": "proxlat/1", "kind": "morphism",
                              "source": part, "target": part,
                              "T": [[b, a] for a, b in doc["R"]]}
    return docs


def wide_outputs(directory: Path) -> dict:
    out = {}
    for name, doc in wide_documents().items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc))
        verbs = (("extend",),) if name.endswith("-id") else WIDE_VERBS
        for verb in verbs:
            code, stdout = call([verb[0], str(path), *verb[1:]])
            out[" ".join((name,) + verb)] = {"exit": code,
                                             "sha256": sha256(stdout)}
    return out


def test_wide_cli_outputs_match_golden(tmp_path):
    assert wide_outputs(tmp_path) == json.loads(WIDE_GOLDEN.read_text())


def test_no_verb_builds_a_meet_or_join_table(tmp_path, monkeypatch):
    """Every verb reads the bounds it needs off the cone indices, so
    none builds the n x n meet or join table: counted at the two table
    builds, on the fixtures and on the 64-chain and B6 with their
    orders, extend and check also on the identity j-morphism of each."""
    builds = collections.Counter()
    for name in ("meet", "join"):
        build = getattr(FiniteLattice, name).fget.__wrapped__

        @functools.wraps(build)
        def counted(lat, build=build):
            builds[build.__name__] += 1
            return build(lat)
        monkeypatch.setattr(FiniteLattice, name, property(kept(counted)))
    n = 64
    chain = [((1 << n) - 1) & ~((1 << a) - 1) for a in range(n)]
    b6 = [sum(1 << t for t in range(n) if s & ~t == 0) for s in range(n)]
    docs = {name: document(name) for name in CORPUS}
    docs["chain64"] = _proximity_doc("c", chain, chain)
    docs["B6"] = _proximity_doc("s", b6, b6)
    codes = collections.Counter()
    for name, doc in docs.items():
        part = {"lattice": doc["lattice"], "R": doc["R"]}
        identity = {"schema": "proxlat/1", "kind": "morphism", "source": part,
                    "target": part, "T": [[b, a] for a, b in doc["R"]]}
        for kind, verbs in (("", VERBS[:-1]), ("-id", VERBS[-1:] + VERBS[:1])):
            path = tmp_path / f"{name}{kind}.json"
            path.write_text(json.dumps(identity if kind else doc))
            for verb in verbs:
                codes[call([verb[0], str(path), *verb[1:]])[0]] += 1
                assert not builds, (name + kind, verb, builds)
    assert set(codes) == {0, 1}, codes
    # the count sees a build
    assert FiniteLattice(1, (1,), (1,), 0, 0, ("x",)).join == ((0,),)
    assert builds == {"join": 1}


# Morphisms T = {(x, y) : y <= h(x)} for a map h of the underlying
# lattices, between fixtures, written out from h and the target's
# down-sets. The fixture rows above hold no morphism document, and the
# wide ones only identities.
MORPHISM_VERBS = (("check",), ("extend",))
MORPHISM_GOLDEN = Path(__file__).with_name("golden_morphism_cli.json")
DOWN = {"C2": {"0": ["0"], "1": ["0", "1"]},
        "C3": {"0": ["0"], "a": ["0", "a"], "1": ["0", "a", "1"]},
        "B2": {"0": ["0"], "p": ["0", "p"], "q": ["0", "q"],
               "1": ["0", "p", "q", "1"]}}


def _part(name: str, elements=None) -> dict:
    doc = document(name)
    lattice = dict(doc["lattice"], elements=elements or doc["lattice"]["elements"])
    return {"lattice": lattice, "R": doc["R"]}


def _morphism_doc(source: dict, target: dict, h: dict, down: dict) -> dict:
    return {"schema": "proxlat/1", "kind": "morphism", "source": source,
            "target": target, "T": [[x, y] for x, hx in h.items() for y in down[hx]]}


def morphism_documents() -> dict:
    """B2 to C3R along the projection onto p (a proximity morphism), M3
    to C2 sending all but 0 to 1 (monotone, not a homomorphism: no
    proximity morphism), the swap of p and q on B2, and the same swap
    with the target's elements listed in another order."""
    swap = {"0": "0", "p": "q", "q": "p", "1": "1"}
    return {
        "B2-C3R": _morphism_doc(_part("B2"), _part("C3R"),
                                {"0": "0", "p": "1", "q": "0", "1": "1"},
                                DOWN["C3"]),
        "M3-C2": _morphism_doc(_part("M3"), _part("C2"),
                               {"0": "0", "a": "1", "b": "1", "c": "1", "1": "1"},
                               DOWN["C2"]),
        "B2-swap": _morphism_doc(_part("B2"), _part("B2"), swap, DOWN["B2"]),
        "B2-swap-reordered": _morphism_doc(
            _part("B2"), _part("B2", ["1", "q", "p", "0"]), swap, DOWN["B2"]),
    }


def morphism_outputs(directory: Path) -> dict:
    out = {}
    for name, doc in morphism_documents().items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc))
        for verb in MORPHISM_VERBS:
            code, stdout = call([verb[0], str(path), *verb[1:]])
            out[" ".join((name,) + verb)] = {"exit": code,
                                             "sha256": sha256(stdout)}
    return out


def test_morphism_cli_outputs_match_golden(tmp_path):
    assert morphism_outputs(tmp_path) == json.loads(MORPHISM_GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(outputs(), indent=2, sort_keys=True) + "\n")
    with tempfile.TemporaryDirectory() as tmp:
        WIDE_GOLDEN.write_text(json.dumps(wide_outputs(Path(tmp)), indent=2,
                                          sort_keys=True) + "\n")
        MORPHISM_GOLDEN.write_text(json.dumps(
            morphism_outputs(Path(tmp)), indent=2, sort_keys=True) + "\n")
