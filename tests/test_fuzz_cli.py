"""Every CLI verb on mutated corpus documents, and random command lines.

One or two subtrees of a corpus document are replaced by random JSON
values. Whatever comes out, the CLI answers with an exit code in
{0, 1, 2}, raises nothing, and writes to stderr either nothing or
exactly one JSON diagnostic. A random command line is read the same
whether a leading verb goes straight to its subparser or the full
parser reads it all.
"""

import contextlib
import io
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxlat import fixtures
from proxlat.cli import _parse_args, build_parser, main
from proxlat.formats import (
    ParseError, lattice_to_doc, morphism_to_doc, space_to_doc)
from proxlat.proximity import identity_morphism
from proxlat.spectra import spectrum

VERBS = (("check",), ("canext",), ("canext", "--kind", "sigma"), ("extend",),
         ("spectrum",), ("dualize",), ("roundtrip",), ("export-dot",))


def _documents() -> list:
    c3r = fixtures.load("C3R")
    docs = [fixtures.document(name) for name in fixtures.CORPUS]
    docs.append(morphism_to_doc(identity_morphism(c3r)))
    docs.append(space_to_doc(spectrum(fixtures.load("B2")).space))
    docs.append(lattice_to_doc(fixtures.load("M3").lattice))
    return docs


DOCUMENTS = _documents()
# names and keys that occur in the corpus, so that a mutation often
# still refers to something real
WORDS = sorted({w for doc in DOCUMENTS for w in json.dumps(doc).split('"')
                if w.isidentifier() or w.isalnum()})

scalars = (st.none() | st.booleans() | st.integers(-3, 3)
           | st.floats(allow_nan=False, allow_infinity=False)
           | st.text(max_size=3) | st.sampled_from(WORDS))
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(WORDS) | st.text(max_size=3), inner,
                      max_size=3),
    max_leaves=8)


def _paths(node, prefix=()):
    """The paths of every proper subtree of a JSON value."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _replace(node, path, value):
    if not path:
        return value
    copy = dict(node) if isinstance(node, dict) else list(node)
    copy[path[0]] = _replace(node[path[0]], path[1:], value)
    return copy


@st.composite
def mutated_documents(draw):
    doc = draw(st.sampled_from(DOCUMENTS))
    for _ in range(draw(st.integers(1, 2))):
        paths = list(_paths(doc))
        if not paths:
            break
        doc = _replace(doc, draw(st.sampled_from(paths)), draw(json_values))
    return doc


@pytest.fixture(scope="module")
def doc_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, derandomize=True, deadline=None)
@given(doc=mutated_documents())
def test_every_verb_answers_a_mutated_document(doc_dir, doc):
    # a fresh file per document: overwriting one can cost far more
    fd, doc_path = tempfile.mkstemp(suffix=".json", dir=doc_dir)
    with os.fdopen(fd, "w") as out:
        out.write(json.dumps(doc))
    for verb in VERBS:
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            code = main([verb[0], doc_path, *verb[1:]])
        assert code in (0, 1, 2), verb
        if stderr.getvalue():
            assert json.loads(stderr.getvalue())["kind"] == "diagnostic", verb


# argv pieces: an option and its value stay together
PIECES = ([(verb,) for verb in build_parser().verbs]
          + [(name,) for name in fixtures.CORPUS]
          + [("-o", "x"), ("--out=x",), ("--dot", "d"), ("--", ), ("-h",),
             ("--he",)]
          + [("--kind", kind) for kind in ("pi", "sigma", "tau")]
          + [(junk,) for junk in ("", "x", "-", "-x", "--kin", "--out", "-o",
                                  "=", "check=x", "--kind=pi")])
tails = st.lists(st.sampled_from(PIECES), max_size=6).map(
    lambda pieces: [token for piece in pieces for token in piece])
argvs = tails | st.builds(lambda verb, tail: [verb, *tail],
                          st.sampled_from(list(build_parser().verbs)), tails)


def _outcome(parse, argv):
    """The namespace parse returns, the ParseError it raises, or its
    exit code with what it printed."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            return "namespace", parse(argv)
    except ParseError as exc:
        return "error", str(exc)
    except SystemExit as exc:
        return "exit", exc.code, out.getvalue()


@settings(max_examples=500, derandomize=True, deadline=None)
@given(argv=argvs)
def test_a_verb_first_command_line_reads_as_the_full_parser_reads_it(argv):
    assert _outcome(_parse_args, argv) == \
        _outcome(build_parser().parse_args, argv)
