"""Command-line front end.

Verbs: check, canext, extend, spectrum, dualize, roundtrip, export-dot.
Inputs are JSON documents (see formats); fixture names (C2, C3, B2, M3,
FULL2, C3R) are accepted wherever a proximity-lattice file is expected.
Exit status: 0 all checked properties hold, 1 a property failed, 2 the
command line or the input did not parse or a file could not be read or
written. Diagnostics go to stderr as JSON; results go to stdout (or
--out) and are byte-identical across runs on equal inputs. Only -h
prints usage. A command line that starts with a verb is read once, by
that verb's parser; any other goes through the full parser, which
reads it to the same result or diagnostic. extend refuses a morphism
before it builds any extension: NotJoinStrong if the source, then if
the target, is not join-strong, then NotAProximityMorphism.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from . import fixtures
from .canext import (
    pi_extension, require_join_strong, sigma_extension, verify_extension)
from .errors import ProxlatError
from .formats import (
    SCHEMA,
    ParseError,
    axiom_report_to_doc,
    carrier_from_doc,
    diagnostic_doc,
    dot_lattice,
    dot_space,
    dumps,
    extended_map_to_doc,
    extension_to_doc,
    lattice_from_doc,
    morphism_from_doc,
    morphism_report_to_doc,
    proximity_from_doc,
    proximity_to_doc,
    space_from_doc,
    space_to_doc,
    spectrum_to_doc,
)
from .morphext import check_preservation, extend_pi, require_proximity
from .proximity import opposite_proximity, verify_axioms
from .spectra import canext_via_duality, co_compact_dual, spectrum

PARSE_FAILURE = 2
PROPERTY_FAILURE = 1


def _load_doc(path: str) -> dict:
    if path.upper() in fixtures.CORPUS:
        return fixtures.document(path)
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.loads(fh.read())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: expected a JSON object, "
                         f"not {type(doc).__name__}")
    # nested documents carry no tag, so a missing one is accepted
    if doc.get("schema", SCHEMA) != SCHEMA:
        raise ParseError(f"{path}: schema {doc['schema']!r} is not {SCHEMA!r}")
    return doc


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _diag(status: str, kind: str, detail: str, witnesses=(), labels=()) -> None:
    sys.stderr.write(dumps(diagnostic_doc(status, kind, detail,
                                          witnesses, labels)))


def cmd_check(args) -> int:
    doc = _load_doc(args.input)
    if doc.get("kind") == "morphism":
        t = morphism_from_doc(doc)
        _emit(args, dumps(morphism_report_to_doc(t.report)))
        return 0 if t.is_proximity else PROPERTY_FAILURE
    lat, rel = carrier_from_doc(doc)
    report = verify_axioms(lat, rel)
    _emit(args, dumps(axiom_report_to_doc(report, lat.labels)))
    return 0 if report.axioms_ok else PROPERTY_FAILURE


def cmd_canext(args) -> int:
    p = proximity_from_doc(_load_doc(args.input))
    ext = sigma_extension(p) if args.kind == "sigma" else pi_extension(p)
    report = verify_extension(ext)
    if args.dot:  # first, so that a failed write leaves stdout empty
        Path(args.dot).write_text(
            dot_lattice(ext.C, highlight=set(ext.embed), name=args.kind))
    _emit(args, dumps(extension_to_doc(ext, report)))
    return 0 if report.passes(ext.kind) else PROPERTY_FAILURE


def cmd_extend(args) -> int:
    t = morphism_from_doc(_load_doc(args.input))
    require_join_strong(t.source)
    require_join_strong(t.target)
    require_proximity(t)
    ext_src = pi_extension(t.source)
    ext_tgt = pi_extension(t.target)
    m = extend_pi(t, ext_src, ext_tgt)
    report = check_preservation(m)
    _emit(args, dumps(extended_map_to_doc(m, report)))
    return 0 if report.required_ok else PROPERTY_FAILURE


def cmd_spectrum(args) -> int:
    p = proximity_from_doc(_load_doc(args.input))
    _emit(args, dumps(spectrum_to_doc(spectrum(p))))
    return 0


def cmd_dualize(args) -> int:
    doc = _load_doc(args.input)
    if doc.get("kind") == "space":
        dual = co_compact_dual(space_from_doc(doc))
        _emit(args, dumps(space_to_doc(dual)))
        return 0
    p = proximity_from_doc(doc)
    _emit(args, dumps(proximity_to_doc(opposite_proximity(p))))
    return 0


def cmd_roundtrip(args) -> int:
    p = proximity_from_doc(_load_doc(args.input))
    result = canext_via_duality(p)
    lines = [
        f"PASS spectrum: {result.spectrum.space.points} point(s)",
        f"PASS saturated-set extension verifies as pi "
        f"({len(result.spectrum.space.opens)} saturated sets)",
        "PASS unique isomorphism onto the polarity construction",
    ]
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_export_dot(args) -> int:
    doc = _load_doc(args.input)
    kind = doc.get("kind")
    if kind == "space":
        _emit(args, dot_space(space_from_doc(doc)))
    elif kind == "lattice":
        _emit(args, dot_lattice(lattice_from_doc(doc)))
    else:
        p = proximity_from_doc(doc)
        _emit(args, dot_lattice(p.lattice))
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises a bad command line as a ParseError, which main writes as
    a diagnostic, instead of printing usage and exiting. Its subparsers
    are of this class too."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared after that;
    nothing changes it once built and each parse_args call returns a
    fresh namespace. Its `verbs` maps each verb to its subparser."""
    parser = _Parser(
        prog="proxlat",
        description="finite proximity lattices, canonical extensions, spectra")
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, run, text in (
            ("check", cmd_check, "axiom / morphism report"),
            ("canext", cmd_canext, "canonical extension"),
            ("extend", cmd_extend, "extend a morphism to the pi extensions"),
            ("spectrum", cmd_spectrum, "prime round filter spectrum"),
            ("dualize", cmd_dualize, "co-compact dual / opposite"),
            ("roundtrip", cmd_roundtrip, "extension via the spectrum, checked"),
            ("export-dot", cmd_export_dot,
             "Hasse diagram / specialization order")):
        p = sub.add_parser(verb, help=text)
        p.add_argument("input", help="input JSON path or fixture name")
        p.add_argument("-o", "--out", help="write the result here instead of stdout")
        if verb == "canext":
            p.add_argument("--kind", choices=("pi", "sigma"), default="pi")
            p.add_argument("--dot", help="also write the Hasse diagram here")
        p.set_defaults(run=run)
    parser.verbs = sub.choices
    return parser


def _parse_args(argv) -> argparse.Namespace:
    """What build_parser().parse_args(argv) returns or raises. A
    command line that starts with a verb goes straight to its
    subparser, as the full parser would pass it on, and its leftover
    arguments are refused as the full parser refuses them."""
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    sub = parser.verbs.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extra = sub.parse_known_args(argv[1:],
                                       argparse.Namespace(verb=argv[0]))
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    return args


def main(argv=None) -> int:
    try:
        args = _parse_args(argv)
        return args.run(args)
    except (ParseError, OSError) as exc:  # OSError: --out or --dot not written
        _diag("parse-error", type(exc).__name__, str(exc))
        return PARSE_FAILURE
    except ProxlatError as exc:
        _diag("property-failure", type(exc).__name__, str(exc),
              exc.witnesses, exc.labels)
        return PROPERTY_FAILURE


if __name__ == "__main__":
    sys.exit(main())
