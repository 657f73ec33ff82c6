"""The fixture corpus, shipped as data files.

Six small proximity lattices used throughout the tests and accepted by
the CLI as shorthand names:

  C2     two-chain with its order
  C3     three-chain 0 < a < 1 with its order
  B2     the 2x2 Boolean square with its order
  M3     the diamond (nondistributive) with its order
  FULL2  the two-chain with the all-pairs relation (not increasing)
  C3R    the three-chain with x R y iff x = 0 or y = 1; doubly strong,
         increasing, and not reflexive
"""

from __future__ import annotations

import functools
import json
from importlib import resources

from .proximity import ProximityLattice

CORPUS = ("C2", "C3", "B2", "M3", "FULL2", "C3R")


@functools.cache
def _text(key: str) -> str:
    """The text of the fixture file of `key`, read once per process."""
    return resources.files(__package__).joinpath(
        "fixtures", key.lower() + ".json").read_text()


def document(name: str) -> dict:
    """The JSON document of a fixture, by case-insensitive name: a new
    dict on every call, parsed from the text read once."""
    key = name.upper()
    if key not in CORPUS:
        raise KeyError(f"unknown fixture {name!r}; expected one of {CORPUS}")
    return json.loads(_text(key))


def load(name: str) -> ProximityLattice:
    from .formats import proximity_from_doc
    return proximity_from_doc(document(name))


def corpus() -> dict[str, ProximityLattice]:
    return {name: load(name) for name in CORPUS}
