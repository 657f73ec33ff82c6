"""Spans recorded from outside the library.

`Tracer.install` replaces each timed public function of proxlat with a
wrapper, in every proxlat module that binds it, and `uninstall` puts
the originals back. A span is (function, start ns, end ns, parent span,
item id, count), kept in memory and written out at the end. Nothing
under src/ is changed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

# layer metric prefix -> the functions it times, by home module
LAYERS = {
    "lattice.build": ("lattice.lattice_from_up", "lattice.lattice_from_order"),
    "lattice.checks": ("lattice.is_distributive", "lattice.is_homomorphism",
                       "lattice.find_isomorphism"),
    "relations.compose": ("relations.compose",),
    "proximity.axioms": ("proximity.verify_axioms",),
    "proximity.round_sets": ("proximity.round_ideal_masks",
                             "proximity.round_filter_masks",
                             "proximity.round_ideal_lattice"),
    "proximity.morph_verify": ("proximity.verify_morphism",
                               "proximity.all_proximity_morphisms"),
    "proximity.presentation": ("proximity.order_proximity",
                               "proximity.increasing_presentation"),
    "canext.closure": ("canext.concept_lattice",),
    "canext.build": ("canext.pi_extension", "canext.sigma_extension"),
    "canext.verify": ("canext.verify_extension", "canext.check_uniqueness",
                      "canext.pi_sigma_comparison"),
    "morphext.extend": ("morphext.extend_pi",),
    "morphext.preserve": ("morphext.check_preservation",),
    "spectra.spectrum": ("spectra.spectrum",),
    "spectra.duality": ("spectra.canext_via_duality", "spectra.co_compact_dual",
                        "spectra.dual_map", "morphext.compare_with_dual"),
    "formats.parse": tuple(f"formats.{n}" for n in (
        "lattice_from_doc", "proximity_from_doc", "morphism_from_doc",
        "space_from_doc", "_pairs_to_relation")),
    "formats.emit": tuple(f"formats.{n}" for n in (
        "lattice_to_doc", "proximity_to_doc", "morphism_to_doc", "space_to_doc",
        "axiom_report_to_doc", "morphism_report_to_doc", "extension_to_doc",
        "spectrum_to_doc", "extended_map_to_doc", "diagnostic_doc", "dumps",
        "dot_lattice", "dot_space")),
    "cli.argparse": ("cli.build_parser",),
    "cli.self": ("cli.main",),
}
LAYER_OF = {path.split(".")[1]: layer
            for layer, paths in LAYERS.items() for path in paths}


def _count(name: str, result) -> int:
    """The size a span records, read off the call and its result."""
    if name == "lattice_from_up":
        return result.size
    if name == "verify_axioms":
        return int(result.axioms_ok)
    if name in ("round_ideal_masks", "round_filter_masks"):
        return len(result)
    if name == "round_ideal_lattice":
        return len(result.ideals)
    if name == "verify_morphism":
        return int(result.proximity)
    if name == "concept_lattice":
        return len(result.extents)
    if name == "spectrum":
        return result.space.points
    if name in ("dumps", "dot_lattice", "dot_space"):
        return len(result)
    return 0


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.item = ""
        self._saved: list = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                count = _count(name, result) if result is not None else 0
                spans[sid] = (name, start, end, parent, self.item, count)
        return wrapper

    def install(self) -> None:
        wrappers = {}
        for paths in LAYERS.values():
            for path in paths:
                module, name = path.split(".")
                fn = getattr(sys.modules[f"proxlat.{module}"], name)
                wrappers[id(fn)] = (fn, self._wrap(fn, name))
        for modname, module in list(sys.modules.items()):
            if modname != "proxlat" and not modname.startswith("proxlat."):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "item", "count"], "spans": self.spans}, fh,
                      separators=(",", ":"))


def self_times(spans) -> list[int]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_table(spans, keep) -> dict:
    """Per layer: self ns, calls and summed counts, over spans whose item
    passes `keep`; also the total duration of root spans."""
    own = self_times(spans)
    table = defaultdict(lambda: [0, 0, 0])
    by_name = defaultdict(lambda: [0, 0, 0])
    roots = 0
    for s, ns in zip(spans, own):
        if not keep(s[4]):
            continue
        row = table[LAYER_OF[s[0]]]
        row[0] += ns
        row[1] += 1
        row[2] += s[5]
        named = by_name[s[0]]
        named[0] += ns
        named[1] += 1
        named[2] += s[5]
        if s[3] < 0:
            roots += s[2] - s[1]
    return {"layers": dict(table), "functions": dict(by_name), "roots_ns": roots}
