"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload scale|batch|census --seed N \
        --seconds S --trace 0|1 [--size full|min]

Run from the root of a checkout. The loop is closed: one client in this
process makes one call at a time. `scale` and `batch` call
`proxlat.cli.main(argv)` in-process with stdout and stderr captured in
memory; `census` calls library functions. A run repeats whole passes
over the workload's items until `--seconds` have gone by.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics. With `--trace 1` the run makes one untraced pass and
one traced pass, and the JSON object holds the per-layer metrics; the
layer table goes to stderr and the spans to bench/_out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import random
import resource
import shutil
import statistics
import sys
import time
from array import array
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "_out"
DEFAULT_SEED = 1
SETUP_REPEATS = 5
# Reference probes: one after every PROBE_EVERY_S of timed work, lasting
# about PROBE_SHARE of the work before it (at most PROBE_MAX_REPS loops);
# a chunk is scaled by the probes up to PROBE_WINDOW beyond its own two.
PROBE_EVERY_S = 0.02
PROBE_WINDOW = 1
PROBE_SHARE = 0.1
PROBE_MAX_REPS = 40
# Typical time of reference() on the machine the bounds were set on; the
# scaled times read as seconds at that speed.
REFERENCE_S = 0.0045

sys.path.insert(0, str(BENCH))
import gen  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class Setup:
    """Import proxlat afresh from the checkout and make the inputs."""

    def __init__(self, workload: str, seed: int, size: str):
        self.workload, self.seed, self.size = workload, seed, size
        self.dir = OUT / f"{workload}-{seed}-{size}"

    def __call__(self):
        for name in [m for m in sys.modules
                     if m == "proxlat" or m.startswith("proxlat.")]:
            del sys.modules[name]
        lib = importlib.import_module("proxlat")
        importlib.import_module("proxlat.cli")
        if self.workload == "census":
            return lib, workloads.census_lattices(lib, self.seed, self.size)
        w = getattr(workloads, self.workload)(self.seed, self.size)
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        for name, body in w.files.items():
            (self.dir / name).write_text(body)
        for item in w.items:
            item.argv = tuple(str(self.dir / a) if a in w.files else a
                              for a in item.argv)
        return lib, w


def reference() -> float:
    """Time a fixed pure-Python loop of the kind the library runs: bitmask
    arithmetic through a generator, with tuple and dict traffic. It never
    touches proxlat, and its time follows the speed the shared machine
    gives this process."""
    def bits(mask):
        while mask:
            low = mask & -mask
            yield low.bit_length() - 1
            mask ^= low

    t0 = time.perf_counter()
    seen = {}
    for a in range(1200):
        mask = (a * 0x9E3779B1) & 0xFFFFFFFF
        acc = 0
        for b in bits(mask):
            acc |= 1 << (b ^ 7)
        seen[(a & 63, acc & 0xFF)] = acc
    return time.perf_counter() - t0


class Tally:
    """The timed part of a run: failures, wrong outputs, per-pass latency
    percentiles, and the reference probes that cut the timed work into
    chunks.

    Chunk k lies between probes k and k + 1. Its times are scaled by
    REFERENCE_S over the mean of the probes near it, which takes out most
    of the drift in speed that a shared machine gives this process. Only
    the current pass keeps its latencies, so the harness's memory does
    not grow with the number of passes."""

    def __init__(self):
        self.items = 0
        self.p50: list[float] = []
        self.p90: list[float] = []
        self.chunks: list[float] = []
        self.probes: list[float] = [reference()]
        self.failed = 0
        self.wrong: list[str] = []
        self._latencies = array("d")
        self._chunk_of = array("l")
        self._mark = 0.0

    def open(self) -> None:
        """Start timed work, right after a probe."""
        self._mark = time.perf_counter()

    def record(self, seconds: float) -> None:
        self._latencies.append(seconds)
        self._chunk_of.append(len(self.chunks))

    def tick(self, close: bool = False) -> None:
        """Close the chunk with a probe when one is due, or when the timed
        work stops; the probe is not part of the timed work."""
        now = time.perf_counter()
        span = now - self._mark
        if close or span >= PROBE_EVERY_S:
            self.chunks.append(span)
            # after a long item, a longer probe: about a tenth of the chunk
            reps = min(PROBE_MAX_REPS, max(1, round(PROBE_SHARE * span
                                                    / REFERENCE_S)))
            self.probes.append(sum(reference() for _ in range(reps)) / reps)
            self._mark = time.perf_counter()

    def close_pass(self) -> None:
        """End the timed work of a pass and keep its latency percentiles."""
        self.tick(close=True)
        scales = self.scales()
        ms = sorted(t * 1e3 * scales[k]
                    for t, k in zip(self._latencies, self._chunk_of))
        self.items += len(ms)
        self.p50.append(statistics.median(ms))
        self.p90.append(statistics.quantiles(ms, n=10)[8] if len(ms) > 1
                        else ms[0])
        self._latencies = array("d")
        self._chunk_of = array("l")

    def scales(self) -> list[float]:
        """Per chunk, REFERENCE_S over the mean probe of a window around
        it; the window evens out the noise of single probes."""
        out = []
        for k in range(len(self.chunks)):
            window = self.probes[max(0, k - PROBE_WINDOW):k + 2 + PROBE_WINDOW]
            out.append(REFERENCE_S * len(window) / sum(window))
        return out

    @property
    def timed(self) -> float:
        return sum(self.chunks)

    def fail(self, message: str, wrong: bool = True) -> None:
        self.failed += 1
        if wrong:
            self.wrong.append(message)


def cli_pass(lib, w, order, tally: Tally, digests, tracer=None) -> dict:
    """One pass over the items in `order`; returns each item's stdout."""
    outputs: dict[str, str] = {}
    results = []
    tally.open()
    for i in order:
        item = w.items[i]
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.item = item.id
        t0 = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = lib.cli.main(list(item.argv))
        except Exception as exc:  # escaped cli.main: a failed item
            code = exc
        tally.record(time.perf_counter() - t0)
        results.append((item, code, out.getvalue(), err.getvalue()))
        tally.tick()
    tally.close_pass()

    for item, code, out, err in results:
        if isinstance(code, Exception):
            tally.fail(f"{item.id}: {type(code).__name__} escaped cli.main",
                       wrong=False)
            continue
        outputs[item.id] = out
        problem = None
        if code != item.expect:
            problem = f"exit {code}, expected {item.expect}"
        elif item.check is not None:
            problem = item.check(out, err)
        if problem is None and digests is not None:
            if hashlib.sha256(out.encode()).hexdigest() != digests.get(item.id):
                problem = "stdout differs from the committed digest"
        if problem:
            tally.fail(f"{item.id}: {problem}")
    for cross in w.cross:
        problem = cross(outputs)
        if problem:
            tally.fail(problem)
    return outputs


def census_pass(lib, lattices, tally: Tally, expected, tracer=None) -> dict:
    """One census pass; returns its counts."""
    clock = time.perf_counter
    n = [0]

    def call(fn, *args):
        if tracer is not None:
            n[0] += 1
            tracer.item = f"census/{n[0]}"
        t0 = clock()
        try:
            return fn(*args)
        finally:
            tally.record(clock() - t0)
            tally.tick()

    tally.open()
    try:
        counts, errors = workloads.census(lib, lattices, call)
    except Exception as exc:  # a library call raised: the pass is lost
        tally.fail(f"census: {type(exc).__name__}: {exc}", wrong=False)
        return {}
    finally:
        tally.close_pass()
    for problem in errors:
        tally.fail(problem)
    if expected is not None and counts != expected:
        tally.fail(f"census counts {counts} differ from {expected}")
    return counts


def run_passes(workload, lib, inputs, seed, seconds, expected, tally,
               max_passes=None, tracer=None):
    """Whole passes until `seconds` have gone by; returns the count."""
    rng = random.Random(f"order-{workload}-{seed}")
    start = time.perf_counter()
    passes = 0
    while True:
        if workload == "census":
            census_pass(lib, inputs, tally, expected, tracer)
        else:
            order = list(range(len(inputs.items)))
            rng.shuffle(order)
            cli_pass(lib, inputs, order, tally, expected, tracer)
        passes += 1
        if passes == max_passes or time.perf_counter() - start >= seconds:
            return passes


def expected_outputs(workload: str, seed: int, size: str):
    """Committed digests (default seed) or census counts (any seed)."""
    ref = json.loads((BENCH / "expected.json").read_text())
    if workload == "census":
        return ref["census"][size]
    if seed == DEFAULT_SEED and size == "full":
        return ref["digests"][workload]
    return None


def end_to_end(tally: Tally, setup_times) -> dict:
    """The end-to-end metrics, every time scaled to the reference speed;
    latency percentiles are the median over passes."""
    timed = sum(c * f for c, f in zip(tally.chunks, tally.scales()))
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (tally.items / timed, "1/s"),
        "item_ms_p50": (statistics.median(tally.p50), "ms"),
        "item_ms_p90": (statistics.median(tally.p90), "ms"),
        "success_rate": ((tally.items - tally.failed) / tally.items, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def baseline(lib, tracer) -> None:
    """The ROADMAP baseline cases, each function call one span."""
    for case, up in (("chain32", gen.chain(32)), ("chain64", gen.chain(64)),
                     ("B6", gen.boolean(6))):
        tracer.item = "baseline/input"
        lat = lib.lattice.lattice_from_up([f"e{i}" for i in range(len(up))], up)
        p = lib.order_proximity(lat)
        for fn, arg in (("order_proximity", lat), ("sigma_extension", p),
                        ("increasing_presentation", p)):
            tracer.item = f"baseline/{case}/{fn}"
            getattr(lib, fn)(arg)


def per_layer(lib, workload, inputs, seed, expected) -> tuple[dict, Tally]:
    """One untraced and one traced pass of the same items, then the
    ROADMAP baseline cases; walls count only the timed loops."""
    untraced = Tally()
    run_passes(workload, lib, inputs, seed, 0, expected, untraced, max_passes=1)
    tracer = spans.Tracer()
    tally = Tally()
    tracer.install()
    try:
        run_passes(workload, lib, inputs, seed, 0, expected, tally,
                   max_passes=1, tracer=tracer)
        baseline(lib, tracer)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"trace-{workload}-{seed}.json")
    wall, wall_untraced = tally.timed, untraced.timed

    in_pass = spans.layer_table(tracer.spans,
                                lambda item: not item.startswith("baseline/"))
    layers = in_pass["layers"]
    fns = in_pass["functions"]

    def ms(layer):
        return layers.get(layer, (0, 0, 0))[0] / 1e6

    def calls(*names):
        return sum(fns.get(n, (0, 0, 0))[1] for n in names)

    def counted(*names):
        return sum(fns.get(n, (0, 0, 0))[2] for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    metrics = {
        "lattice.build_ms": (ms("lattice.build"), "ms"),
        "lattice.build_calls": (calls("lattice_from_up", "lattice_from_order"),
                                "count"),
        "lattice.build_elements": (counted("lattice_from_up"), "count"),
        "lattice.checks_ms": (ms("lattice.checks"), "ms"),
        "lattice.checks_calls": (calls("is_distributive", "is_homomorphism",
                                       "find_isomorphism"), "count"),
        "relations.compose_ms": (ms("relations.compose"), "ms"),
        "relations.compose_calls": (calls("compose"), "count"),
        "proximity.axioms_ms": (ms("proximity.axioms"), "ms"),
        "proximity.axioms_calls": (calls("verify_axioms"), "count"),
        "proximity.axioms_pass_ratio": (ratio(counted("verify_axioms"),
                                              calls("verify_axioms")), "ratio"),
        "proximity.round_sets_ms": (ms("proximity.round_sets"), "ms"),
        "proximity.round_sets_found": (counted("round_ideal_masks",
                                               "round_filter_masks",
                                               "round_ideal_lattice"), "count"),
        "proximity.morph_verify_ms": (ms("proximity.morph_verify"), "ms"),
        "proximity.morph_candidates": (calls("verify_morphism"), "count"),
        "proximity.morph_hit_ratio": (ratio(counted("verify_morphism"),
                                            calls("verify_morphism")), "ratio"),
        "canext.closure_ms": (ms("canext.closure"), "ms"),
        "canext.closed_sets": (counted("concept_lattice"), "count"),
        "canext.build_ms": (ms("canext.build"), "ms"),
        "canext.verify_ms": (ms("canext.verify"), "ms"),
        "morphext.extend_ms": (ms("morphext.extend"), "ms"),
        "morphext.preserve_ms": (ms("morphext.preserve"), "ms"),
        "morphext.maps": (calls("extend_pi"), "count"),
        "spectra.spectrum_ms": (ms("spectra.spectrum"), "ms"),
        "spectra.points": (counted("spectrum"), "count"),
        "spectra.duality_ms": (ms("spectra.duality"), "ms"),
        "formats.parse_ms": (ms("formats.parse"), "ms"),
        "formats.emit_ms": (ms("formats.emit"), "ms"),
        "formats.bytes_out": (counted("dumps", "dot_lattice", "dot_space"),
                              "bytes"),
        "cli.argparse_ms": (ms("cli.argparse"), "ms"),
        "cli.self_ms": (ms("cli.self"), "ms"),
        "trace.overhead_ms": ((wall - wall_untraced) * 1e3, "ms"),
        "trace.unattributed_ms": ((wall * 1e9 - in_pass["roots_ns"]) / 1e6, "ms"),
    }
    for name, start, end, parent, item, _ in tracer.spans:
        kind, _, case = item.partition("/")
        if kind == "baseline" and parent < 0 and case.endswith("/" + name):
            case = case.split("/")[0]
            metrics[f"roadmap.{name}.{case}_ms"] = ((end - start) / 1e6, "ms")

    layer_report(workload, layers, in_pass, wall, wall_untraced)
    print("# ROADMAP baseline (ms): " + ", ".join(
        f"{k[len('roadmap.'):-3]} {v:.1f}" for k, (v, _) in metrics.items()
        if k.startswith("roadmap.")), file=sys.stderr)
    return metrics, tally


def layer_report(workload, layers, table, wall, wall_untraced) -> None:
    """Per-layer self time, calls and counts, and the sum that shows the
    self times plus the unattributed rest make up the traced wall time."""
    err = sys.stderr
    print(f"# traced pass of {workload}: wall {wall * 1e3:.1f} ms, "
          f"untraced {wall_untraced * 1e3:.1f} ms", file=err)
    print(f"# {'layer':24} {'self ms':>12} {'share':>7} {'calls':>9} "
          f"{'count':>10}", file=err)
    total = 0
    for layer in spans.LAYERS:
        ns, calls, count = layers.get(layer, (0, 0, 0))
        total += ns
        print(f"# {layer:24} {ns / 1e6:12.1f} {ns / (wall * 1e9):7.1%} "
              f"{calls:9d} {count:10d}", file=err)
    rest = wall * 1e9 - table["roots_ns"]
    print(f"# {'unattributed':24} {rest / 1e6:12.1f} {rest / (wall * 1e9):7.1%}",
          file=err)
    print(f"# {'sum':24} {(total + rest) / 1e6:12.1f} "
          f"{(total + rest) / (wall * 1e9):7.1%}", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("scale", "batch", "census"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "min"), default="full",
                        help="min: tiny inputs, for the smoke check")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "proxlat" / "__init__.py").is_file():
        print(f"error: no proxlat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    expected = expected_outputs(args.workload, args.seed, args.size)

    setup = Setup(args.workload, args.seed, args.size)
    probes = [reference()]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        lib, inputs = setup()
        t = time.perf_counter() - t0
        probes.append(reference())
        setup_times.append(t * 2 * REFERENCE_S / (probes[-1] + probes[-2]))
    gc.collect()  # the garbage of earlier set-ups is not the first pass's cost
    if not lib.__file__.startswith(str(ROOT / "src")):
        print(f"error: imported proxlat from {lib.__file__}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            metrics, tally = per_layer(lib, args.workload, inputs, args.seed,
                                       expected)
        else:
            tally = Tally()
            passes = run_passes(args.workload, lib, inputs, args.seed,
                                args.seconds, expected, tally)
            metrics = end_to_end(tally, setup_times)
            print(f"# {tally.items} items in {passes} pass(es), "
                  f"{tally.timed:.2f} s timed between {len(tally.probes)} "
                  "reference probes", file=sys.stderr)
    finally:
        shutil.rmtree(setup.dir, ignore_errors=True)

    for message in tally.wrong[:20]:
        print(f"WRONG {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not tally.wrong,
        "attempted": tally.items,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
