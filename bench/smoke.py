"""Smoke check of the benchmark harness; not part of the test suite.

    python3 bench/smoke.py

Runs every workload at minimal size, untraced and traced, and asserts
that each metric BENCHMARK.json names prints with its unit, that the
traced counts repeat exactly across two runs with one seed, and that
the benchmark refuses to run, with no result, where the proxlat sources
are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, workload: str, trace: int, seed: int = 1):
    argv = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv + ["--size", "min"], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}, out
    assert out["correct"] is True and out["attempted"] >= 1, out
    return out


def main() -> int:
    for w in SPEC["workloads"]:
        name = w["name"]
        plain = result(run(ROOT, name, 0))
        for metric in SPEC["end_to_end"]:
            got = plain["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"], (name, metric, got)
            assert got["value"] > 0, (name, metric, got)
        traced = [result(run(ROOT, name, 1)) for _ in range(2)]
        for metric in SPEC["per_layer"]:
            values = [t["metrics"][metric["name"]] for t in traced]
            assert all(v["unit"] == metric["unit"] for v in values), (name, metric)
            if metric["unit"] not in ("ms", "s"):
                assert values[0] == values[1], (name, metric, values)
        print(f"ok {name}: {len(plain['metrics'])} end-to-end and "
              f"{len(traced[0]['metrics'])} per-layer metrics")

    bare = BENCH / "_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = run(bare, SPEC["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok: refuses to run without the proxlat sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
