"""Rewrite expected.json from the current library.

    python3 bench/record.py

It records the sha256 of every item's stdout for the default seed of
`scale` and `batch`, and the census counts at both sizes. Run it only
when a change of output is intended, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    ref = {"digests": {}, "census": {}}
    for workload in ("scale", "batch"):
        setup = run.Setup(workload, run.DEFAULT_SEED, "full")
        lib, w = setup()
        tally = run.Tally()
        outputs = run.cli_pass(lib, w, range(len(w.items)), tally, None)
        run.shutil.rmtree(setup.dir)
        if tally.wrong:
            print("\n".join(tally.wrong), file=sys.stderr)
            return 1
        ref["digests"][workload] = {
            k: hashlib.sha256(v.encode()).hexdigest()
            for k, v in sorted(outputs.items())}
    for size in ("full", "min"):
        lib, lattices = run.Setup("census", run.DEFAULT_SEED, size)()
        tally = run.Tally()
        ref["census"][size] = run.census_pass(lib, lattices, tally, None)
        if tally.failed:
            print("\n".join(tally.wrong), file=sys.stderr)
            return 1
    (run.BENCH / "expected.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
