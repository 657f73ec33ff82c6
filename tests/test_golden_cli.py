"""CLI outputs pinned byte for byte: every verb on every fixture.

`golden_cli.json` maps "<fixture> <verb args>" to the exit code and the
sha256 of stdout. Regenerate it only for an intended output change:

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from proxlat.cli import main
from proxlat.fixtures import CORPUS

GOLDEN = Path(__file__).with_name("golden_cli.json")
VERBS = (("check",), ("canext", "--kind", "pi"), ("canext", "--kind", "sigma"),
         ("spectrum",), ("roundtrip",), ("dualize",), ("export-dot",),
         ("extend",))


def outputs() -> dict:
    out = {}
    for name in CORPUS:
        for verb in VERBS:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([verb[0], name, *verb[1:]])
            digest = hashlib.sha256(stdout.getvalue().encode()).hexdigest()
            out[" ".join((name,) + verb)] = {"exit": code, "sha256": digest}
    return out


def test_cli_outputs_match_golden():
    assert outputs() == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(outputs(), indent=2, sort_keys=True) + "\n")
