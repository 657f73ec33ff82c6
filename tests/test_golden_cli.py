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

import pytest

from proxlat.cli import main
from proxlat.fixtures import CORPUS

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

    for bad in (["canext", "M3", "--kind", "tau"], ["nosuchverb", "M3"],
                ["check"]):
        with pytest.raises(SystemExit) as exc, \
                contextlib.redirect_stderr(io.StringIO()):
            main(bad)
        assert exc.value.code == 2
        expect("B2 spectrum", *call(["spectrum", "B2"]))
    expect("FULL2 dualize", *call(["dualize", "FULL2"]))


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(outputs(), indent=2, sort_keys=True) + "\n")
