"""The README's examples, executed.

Mirrors the command lines and the library quick tour shown in
README.md; if the docs drift from the behaviour, this module fails.
"""

import json

from proxlat import fixtures
from proxlat.canext import pi_extension, pi_sigma_comparison, verify_extension
from proxlat.cli import main
from proxlat.formats import dumps, morphism_to_doc, space_to_doc
from proxlat.proximity import identity_morphism
from proxlat.spectra import canext_via_duality, finite_space


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_readme_cli_lines(tmp_path, capsys):
    assert run(capsys, "check", "C3R")[0] == 0

    morphism = tmp_path / "morphism.json"
    morphism.write_text(
        dumps(morphism_to_doc(identity_morphism(fixtures.load("C3R")))))
    assert run(capsys, "check", str(morphism))[0] == 0

    assert run(capsys, "canext", "C3R")[0] == 0
    sigma_dot = tmp_path / "sigma.dot"
    assert run(capsys, "canext", "C3R", "--kind", "sigma",
               "--dot", str(sigma_dot))[0] == 0
    assert sigma_dot.read_text().startswith("digraph")

    assert run(capsys, "extend", str(morphism))[0] == 0
    assert run(capsys, "spectrum", "C3R")[0] == 0

    space = tmp_path / "space.json"
    space.write_text(dumps(space_to_doc(
        finite_space(["x", "y"], [0b00, 0b01, 0b11]))))
    assert run(capsys, "dualize", str(space))[0] == 0
    assert run(capsys, "dualize", "FULL2")[0] == 0

    code, out = run(capsys, "roundtrip", "C3R")
    assert code == 0 and out.count("PASS") == 3

    code, out = run(capsys, "export-dot", "B2")
    assert code == 0 and out.startswith("digraph")


def test_readme_quick_tour_values():
    c3r = fixtures.load("C3R")
    h = pi_extension(c3r)
    assert verify_extension(h).flags() == {
        "increasing": True, "dense": True, "compact": True,
        "join_preserving": True, "meet_preserving": False}
    report = pi_sigma_comparison(c3r)
    assert report.reflexive is False and report.phi_exists is False
    assert report.witnesses == (("embedding_conflict", (1,)),)
    assert canext_via_duality(c3r).iso.table == (0, 1)


def test_readme_fixture_table_claims():
    corpus = fixtures.corpus()
    assert not corpus["M3"].distributive
    assert not corpus["FULL2"].increasing
    assert corpus["C3R"].doubly_strong and not corpus["C3R"].reflexive
    for name in ("C2", "C3", "B2"):
        assert corpus[name].reflexive and corpus[name].doubly_strong
    # the negative witness statement: middle to bottom under pi, to top
    # under sigma
    from proxlat.canext import sigma_extension
    h = pi_extension(corpus["C3R"])
    k = sigma_extension(corpus["C3R"])
    assert h.embed[1] == h.C.bot and k.embed[1] == k.C.top


def test_readme_schema_tag(capsys):
    code, out = run(capsys, "check", "C2")
    assert code == 0
    assert json.loads(out)["schema"] == "proxlat/1"
