"""Command-line behaviour: verbs, exit codes, and determinism."""

import dataclasses
import json

import pytest

from proxlat import canext, cli, fixtures, proximity, spectra
from proxlat.canext import ExtensionReport
from proxlat.cli import _load_doc, main
from proxlat.errors import InternalCheckError
from proxlat.formats import diagnostic_doc
from proxlat.proximity import RoundSubset, identity_morphism

FIXTURE_NAMES = ("C2", "C3", "B2", "M3", "FULL2", "C3R")
DISTRIBUTIVE = ("C2", "C3", "B2", "FULL2", "C3R")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_fixture(capsys):
    code, out, _ = run(capsys, "check", "C3R")
    assert code == 0
    doc = json.loads(out)
    assert doc["join_strong"] is True
    assert doc["reflexive"] is False
    assert doc["witnesses"]["reflexive"] == ["a"]


def test_check_all_fixtures(capsys):
    for name in FIXTURE_NAMES:
        code, out, _ = run(capsys, "check", name)
        assert code == 0
        assert json.loads(out)["axioms_ok"] is True


def test_canext_full2(capsys):
    code, out, _ = run(capsys, "canext", "FULL2")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["elements"]) == 1
    assert doc["report"]["join_preserving"] is True


def test_canext_sigma(capsys):
    code, out, _ = run(capsys, "canext", "C3R", "--kind", "sigma")
    assert code == 0
    doc = json.loads(out)
    assert doc["extension_kind"] == "sigma"
    assert doc["report"]["meet_preserving"] is True


def test_spectrum_and_dualize(capsys):
    code, out, _ = run(capsys, "spectrum", "C3R")
    assert code == 0
    assert len(json.loads(out)["points"]) == 1

    code, out, _ = run(capsys, "dualize", "C3R")
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "proximity"


def test_extend_verb(tmp_path, capsys):
    from proxlat import fixtures
    from proxlat.formats import dumps, morphism_to_doc
    from proxlat.proximity import identity_morphism
    path = tmp_path / "ident.json"
    path.write_text(dumps(morphism_to_doc(identity_morphism(fixtures.load("C3R")))))
    code, out, _ = run(capsys, "extend", str(path))
    assert code == 0
    doc = json.loads(out)
    assert doc["report"]["all_meets"] is True


def test_roundtrip_pass(capsys):
    for name in DISTRIBUTIVE:
        code, out, _ = run(capsys, "roundtrip", name)
        assert code == 0
        assert "PASS" in out and "FAIL" not in out


def test_roundtrip_corrupted_relation(tmp_path, capsys):
    # compat axioms hold but composition is not idempotent
    doc = {
        "schema": "proxlat/1",
        "kind": "proximity",
        "lattice": {"elements": ["0", "p", "q", "1"],
                    "leq": [["0", "p"], ["0", "q"], ["p", "1"], ["q", "1"]]},
        "R": [["0", "0"], ["0", "p"], ["0", "q"], ["0", "1"],
              ["p", "q"], ["p", "1"], ["q", "p"], ["q", "1"], ["1", "1"]],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "roundtrip", str(path))
    assert code == 1
    diag = json.loads(err)
    assert diag["status"] == "property-failure"
    assert diag["witnesses"]["idempotent"] == ["p", "p"]


# x R y iff x = 0 or y = 1 on B2: distributive, not join-strong
NOT_JOIN_STRONG = {
    "lattice": {"elements": ["0", "p", "q", "1"],
                "leq": [["0", "p"], ["0", "q"], ["p", "1"], ["q", "1"]]},
    "R": [["0", "0"], ["0", "p"], ["0", "q"], ["0", "1"],
          ["p", "1"], ["q", "1"], ["1", "1"]],
}


@pytest.mark.parametrize("verb", ["canext", "roundtrip"])
def test_a_carrier_that_is_not_join_strong(tmp_path, capsys, verb):
    doc = dict(NOT_JOIN_STRONG, schema="proxlat/1", kind="proximity")
    path = tmp_path / "not-join-strong.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, verb, str(path))
    assert (code, out) == (1, "")
    diag = json.loads(err)
    assert (diag["status"], diag["error"]) == ("property-failure",
                                               "NotJoinStrong")


def refused_extend(tmp_path, capsys, monkeypatch, doc):
    """Run extend on a morphism document that it must refuse before it
    builds any pi extension."""
    def no_build(p):
        raise AssertionError("extend built a pi extension before refusing")
    monkeypatch.setattr("proxlat.cli.pi_extension", no_build)
    path = tmp_path / "refused.json"
    path.write_text(json.dumps(doc))
    return run(capsys, "extend", str(path))


def refusal(error: str, detail: str) -> str:
    return ('{\n  "detail": "%s",\n  "error": "%s",\n  "kind": "diagnostic",'
            '\n  "schema": "proxlat/1",\n  "status": "property-failure"\n}\n'
            % (detail, error))


def test_extend_refuses_a_non_proximity_morphism_before_any_build(
        tmp_path, capsys, monkeypatch):
    from test_golden_cli import morphism_documents
    doc = morphism_documents()["M3-C2"]  # join-strong at both ends
    assert refused_extend(tmp_path, capsys, monkeypatch, doc) == (
        1, "", refusal("NotAProximityMorphism",
                       "extend_pi needs a proximity morphism"))


@pytest.mark.parametrize("end", ["source", "target"])
def test_extend_refuses_an_end_that_is_not_join_strong_first(
        tmp_path, capsys, monkeypatch, end):
    # the empty relation is no proximity morphism: its rows are not ideals
    doc = {"schema": "proxlat/1", "kind": "morphism", "source": C2_PROXIMITY,
           "target": C2_PROXIMITY, "T": [], end: NOT_JOIN_STRONG}
    assert refused_extend(tmp_path, capsys, monkeypatch, doc) == (
        1, "", refusal("NotJoinStrong",
                       "pi extension needs a join-strong proximity lattice"))
    assert run(capsys, "check", str(tmp_path / "refused.json"))[0] == 1


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("not json")
    code, _, err = run(capsys, "check", str(path))
    assert code == 2
    assert json.loads(err)["status"] == "parse-error"


def test_crlf_document_reads_as_its_lf_twin(tmp_path, capsys):
    text = json.dumps(fixtures.document("C3R"), indent=1)
    (tmp_path / "lf.json").write_bytes(text.encode())
    (tmp_path / "crlf.json").write_bytes(text.replace("\n", "\r\n").encode())
    assert _load_doc(str(tmp_path / "crlf.json")) == \
        _load_doc(str(tmp_path / "lf.json")) == fixtures.document("C3R")
    assert run(capsys, "canext", str(tmp_path / "crlf.json")) == \
        run(capsys, "canext", "C3R")


@pytest.mark.parametrize("content,detail", [
    ("\ufeff{}".encode(), "Unexpected UTF-8 BOM (decode using utf-8-sig): "
                          "line 1 column 1 (char 0)"),
    ('{"kind": "caf\xe9"}'.encode("latin-1"),
     "'utf-8' codec can't decode byte 0xe9 in position 13: "
     "invalid continuation byte"),
    ("dir", "[Errno 21] Is a directory: '{path}'"),
    (None, "[Errno 2] No such file or directory: '{path}'"),
], ids=["utf-8-bom", "latin-1", "directory", "missing"])
def test_unreadable_input_detail(tmp_path, capsys, content, detail):
    path = tmp_path / "in.json"
    if content == "dir":
        path.mkdir()
    elif content is not None:
        path.write_bytes(content)
    code, out, err = run(capsys, "check", str(path))
    assert (code, out) == (2, "")
    diag = json.loads(err)
    assert (diag["status"], diag["error"]) == ("parse-error", "ParseError")
    assert diag["detail"] == f"cannot read {path}: " + detail.format(path=path)


@pytest.mark.parametrize("path,detail", [
    ("", "[Errno 2] No such file or directory: ''"),
    ("./no/such.json", "[Errno 2] No such file or directory: './no/such.json'"),
], ids=["empty", "dot-slash"])
def test_unreadable_path_is_quoted_as_given(capsys, path, detail):
    # the path is opened as given, not normalised first: "" is no file,
    # not the working directory
    code, out, err = run(capsys, "check", path)
    assert (code, out) == (2, "")
    assert json.loads(err)["detail"] == f"cannot read {path}: {detail}"


def test_export_dot(capsys):
    code, out, _ = run(capsys, "export-dot", "C2")
    assert code == 0
    assert out.startswith("digraph")


@pytest.mark.parametrize("verb,extra", [
    ("check", ()),
    ("canext", ()),
    ("canext", ("--kind", "sigma")),
    ("spectrum", ()),
    ("dualize", ()),
    ("roundtrip", ()),
    ("export-dot", ()),
])
def test_determinism_across_runs(capsys, verb, extra):
    names = DISTRIBUTIVE if verb in ("spectrum", "roundtrip") else FIXTURE_NAMES
    for name in names:
        code1, out1, _ = run(capsys, verb, name, *extra)
        code2, out2, _ = run(capsys, verb, name, *extra)
        assert code1 == code2 == 0
        assert out1.encode() == out2.encode(), (verb, name)


@pytest.mark.parametrize("verb", ["check", "dualize", "export-dot"])
@pytest.mark.parametrize("items", [0, 1])
def test_non_object_document_is_a_parse_error(tmp_path, capsys, verb, items):
    from proxlat import fixtures
    path = tmp_path / "array.json"
    path.write_text(json.dumps([fixtures.document("C3")] * items))
    code, out, err = run(capsys, verb, str(path))
    assert code == 2
    assert out == ""
    diag = json.loads(err)
    assert diag["status"] == "parse-error"
    assert diag["error"] == "ParseError"


@pytest.mark.parametrize("verb,kind", [
    (verb, "proximity") for verb in ("check", "canext", "spectrum", "dualize",
                                     "roundtrip", "export-dot")
] + [("export-dot", "lattice")])
def test_empty_carrier_is_refused(tmp_path, capsys, verb, kind):
    empty = {"elements": [], "leq": []}
    doc = {"lattice": empty, "R": []} if kind == "proximity" else empty
    path = tmp_path / "empty.json"
    path.write_text(json.dumps(dict(doc, schema="proxlat/1", kind=kind)))
    code, out, err = run(capsys, verb, str(path))
    assert code == 1
    assert out == ""
    diag = json.loads(err)
    assert diag["status"] == "property-failure"
    assert diag["error"] == "NotALattice"


def test_missing_join_is_named_by_labels(tmp_path, capsys):
    doc = {"schema": "proxlat/1", "kind": "lattice",
           "elements": ["0", "a", "b"], "leq": [["0", "a"], ["0", "b"]]}
    path = tmp_path / "no_join.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "export-dot", str(path))
    assert code == 1
    assert out == ""
    diag = json.loads(err)
    assert diag["error"] == "NotALattice"
    assert diag["witnesses"] == {"join": ["a", "b"]}


@pytest.mark.parametrize("verb,doc,detail", [
    ("export-dot", {"kind": "lattice", "elements": [0, 1], "leq": [[0, 1]]},
     "element name 0 is not a string"),
    ("export-dot", {"kind": "lattice", "elements": [0, 1], "leq": []},
     "element name 0 is not a string"),
    ("check", {"kind": "proximity", "R": [],
               "lattice": {"elements": ["a", 1.5], "leq": []}},
     "element name 1.5 is not a string"),
    ("dualize", {"kind": "space", "points": ["x", None], "opens": [[], ["x"]]},
     "point name None is not a string"),
])
def test_non_string_names_are_refused(tmp_path, capsys, verb, doc, detail):
    path = tmp_path / "names.json"
    path.write_text(json.dumps(dict(doc, schema="proxlat/1")))
    code, out, err = run(capsys, verb, str(path))
    assert code == 2
    assert out == ""
    diag = json.loads(err)
    assert (diag["error"], diag["detail"]) == ("ParseError", detail)


@pytest.mark.parametrize("verb,doc", [
    ("export-dot", {"kind": "lattice", "elements": ["a", "b"],
                    "leq": [["a", ["b"]]]}),
    ("check", {"kind": "proximity", "R": [[{"a": 0}, "b"]],
               "lattice": {"elements": ["a", "b"], "leq": [["a", "b"]]}}),
    ("dualize", {"kind": "space", "points": ["x"], "opens": [[], [["x"]]]}),
])
def test_unhashable_reference_is_a_parse_error(tmp_path, capsys, verb, doc):
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(dict(doc, schema="proxlat/1")))
    code, out, err = run(capsys, verb, str(path))
    assert code == 2
    assert out == ""
    diag = json.loads(err)
    assert diag["error"] == "ParseError"
    assert diag["detail"].startswith("unknown element ")


C2_LATTICE = {"elements": ["0", "1"], "leq": [["0", "1"]]}


@pytest.mark.parametrize("verb,doc,detail", [
    ("export-dot", {"kind": "lattice", "elements": ["0", "a"], "leq": ["0a"]},
     "bad order pair '0a'"),
    ("export-dot", {"kind": "lattice", "elements": ["0", "a"], "leq": [1]},
     "bad order pair 1"),
    ("check", {"kind": "proximity", "lattice": C2_LATTICE,
               "R": [["0", "0"], "01", ["1", "1"]]},
     "bad relation pair '01'"),
    ("check", {"kind": "morphism",
               "source": {"lattice": C2_LATTICE, "R": [["0", "0"], ["0", "1"], ["1", "1"]]},
               "target": {"lattice": C2_LATTICE, "R": [["0", "0"], ["0", "1"], ["1", "1"]]},
               "T": [["0", "0"], "11"]},
     "bad relation pair '11'"),
])
def test_pairs_must_be_arrays_of_two(tmp_path, capsys, verb, doc, detail):
    path = tmp_path / "pairs.json"
    path.write_text(json.dumps(dict(doc, schema="proxlat/1")))
    code, out, err = run(capsys, verb, str(path))
    assert code == 2
    assert out == ""
    diag = json.loads(err)
    assert (diag["error"], diag["detail"]) == ("ParseError", detail)


@pytest.mark.parametrize("schema", ["bogus/9", "proxlat/2", 1, None])
@pytest.mark.parametrize("verb", ["check", "canext", "export-dot"])
def test_unknown_schema_is_a_parse_error(tmp_path, capsys, verb, schema):
    from proxlat import fixtures
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(dict(fixtures.document("C3"), schema=schema)))
    code, out, err = run(capsys, verb, str(path))
    assert code == 2
    assert out == ""
    diag = json.loads(err)
    assert diag["error"] == "ParseError"
    assert diag["detail"].endswith(f"schema {schema!r} is not 'proxlat/1'")


@pytest.mark.parametrize("verb", ["check", "canext", "export-dot"])
def test_missing_schema_is_accepted(tmp_path, capsys, verb):
    from proxlat import fixtures
    doc = fixtures.document("C3")
    del doc["schema"]
    path = tmp_path / "untagged.json"
    path.write_text(json.dumps(doc))
    assert run(capsys, verb, str(path)) == run(capsys, verb, "C3")


C2_PROXIMITY = {"lattice": C2_LATTICE, "R": [["0", "0"], ["0", "1"], ["1", "1"]]}


@pytest.mark.parametrize("verb,doc,detail", [
    ("export-dot", {"kind": "lattice", "elements": ["0", "a"], "leq": 5},
     "malformed lattice document: 'leq' is not an array"),
    ("export-dot", {"kind": "lattice", "elements": "ab", "leq": [["a", "b"]]},
     "malformed lattice document: 'elements' is not an array"),
    ("export-dot", {"kind": "lattice", "elements": {"a": 1, "b": 2},
                    "leq": [["a", "b"]]},
     "malformed lattice document: 'elements' is not an array"),
    ("check", {"kind": "proximity", "lattice": C2_LATTICE, "R": 5},
     "malformed proximity document: 'R' is not an array"),
    ("check", {"kind": "proximity", "lattice": C2_LATTICE, "R": {"0": "1"}},
     "malformed proximity document: 'R' is not an array"),
    ("check", {"kind": "proximity", "R": [],
               "lattice": {"elements": ["0", "1"], "leq": "01"}},
     "malformed lattice document: 'leq' is not an array"),
    ("check", {"kind": "morphism", "source": C2_PROXIMITY,
               "target": C2_PROXIMITY, "T": 5},
     "malformed morphism document: 'T' is not an array"),
    ("check", {"kind": "morphism", "source": C2_PROXIMITY,
               "target": C2_PROXIMITY, "T": {}},
     "malformed morphism document: 'T' is not an array"),
    ("dualize", {"kind": "space", "points": ["x"], "opens": 5},
     "malformed space document: 'opens' is not an array"),
    ("dualize", {"kind": "space", "points": "xy", "opens": [[], ["x", "y"]]},
     "malformed space document: 'points' is not an array"),
    ("export-dot", {"kind": "space", "points": ["x"], "opens": [[], "x"]},
     "open 'x' is not an array"),
])
def test_containers_must_be_arrays(tmp_path, capsys, verb, doc, detail):
    path = tmp_path / "containers.json"
    path.write_text(json.dumps(dict(doc, schema="proxlat/1")))
    code, out, err = run(capsys, verb, str(path))
    assert code == 2
    assert out == ""
    diag = json.loads(err)
    assert (diag["error"], diag["detail"]) == ("ParseError", detail)


@pytest.mark.parametrize("argv,content", [
    (("check", "C3", "--out", "{missing}"), None),
    (("canext", "C3", "--dot", "{missing}"), None),
    (("check", "{input}"), b'{"kind": "lattice", "elements": ["\xff"], "leq": []}'),
    (("check", "{input}"), b"[" * 100_000 + b"]" * 100_000),
], ids=["out-dir-missing", "dot-dir-missing", "not-utf-8", "nested-100000"])
def test_file_boundary_failures_exit_2(tmp_path, capsys, argv, content):
    """A file that cannot be written, or read as JSON text, gives exit 2
    and one diagnostic naming it, and nothing on stdout."""
    paths = {"missing": str(tmp_path / "missing" / "dir" / "x"),
             "input": str(tmp_path / "in.json")}
    if content is not None:
        (tmp_path / "in.json").write_bytes(content)
    code, out, err = run(capsys, *(a.format(**paths) for a in argv))
    assert (code, out) == (2, "")
    diag = json.loads(err)
    assert diag["status"] == "parse-error"
    assert paths["missing" if content is None else "input"] in diag["detail"]


def test_oversized_document_is_refused(tmp_path, capsys):
    """A 65-element chain is one element over the limit: exit 2, one
    diagnostic, and nothing on stdout."""
    names = [f"c{i}" for i in range(65)]
    doc = {"schema": "proxlat/1", "kind": "proximity",
           "lattice": {"elements": names,
                       "leq": [[a, b] for a, b in zip(names, names[1:])]},
           "R": []}
    path = tmp_path / "chain65.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "canext", str(path))
    assert (code, out) == (2, "")
    diag = json.loads(err)
    assert (diag["status"], diag["error"]) == ("parse-error", "TooLarge")
    assert "65 elements" in diag["detail"]


@pytest.mark.parametrize("verb", ["dualize", "export-dot"])
@pytest.mark.parametrize("points,opens,detail", [
    (65, [[]], "65 points, more than 64"),
    (12, [[]] * 4097, "4097 opens, more than 4096"),
], ids=["65-points", "4097-opens"])
def test_oversized_space_is_refused(tmp_path, capsys, verb, points, opens,
                                    detail):
    """Both verbs that read spaces refuse one point or one listed open
    over the limit before the topology is checked: exit 2, one
    diagnostic, and nothing on stdout."""
    doc = {"schema": "proxlat/1", "kind": "space",
           "points": [f"p{i}" for i in range(points)], "opens": opens}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, verb, str(path))
    assert (code, out) == (2, "")
    diag = json.loads(err)
    assert (diag["status"], diag["error"]) == ("parse-error", "TooLarge")
    assert detail in diag["detail"]


def _fail_pi_guard(m):
    # a non-round filter up a on C3R holds a but not mu(a) = 0
    real = canext.round_filter_masks
    m.setattr(canext, "round_filter_masks",
              lambda q: real(q) + (q.lattice.up[1],))


def _fail_round_ideal_guard(m):
    # no verb reaches a proximity guard that names a witness, so dualize
    # is pointed at round_ideal_lattice; without the bottom ideal, the
    # round ideals {0,p} and {0,q} of B2 have no meet
    real = proximity._lattice_of_sets
    m.setattr(proximity, "_lattice_of_sets",
              lambda masks, labels: real(masks[1:], labels))
    m.setattr(cli, "opposite_proximity", proximity.round_ideal_lattice)


def _fail_realization_guard(m):
    # one witness of each index space of an extension report
    m.setattr(spectra, "verify_extension", lambda ext: ExtensionReport(
        False, False, False, False, True,
        (("increasing", (1, 2)), ("dense", (1,)), ("compact", (0, 1)),
         ("join_preserving", (3,)))))


@pytest.mark.parametrize("fail,argv,detail,witnesses", [
    (_fail_pi_guard, ("canext", "C3R"), "embedding disagrees with membership",
     {"element": ["a"]}),
    (_fail_round_ideal_guard, ("dualize", "B2"),
     "round ideals failed to form a lattice", {"meet": ["{0,p}", "{0,q}"]}),
    (_fail_realization_guard, ("roundtrip", "B2"),
     "saturated-set realization failed to verify",
     {"increasing": ["p", "q"], "dense": ["{{p,1}}"],
      "compact": ["{1}", "{0,p}"], "join_preserving": ["1"]}),
], ids=["canext", "proximity", "spectra"])
def test_a_failed_theorem_guard_names_its_witness(capsys, monkeypatch, fail,
                                                  argv, detail, witnesses):
    with monkeypatch.context() as m:
        fail(m)
        code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err) == {
        "schema": "proxlat/1", "kind": "diagnostic",
        "status": "property-failure", "error": "InternalCheckError",
        "detail": detail, "witnesses": witnesses}


def test_the_guards_no_verb_reaches_name_their_witnesses(monkeypatch):
    """Each is made to fail on B2 or C3 and written as main writes a
    diagnostic: every index has its label."""
    b2, c3 = fixtures.load("B2"), fixtures.load("C3")
    lat = b2.lattice
    top = RoundSubset(b2, lat.up[lat.top], "filter")
    bot = RoundSubset(b2, lat.down[lat.bot], "ideal")
    fixed, verify = spectra.fixed_points, proximity.verify_morphism
    cases = [
        (spectra, "is_prime_up_set", lambda lat, mask: False,
         lambda: spectra.prime_filter_between(b2, top, bot),
         "maximal separating filter failed to be prime",
         {"filter": ["p", "1"]}),
        (spectra, "preimage", lambda table, mask: -1,
         lambda: spectra.dual_map(identity_morphism(b2)),
         "dual map is not continuous", {"element": ["0"]}),
        (spectra, "fixed_points", lambda q: fixed(q)[1:],
         lambda: spectra.spectral_case_check(b2),
         "Fix mu does not match the opens one to one",
         {"p": ["{p,1}"], "q": ["{q,1}"], "1": ["{p,1}", "{q,1}"]}),
        (proximity, "verify_morphism",
         lambda s, t, r: dataclasses.replace(verify(s, t, r), proximity=False),
         lambda: proximity.all_proximity_morphisms(c3, c3),
         "a meet-preserving tau fixed by mu_R is not a proximity morphism",
         {"tau": ["0", "0", "1"]}),
    ]
    for module, name, fake, call, detail, witnesses in cases:
        with monkeypatch.context() as m:
            m.setattr(module, name, fake)
            with pytest.raises(InternalCheckError) as exc:
                call()
        assert str(exc.value) == detail
        assert diagnostic_doc("property-failure", "InternalCheckError", detail,
                              exc.value.witnesses, exc.value.labels)[
            "witnesses"] == witnesses, detail


@pytest.mark.parametrize("argv,detail", [
    (("nosuchverb", "M3"), "proxlat: argument verb: invalid choice: 'nosuchverb'"),
    (("check",), "proxlat check: the following arguments are required: input"),
    (("canext", "M3", "--kind", "tau"),
     "proxlat canext: argument --kind: invalid choice: 'tau'"),
    (("check", "C3", "--bogus"), "proxlat: unrecognized arguments: --bogus"),
    ((), "proxlat: the following arguments are required: verb"),
    (("bogus", "C3"), "proxlat: argument verb: invalid choice: 'bogus'"),
    (("--out", "x.json", "check", "C3"),
     "proxlat: argument verb: invalid choice: 'x.json'"),
    (("check", "C3", "--kind", "pi"), "proxlat: unrecognized arguments: --kind pi"),
    (("check", "C3", "extra"), "proxlat: unrecognized arguments: extra"),
    (("canext", "C3", "--kind"), "proxlat canext: argument --kind: expected one argument"),
], ids=lambda v: v.split(": ", 1)[1] if isinstance(v, str) else None)
def test_bad_command_line_is_a_parse_error(capsys, argv, detail):
    """The whole detail, prog prefix included; an invalid choice only up
    to the value, since the list of choices after it is worded
    differently across Python versions."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    diag = json.loads(err)
    assert (diag["status"], diag["error"]) == ("parse-error", "ParseError")
    if "invalid choice" in detail:
        assert diag["detail"].startswith(detail + " ")
    else:
        assert diag["detail"] == detail


def test_double_dash_before_the_input_is_accepted(capsys):
    code, out, err = run(capsys, "check", "--", "C3")
    assert (code, err) == (0, "")
    assert json.loads(out)["axioms_ok"] is True


@pytest.mark.parametrize("argv", [("-h",), ("canext", "-h")])
def test_help_still_prints_usage(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    assert exc.value.code == 0
    assert captured.out.startswith("usage: proxlat") and captured.err == ""
