import functools
import json
import operator
import re
from pathlib import Path

import pytest

from gpdcov import cli
from gpdcov.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out) if out else None


def test_check_cover_identity(capsys):
    code, doc = run_json(capsys, "check-cover", FIXTURES / "id_c4.json")
    assert code == 0
    assert doc == {"covering": True, "fold": 1}


def test_check_cover_negative_names_object(capsys):
    code, doc = run_json(capsys, "check-cover",
                         FIXTURES / "collapse_i2.json")
    assert code == 1
    assert doc["covering"] is False
    assert doc["object"] == "x"
    assert doc["star_sizes"] == [2, 1]


def test_input_error_exit_code(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["validate", str(bad)])
    assert code == 2
    missing = tmp_path / "missing.json"
    assert main(["validate", str(missing)]) == 2


def test_validate_and_star(capsys):
    code, doc = run_json(capsys, "validate", FIXTURES / "s3.json")
    assert code == 0 and doc["valid"] is True
    code, doc = run_json(capsys, "star", FIXTURES / "i2.json",
                         "--object", "y")
    assert code == 0
    assert doc == {"object": "y", "arrows": ["id_y", "f"]}


def test_vertex_group_and_components(capsys):
    code, doc = run_json(capsys, "vertex-group", FIXTURES / "c4.json")
    assert code == 0 and doc["elements"] == ["0", "1", "2", "3"]
    code, doc = run_json(capsys, "components", FIXTURES / "i2.json")
    assert doc == {"components": [["x", "y"]]}


def test_build_universal_pipeline(capsys, tmp_path):
    out = tmp_path / "cov.json"
    code, _ = run(capsys, "build-cover", FIXTURES / "c4.json",
                  "--subgroup", "2", "--out", out)
    assert code == 0
    code, doc = run_json(capsys, "check-cover", out)
    assert code == 0 and doc == {"covering": True, "fold": 2}
    code, doc = run_json(capsys, "fold", out)
    assert doc == {"fold": 2}
    code, doc = run_json(capsys, "regular", out)
    assert code == 0 and doc == {"regular": True}
    code, doc = run_json(capsys, "monodromy", out)
    assert doc["transitive"] is True
    assert doc["stabilizers"]["[0]"] == ["0", "2"]

    uni = tmp_path / "univ.json"
    assert run(capsys, "universal", FIXTURES / "s3.json",
               "--out", uni)[0] == 0
    code, doc = run_json(capsys, "cov-group", uni)
    assert doc["order"] == 6


def test_not_regular_negative(capsys, tmp_path):
    out = tmp_path / "flip.json"
    assert run(capsys, "build-cover", FIXTURES / "s3.json",
               "--subgroup", "(12)", "--out", out)[0] == 0
    code, doc = run_json(capsys, "regular", out)
    assert code == 1 and doc == {"regular": False}


def test_equiv_command(capsys, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run(capsys, "build-cover", FIXTURES / "c4.json", "--subgroup", "2",
        "--out", a)
    run(capsys, "universal", FIXTURES / "c4.json", "--out", b)
    code, doc = run_json(capsys, "equiv", a, a, "--fixed-base")
    assert code == 0 and doc["equivalent"] is True
    code, doc = run_json(capsys, "equiv", a, b, "--fixed-base")
    assert code == 1 and doc == {"equivalent": False}


def test_lattice_json_and_dot(capsys):
    code, doc = run_json(capsys, "lattice", FIXTURES / "s3.json")
    assert code == 0
    assert len(doc["nodes"]) == 6
    assert sorted(n["fold"] for n in doc["nodes"]) == [1, 2, 3, 3, 3, 6]
    assert sum(1 for n in doc["nodes"] if not n["regular"]) == 3

    code, text = run(capsys, "lattice", FIXTURES / "s3.json", "--dot")
    assert code == 0
    assert text.startswith("digraph lattice {")
    assert text.count("{") == text.count("}") == 1
    assert len(re.findall(r"n\d+ \[label=", text)) == 6
    assert len(re.findall(r"n\d+ -> n\d+;", text)) == 8
    assert 'label="fold=6, regular=+"' in text
    assert 'label="fold=3, regular=-"' in text
    assert "rankdir=BT" in text
    # top of the diagram is the identity covering: the fold-1 node is
    # never the source of an edge
    top = next(i for i, n in enumerate(json.loads(
        run(capsys, "lattice", FIXTURES / "s3.json")[1])["nodes"])
        if n["fold"] == 1)
    assert not re.search(rf"n{top} -> ", text)


def test_byte_determinism(capsys):
    _, first = run(capsys, "lattice", FIXTURES / "s3.json")
    _, second = run(capsys, "lattice", FIXTURES / "s3.json")
    assert first == second
    _, d1 = run(capsys, "universal", FIXTURES / "c4.json")
    _, d2 = run(capsys, "universal", FIXTURES / "c4.json")
    assert d1 == d2
    assert d1.endswith("\n") and "\r" not in d1


def test_emitted_groupoids_reparse(capsys, tmp_path):
    out = tmp_path / "univ.json"
    run(capsys, "universal", FIXTURES / "c4.json", "--out", out)
    doc = json.loads(out.read_text())
    inner = tmp_path / "total.json"
    inner.write_text(json.dumps(doc["source"]))
    code, parsed = run_json(capsys, "validate", inner)
    assert code == 0 and parsed["valid"] is True
    code, comp = run_json(capsys, "components", inner)
    assert len(comp["components"]) == 1


def test_omega_char_subobjects_pipeline(capsys, tmp_path):
    om = tmp_path / "omega.json"
    assert run(capsys, "omega", FIXTURES / "c4.json", "--out", om)[0] == 0
    code, doc = run_json(capsys, "subobjects", om)
    assert code == 0 and doc["count"] == 4

    omega_doc = json.loads(om.read_text())
    sub = {
        "source": FIXTURES_C4_DOC(),
        "target": omega_doc["source"],
        "objects": {"*": "*:t"},
        "arrows": {str(k): f"{k}:t" for k in range(4)},
    }
    sub_file = tmp_path / "sub.json"
    sub_file.write_text(json.dumps(sub))
    code, doc = run_json(capsys, "char", om, "--sub", sub_file)
    assert code == 0
    assert doc["phi"]["objects"] == {"*:t": "*:t", "*:f": "*:f"}


def FIXTURES_C4_DOC():
    return json.loads((FIXTURES / "c4.json").read_text())


def test_expo_and_adjunction(capsys, tmp_path):
    cov = tmp_path / "cov.json"
    run(capsys, "build-cover", FIXTURES / "c4.json", "--subgroup", "2",
        "--out", cov)
    ex = tmp_path / "expo.json"
    assert run(capsys, "expo", cov, cov, "--out", ex)[0] == 0
    code, doc = run_json(capsys, "check-cover", ex)
    assert code == 0 and doc["fold"] == 4
    code, doc = run_json(capsys, "adjunction", cov, cov, cov)
    assert code == 0 and doc["bijection"] is True
    assert doc["product_hom_count"] == doc["exponential_hom_count"] == 4


def test_presheaf_pipeline(capsys, tmp_path):
    cov = tmp_path / "cov.json"
    run(capsys, "build-cover", FIXTURES / "c4.json", "--subgroup", "2",
        "--out", cov)
    ps = tmp_path / "ps.json"
    assert run(capsys, "to-presheaf", cov, "--out", ps)[0] == 0
    back = tmp_path / "back.json"
    assert run(capsys, "from-presheaf", ps, "--out", back)[0] == 0
    code, doc = run_json(capsys, "equiv", cov, back, "--fixed-base")
    assert code == 0 and doc["equivalent"] is True


def test_lift_commands(capsys, tmp_path):
    uni = tmp_path / "univ.json"
    run(capsys, "universal", FIXTURES / "c4.json", "--out", uni)
    code, doc = run_json(capsys, "lift-arrow", uni, "--arrow", "1",
                         "--at", "[0]")
    assert code == 0 and doc["lift"].endswith("1")
    code, doc = run_json(
        capsys, "lift-morphism", uni,
        "--morphism", FIXTURES / "id_c4.json",
        "--source-object", "*", "--target-object", "[0]")
    assert code == 1 and doc["lift"] is None


def test_pullback_and_pushout_commands(capsys, tmp_path):
    uni = tmp_path / "univ.json"
    run(capsys, "universal", FIXTURES / "c4.json", "--out", uni)
    code, doc = run_json(capsys, "pullback", uni, "--along",
                         FIXTURES / "id_c4.json")
    assert code == 0
    assert len(doc["covering"]["source"]["objects"]) == 4
    # pulling back along the projection itself gives the square
    code, doc = run_json(capsys, "pullback", uni, "--along", uni)
    assert code == 0
    assert len(doc["covering"]["source"]["objects"]) == 16
    code, doc = run_json(capsys, "pushout", uni, uni)
    assert code == 0
    assert len(doc["orbit_morphism"]["target"]["objects"]) == 1


def run_err(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_rejects_unhashable_object_name(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"objects": [["a"], "b"], "arrows": [],
                               "compose": []}))
    code, out, err = run_err(capsys, "validate", bad)
    assert code == 2 and out == ""
    assert "/objects/0" in err and "Traceback" not in err


def test_validate_rejects_names_equal_as_strings(capsys, tmp_path):
    # 1 and "1" differ as JSON values but name the same object
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "objects": [1, "1"],
        "arrows": [{"name": "e", "dom": "1", "cod": "1"}],
        "compose": [["e", "e", "e"]]}))
    code, out, err = run_err(capsys, "validate", bad)
    assert code == 2 and out == ""
    assert "object names must be unique" in err


@pytest.mark.parametrize("field, entry, where", [
    ("maps", {"e": 5}, "/maps/e"),
    ("sets", {"*": 7}, "/sets/*"),
    ("sets", {"*": "ab"}, "/sets/*"),
    ("maps", {"e": [["a", "a"]]}, "/maps/e"),
])
def test_from_presheaf_rejects_wrong_typed_entries(capsys, tmp_path, field,
                                                   entry, where):
    doc = {"base": str(FIXTURES / "t1.json"), "sets": {"*": ["a"]},
           "maps": {"e": {"a": "a"}}}
    doc[field] = entry
    bad = tmp_path / "ps.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_err(capsys, "from-presheaf", bad)
    assert code == 2 and out == ""
    assert where in err and "Traceback" not in err


def test_from_presheaf_accepts_the_well_typed_document(capsys, tmp_path):
    doc = {"base": str(FIXTURES / "t1.json"), "sets": {"*": ["a"]},
           "maps": {"e": {"a": "a"}}}
    ok = tmp_path / "ps.json"
    ok.write_text(json.dumps(doc))
    code, out, err = run_err(capsys, "from-presheaf", ok)
    assert code == 0 and err == ""
    assert json.loads(out)["source"]["objects"] == ["*·a"]


def test_covering_document_errors_exit_2(capsys, tmp_path):
    cover = tmp_path / "cover.json"
    assert run(capsys, "build-cover", FIXTURES / "s3.json",
               "--subgroup", "(12)", "--out", cover)[0] == 0
    doc = json.loads(cover.read_text(encoding="utf-8"))
    doc["marked_object"] = "nowhere"
    unknown = tmp_path / "unknown-mark.json"
    unknown.write_text(json.dumps(doc), encoding="utf-8")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    for path, message in ((unknown, "/marked_object: unknown object"),
                          (bad, "invalid JSON")):
        for cmd in ("fold", "regular", "normalizer-iso"):
            code = main([cmd, str(path)])
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert message in captured.err


GOLDEN = Path(__file__).resolve().parent / "golden"


def _action_doc(**changes):
    doc = json.loads((GOLDEN / "cov-action-universal-c4.json").read_text(
        encoding="utf-8"))
    doc.update(changes)
    return doc


@pytest.mark.parametrize("cmd, doc, where", [
    ("validate", {"group_table": [["a"]], "elements": 5}, "/elements"),
    ("validate", {"group_table": [["a"]], "elements": "a"}, "/elements"),
    ("validate", {"group_table": [1]}, "/group_table/0"),
    ("orbit", _action_doc(group_table=[1]), "/elements"),
    ("orbit", _action_doc(group_table=[1], elements=3), "/elements"),
    ("orbit", _action_doc(group_table=[1], elements=["h0"]),
     "/group_table/0"),
    ("orbit", _action_doc(elements="h0h1"), "/elements"),
])
def test_malformed_group_tables_exit_2(capsys, tmp_path, cmd, doc, where):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    argv = [cmd, bad] if cmd == "validate" else [cmd, "--action", bad]
    code, out, err = run_err(capsys, *argv)
    assert code == 2 and out == ""
    assert f"error: {where}:" in err and "Traceback" not in err


def test_action_documents_accept_integer_entries(capsys, tmp_path):
    """Action tables, like the one-object shorthand, may name an element
    by its index."""
    doc = _action_doc()
    doc["group_table"] = [[(i + j) % 4 for j in range(4)] for i in range(4)]
    action = tmp_path / "action.json"
    action.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = run_err(capsys, "orbit", "--action", action)
    assert code == 0
    assert out == (GOLDEN / "orbit-cov-action-universal-c4.out").read_text(
        encoding="utf-8")


def test_main_builds_one_parser(capsys):
    """Two calls of main build the parser once, and print the bytes that a
    call with a freshly built parser prints."""
    argv = ("lattice", FIXTURES / "s3.json")
    cli.build_parser.cache_clear()
    fresh = run(capsys, *argv)
    cli.build_parser.cache_clear()
    assert run(capsys, *argv) == run(capsys, *argv) == fresh
    assert fresh[0] == 0 and cli.build_parser.cache_info().misses == 1


@pytest.mark.parametrize("argv", [
    ("universal", FIXTURES / "c4.json"),            # a result (exit 0)
    ("check-cover", FIXTURES / "collapse_i2.json"),  # a negative (exit 1)
    ("selftest",),                                  # exit text (exit 0)
])
def test_unwritable_out_is_an_input_error(capsys, tmp_path, argv):
    """An --out that cannot be written exits 2 with one error line, from
    the result, the mathematical-negative and the exit-text paths alike;
    nothing goes to stdout."""
    for out in (tmp_path / "no" / "such" / "x.json", tmp_path):
        code, stdout, err = run_err(capsys, *argv, "--out", out)
        assert code == 2 and stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(out) in err


# -- malformed documents are input errors --------------------------------------

DEEP = "[" * 10000 + "]" * 10000


def test_deeply_nested_json_is_an_input_error(capsys, tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text(DEEP, encoding="utf-8")
    code, out, err = run_err(capsys, "validate", deep)
    assert code == 2 and out == ""
    assert err.startswith("error: /: invalid JSON") and err.count("\n") == 1


def test_deeply_nested_cover_target_is_an_input_error(capsys, tmp_path):
    (tmp_path / "deep.json").write_text(DEEP, encoding="utf-8")
    doc = json.loads((GOLDEN / "universal-c4.out").read_text(
        encoding="utf-8"))
    doc["target"] = "deep.json"
    cover = tmp_path / "cover.json"
    cover.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_err(capsys, "fold", cover)
    assert code == 2 and out == ""
    assert err.startswith("error: /target: invalid JSON in 'deep.json'")
    assert err.count("\n") == 1


@pytest.mark.parametrize("doc, where", [
    ({"objects": ["x"], "arrows": [{"name": {"a": 1}, "dom": "x",
                                    "cod": "x"}],
      "compose": [[{"a": 1}, {"a": 1}, {"a": 1}]]}, "/arrows/0/name"),
    ({"objects": ["x"], "arrows": [{"name": ["e"], "dom": "x", "cod": "x"}],
      "compose": [[["e"], ["e"], ["e"]]]}, "/arrows/0/name"),
    ({"group_table": [[{"e": 0}]], "elements": [{"e": 0}]}, "/elements/0"),
    ({"group_table": [[False, True], [True, False]]}, "/group_table/0/0"),
])
def test_names_are_scalars_and_indexes_are_not_bools(capsys, tmp_path, doc,
                                                     where):
    """Arrow and element names, like object names, are JSON scalars, and a
    group table entry read as an index is an integer, not a bool."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_err(capsys, "validate", bad)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {where}: ") and err.count("\n") == 1


FUZZ_VALUES = (None, -1, 10**30, "", [], {}, [[]], True, 1.5)
DELETE = object()  # the mutation that deletes a dict key


def fuzzed(doc, depth=3):
    """Copies of doc with one value at depth 1 to ``depth`` replaced by
    each of FUZZ_VALUES, or with one dict key deleted."""
    def sites(node, path):
        for key in (node if isinstance(node, dict) else range(len(node))):
            yield path + (key,)
            if len(path) + 1 < depth and isinstance(node[key], (dict, list)):
                yield from sites(node[key], path + (key,))

    text = json.dumps(doc)
    for path in sites(doc, ()):
        for value in FUZZ_VALUES + (DELETE,):
            out = json.loads(text)  # a deep copy
            parent = functools.reduce(operator.getitem, path[:-1], out)
            if value is not DELETE:
                parent[path[-1]] = value
            elif isinstance(parent, dict):
                del parent[path[-1]]
            else:
                continue  # list items are replaced, never deleted
            yield out


FUZZ_CASES = (
    (FIXTURES / "i2.json", (("validate",), ("universal",))),
    (GOLDEN / "universal-c4.out", (("fold",),)),
    (GOLDEN / "cov-action-universal-c4.json", (("orbit", "--action"),)),
    (GOLDEN / "to-presheaf-c4-2.out", (("from-presheaf",),)),
)


@pytest.mark.parametrize("source, commands", FUZZ_CASES,
                         ids=[source.name for source, _ in FUZZ_CASES])
def test_fuzzed_documents_keep_the_exit_code_contract(capsys, tmp_path,
                                                      source, commands):
    """Each mutation of a valid document, run through the commands that
    read it, exits 0, 1 or 2: never 3, never with an exception."""
    doc = json.loads(source.read_text(encoding="utf-8"))
    path = tmp_path / "doc.json"
    runs = 0
    for mutant in fuzzed(doc):
        path.write_text(json.dumps(mutant), encoding="utf-8")
        for command in commands:
            assert main([*command, str(path)]) in (0, 1, 2), (mutant, command)
            runs += 1
    capsys.readouterr()
    assert runs > 400


# -- one read of each base file per command -----------------------------------

def _covers_on_one_base(capsys, tmp_path, base_doc):
    """Two covering documents of C4 whose targets name one base file."""
    (tmp_path / "base.json").write_text(json.dumps(base_doc))
    paths = []
    for name, subgroup in (("p.json", "2"), ("q.json", "")):
        code, doc = run_json(capsys, "build-cover", FIXTURES / "c4.json",
                             "--subgroup", subgroup)
        assert code == 0
        doc["target"] = "base.json"
        paths.append(tmp_path / name)
        paths[-1].write_text(json.dumps(doc))
    return paths


def test_topos_commands_parse_a_shared_base_once(capsys, tmp_path,
                                                 monkeypatch):
    """expo and adjunction parse each covering's inline total and the
    base file they share once; the next command parses it afresh, and the
    commands see one base groupoid."""
    p, q = _covers_on_one_base(capsys, tmp_path, FIXTURES_C4_DOC())
    parsed, shared = [], []
    parse = cli.docs.parse_groupoid
    monkeypatch.setattr(cli.docs, "parse_groupoid", lambda doc, path="":
                        parsed.append(path) or parse(doc, path))
    exponential = cli.exponential
    monkeypatch.setattr(cli, "exponential", lambda a, b: shared.append(
        a.base is b.base) or exponential(a, b))
    for argv, want in ((("expo", p, q), ["/source", "/target", "/source"]),
                       (("adjunction", q, p, q),
                        ["/source", "/target", "/source", "/source"]),
                       (("expo", q, q), ["/source", "/target", "/source"])):
        del parsed[:]
        assert run(capsys, *argv)[0] == 0
        assert parsed == want
    assert shared and all(shared)


def test_a_shared_base_keeps_the_first_failing_document(capsys, tmp_path):
    """A base file that fails is reported at the first document that
    names it, as a command of that document alone reports it."""
    doc = FIXTURES_C4_DOC()
    doc["group_table"][1][1] = doc["group_table"][1][0]  # not a group
    p, q = _covers_on_one_base(capsys, tmp_path, doc)
    code, _, err = run_err(capsys, "fold", q)
    assert code == 2 and err.startswith("error: /target")
    for argv in (("expo", q, p), ("adjunction", q, p, p)):
        assert run_err(capsys, *argv) == (2, "", err)


def test_cov_group_labels_the_total_once(capsys, monkeypatch):
    """cov-group computes the total's unique labels once, not once per
    covering transformation."""
    calls = []
    unique = cli.docs._unique_labels
    monkeypatch.setattr(cli.docs, "_unique_labels", lambda labels:
                        calls.append(len(labels)) or unique(labels))
    counts = []
    for name in ("universal-c4.out", "universal-s3.out"):
        del calls[:]
        code, doc = run_json(capsys, "cov-group", GOLDEN / name)
        assert code == 0 and doc["order"] in (4, 6)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_validate_refuses_a_document_that_breaks_a_law(capsys, tmp_path):
    """A document whose table breaks a groupoid law is an input error,
    not a negative: no report on stdout, exit 2."""
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "objects": ["x"],
        "arrows": [{"name": "e", "dom": "x", "cod": "x"},
                   {"name": "a", "dom": "x", "cod": "x"}],
        "compose": [["e", "e", "e"], ["e", "a", "a"], ["a", "e", "a"],
                    ["a", "a", "e"]],
        "inverse": {"e": "e", "a": "e"}}))
    code, out, err = run_err(capsys, "validate", bad)
    assert (code, out) == (2, "")
    assert "not a groupoid" in err and "Traceback" not in err


def test_check_cover_checks_functoriality_once(capsys, monkeypatch):
    """Reading the morphism checks functoriality; the check is not run a
    second time."""
    calls = []
    original = cli.docs.GroupoidMorphism.functoriality_violations

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(cli.docs.GroupoidMorphism,
                        "functoriality_violations", counted)
    for fixture, code in (("id_c4.json", 0), ("collapse_i2.json", 1)):
        calls.clear()
        assert run(capsys, "check-cover", FIXTURES / fixture)[0] == code
        assert len(calls) == 1
