import json
from pathlib import Path

import pytest

from gpdcov import (GroupoidMorphism, omega, require_covering, validate,
                    vertex_group)
from gpdcov.documents import (DocumentError, dumps, emit_covering,
                              emit_groupoid, emit_morphism, emit_presheaf,
                              load_covering, parse_groupoid, parse_morphism,
                              parse_presheaf)
from gpdcov.topos import covering_to_presheaf


I2_DOC = {
    "objects": ["x", "y"],
    "arrows": [
        {"name": "id_x", "dom": "x", "cod": "x"},
        {"name": "id_y", "dom": "y", "cod": "y"},
        {"name": "f", "dom": "x", "cod": "y"},
        {"name": "g", "dom": "y", "cod": "x"},
    ],
    "compose": [
        ["id_x", "id_x", "id_x"], ["id_y", "id_y", "id_y"],
        ["f", "id_x", "f"], ["id_y", "f", "f"],
        ["g", "id_y", "g"], ["id_x", "g", "g"],
        ["g", "f", "id_x"], ["f", "g", "id_y"],
    ],
}


def test_parse_full_document_derives_structure():
    g = parse_groupoid(I2_DOC)
    assert g.n_objects == 2 and g.n_arrows == 4
    assert validate(g).ok
    # inverse derived: f and g are mutually inverse
    f = list(g.arr_labels).index("f")
    gg = list(g.arr_labels).index("g")
    assert g.inverse[f] == gg


def test_parse_group_table_shorthand():
    doc = {"object": "pt", "elements": ["e", "a"],
           "group_table": [["e", "a"], ["a", "e"]]}
    g = parse_groupoid(doc)
    assert g.n_objects == 1 and g.n_arrows == 2
    assert g.obj_labels == ("pt",)
    assert vertex_group(g, 0).order == 2


def test_parse_errors_carry_paths():
    bad = {"objects": ["x"], "arrows": [
        {"name": "a", "dom": "x", "cod": "z"}], "compose": []}
    with pytest.raises(DocumentError) as err:
        parse_groupoid(bad)
    assert "/arrows/0/cod" in str(err.value)

    with pytest.raises(DocumentError) as err:
        parse_groupoid({"objects": ["x", "x"], "arrows": [],
                        "compose": []})
    assert "/objects" in str(err.value)

    # a one-way arrow between two objects cannot be inverted
    missing_inverse = {
        "objects": ["x", "y"],
        "arrows": [{"name": "id_x", "dom": "x", "cod": "x"},
                   {"name": "id_y", "dom": "y", "cod": "y"},
                   {"name": "f", "dom": "x", "cod": "y"}],
        "compose": [["id_x", "id_x", "id_x"], ["id_y", "id_y", "id_y"],
                    ["f", "id_x", "f"], ["id_y", "f", "f"]],
    }
    with pytest.raises(DocumentError) as err:
        parse_groupoid(missing_inverse)
    assert "no inverse" in str(err.value)


def test_parse_rejects_non_groupoid_table():
    doc = {"group_table": [[0, 1, 2], [1, 2, 0], [2, 1, 0]]}
    with pytest.raises(DocumentError):
        parse_groupoid(doc)


def test_groupoid_emit_parse_round_trip(c4, i2, s3):
    for g in (c4, i2, s3):
        doc = emit_groupoid(g)
        back = parse_groupoid(doc)
        assert back == g  # dense ids and tables are reproduced exactly


def test_morphism_round_trip(cov02):
    doc = emit_covering(cov02)
    m = parse_morphism(doc)
    assert m.source == cov02.total
    assert m.target == cov02.base
    assert m.obj_map == cov02.morphism.obj_map
    assert m.arr_map == cov02.morphism.arr_map
    assert doc["marked_object"] == "[0]"


def test_load_covering_keeps_the_mark(c4, tmp_path):
    for mark in (None, 1):
        cov = require_covering(omega(c4).covering.morphism, mark)
        path = tmp_path / f"omega-{mark}.json"
        path.write_text(dumps(emit_covering(cov)), encoding="utf-8")
        back = load_covering(str(path))
        assert back.marked_object == mark
        assert back.mark == (mark or 0)
        assert back.fibers == cov.fibers == ((0, 1),)


def test_load_covering_walks_functoriality_once(monkeypatch):
    """parse_morphism checks functoriality; load_covering then checks only
    the star maps, with check_covering's message on failure."""
    root = Path(__file__).resolve().parent.parent
    walks = []
    original = GroupoidMorphism.functoriality_violations

    def counted(self):
        walks.append(self)
        return original(self)

    monkeypatch.setattr(GroupoidMorphism, "functoriality_violations",
                        counted)
    cov = load_covering(str(root / "tests" / "golden" / "universal-s3.out"))
    assert len(walks) == 1 and cov.fibers == (tuple(cov.total.objects),)
    with pytest.raises(ValueError, match="^star map not injective at "
                                         "object x: arrows id_x and g "
                                         "both map to e$"):
        load_covering(str(root / "fixtures" / "collapse_i2.json"))
    assert len(walks) == 2


def test_morphism_functoriality_checked_on_load(i2):
    doc = {
        "source": I2_DOC,
        "target": I2_DOC,
        "objects": {"x": "x", "y": "y"},
        "arrows": {"id_x": "id_x", "id_y": "id_y", "f": "g", "g": "f"},
    }
    with pytest.raises(DocumentError) as err:
        parse_morphism(doc)
    assert "not functorial" in str(err.value)


def test_presheaf_round_trip(cov02):
    ps = covering_to_presheaf(cov02)
    doc = emit_presheaf(ps)
    back = parse_presheaf(doc)
    assert [len(s) for s in back.sets] == [len(s) for s in ps.sets]
    back.validate()


def test_dumps_is_canonical():
    text = dumps({"b": 1, "a": [2, 1]})
    assert text == '{\n  "a": [\n    2,\n    1\n  ],\n  "b": 1\n}\n'
    assert dumps(json.loads(text)) == text
