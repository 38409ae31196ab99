import json
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpdcov import (FiniteGroupoid, GroupoidMorphism, documents, omega,
                    require_covering, validate, vertex_group)
from gpdcov.documents import (DocumentError, _unique_labels, dumps,
                              emit_covering, emit_groupoid, emit_morphism,
                              emit_presheaf, load_covering, parse_groupoid,
                              parse_morphism, parse_presheaf)
from gpdcov.topos import covering_to_presheaf

from test_index import CORPUS


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


# -- dumps against the json.dumps oracle --------------------------------------

def oracle(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2,
                      ensure_ascii=False) + "\n"


def assert_dumps_like_oracle(value):
    """dumps(value) is the oracle's text, or raises TypeError when the
    oracle does."""
    try:
        want = oracle(value)
    except TypeError:
        with pytest.raises(TypeError):
            dumps(value)
    else:
        assert dumps(value) == want


ENCODER_SETTINGS = settings(max_examples=150, deadline=None,
                            derandomize=True, database=None)

# Characters every escape rule and the %-templates care about, lone
# surrogates included, mixed into arbitrary text.
TRICKY = '%"\\/\x00\x08\x0c\x1f\x7f\x80\u00e9\u2028\ud800\udfff\U0001f600'
texts = st.text(st.one_of(st.characters(), st.sampled_from(TRICKY)),
                max_size=8)
numbers = st.one_of(st.integers(), st.integers(min_value=2 ** 64),
                    st.booleans(), st.sampled_from([-0.0, 0.0]),
                    st.floats(allow_nan=True, allow_infinity=True))
scalars = st.one_of(st.none(), texts, numbers)
keys = st.one_of(texts, numbers, st.none())


def nested(children):
    # One key family per dict, so that keys sort as json.dumps sorts them.
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(texts, children, max_size=4),
        st.dictionaries(numbers, children, max_size=4),
        st.dictionaries(st.none(), children, max_size=1))


@st.composite
def bulk_shapes(draw):
    """A list of strings, of equal-length rows of strings, or of dicts with
    one key set and string values: the shapes dumps writes in bulk."""
    kind = draw(st.sampled_from(["strings", "rows", "dicts"]))
    if kind == "strings":
        return draw(st.lists(texts, min_size=1, max_size=6))
    if kind == "rows":
        width = draw(st.integers(1, 4))
        row = st.lists(texts, min_size=width, max_size=width)
        return draw(st.lists(st.one_of(row, row.map(tuple)), min_size=1,
                             max_size=6))
    names = draw(st.lists(texts, min_size=1, max_size=4, unique=True))
    return draw(st.lists(st.fixed_dictionaries({k: texts for k in names}),
                         min_size=1, max_size=6))


@st.composite
def near_misses(draw):
    """A bulk shape with one item or leaf changed so that it is not one:
    a row of another length, a leaf that is not a str, a dict with another
    key set or key order."""
    items = list(draw(bulk_shapes()))
    i = draw(st.integers(0, len(items) - 1))
    item = items[i]
    odd = draw(st.one_of(st.none(), numbers, st.lists(texts, max_size=2),
                         st.dictionaries(texts, texts, max_size=2)))
    change = draw(st.sampled_from(["leaf", "shape"]))
    if isinstance(item, str):
        items[i] = odd
    elif isinstance(item, dict) and change == "leaf":
        items[i] = {**item, next(iter(item)): odd}
    elif isinstance(item, dict):
        extra = draw(texts)
        items[i] = (dict(reversed(list(item.items()))) if extra in item
                    else {**item, extra: "x"})
    elif change == "leaf":
        items[i] = list(item[:-1]) + [odd]
    else:
        items[i] = list(item) + draw(st.lists(texts, min_size=1,
                                              max_size=2))
    return items


@ENCODER_SETTINGS
@given(st.recursive(scalars, nested, max_leaves=30))
def test_dumps_matches_json_on_generated_values(value):
    assert_dumps_like_oracle(value)


@ENCODER_SETTINGS
@given(st.one_of(bulk_shapes(), near_misses()))
def test_dumps_matches_json_on_bulk_shapes_and_near_misses(value):
    assert_dumps_like_oracle(value)
    assert_dumps_like_oracle({"%s": value, "k": [value, value]})


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], [{}], [[], []], [{}, {}], "", 0, -0.0, None, True,
    float("nan"), float("inf"), -float("inf"), 10 ** 100, 1e300,
    {True: "t", False: "f", 2: "i", 1.5: "x", -0.0: "z"}, {None: []},
    {float("nan"): 1}, [["%s", "%%"], ["%(a)s", "%"]],
    [{"%s": "%", "a%b": "%%s"}, {"%s": "", "a%b": "%d"}],
    [{"b": "1", "a": "2"}, {"a": "3", "b": "4"}],
])
def test_dumps_matches_json_on_edge_cases(value):
    assert_dumps_like_oracle(value)


@pytest.mark.parametrize("value", [
    {1, 2}, MappingProxyType({"a": "b"}), {("a",): "b"}, [object()],
    {"a": [["x", "y"], ["z", {1}]]}, [{"a": "b"}, {"a": frozenset()}],
    [{("t",): "b"}], {1: "a", "b": "c"}, b"bytes",
])
def test_dumps_refuses_what_json_refuses(value):
    with pytest.raises(TypeError):
        oracle(value)
    with pytest.raises(TypeError):
        dumps(value)


# -- compose rows without a sort ----------------------------------------------

def sorted_rows(g):
    names = _unique_labels(g.arr_labels)
    return [[names[f], names[h], names[v]]
            for (f, h), v in sorted(g.compose.items())]


def count_sorts(monkeypatch):
    calls = []

    def counted(*args, **kw):
        calls.append(args)
        return sorted(*args, **kw)

    monkeypatch.setattr(documents, "sorted", counted, raising=False)
    return calls


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_compose_rows_need_no_sort(name, monkeypatch):
    g = CORPUS[name]
    sorts = count_sorts(monkeypatch)
    assert emit_groupoid(g)["compose"] == sorted_rows(g)
    assert sorts == []


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_compose_rows_of_a_broken_table_are_sorted(name, monkeypatch):
    """A table with one entry dropped, or one entry on a non-composable
    pair added, takes the sorted fallback and lists exactly its entries."""
    g = CORPUS[name]
    entries = dict(g.compose)
    dropped = dict(entries)
    del dropped[sorted(entries)[len(entries) // 2]]
    tables = [dropped]
    extra = next(((f, h) for f in g.arrows for h in g.arrows
                  if g.cod[h] != g.dom[f]), None)
    if extra is not None:
        tables.append({**entries, extra: extra[0]})
    for table in tables:
        broken = FiniteGroupoid(g.n_objects, g.dom, g.cod, g.identity,
                                table, g.inverse, g.obj_labels,
                                g.arr_labels)
        sorts = count_sorts(monkeypatch)
        assert emit_groupoid(broken)["compose"] == sorted_rows(broken)
        assert len(sorts) == 1
