"""The one-pass document reader, the row-wise certificates and the
lift-action check, each against the code it replaced.

The ``reference_`` functions below are the groupoid reader, its inverse
derivation, the morphism reader and Light's test as they were before
compose rows, arrow lists and name maps were read in bulk, verbatim apart
from their names.  Every document, valid or not, must read the same: an
equal groupoid with equal labels, or a :class:`DocumentError` with the
same path and message.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpdcov import (FiniteGroup, FiniteGroupoid, GroupoidMorphism,
                    group_groupoid, validate)
from gpdcov.documents import (DocumentError, _derive_identities,
                              _derive_inverses, _index, _name, _need,
                              _parse_group, _resolve, emit_groupoid,
                              emit_morphism, parse_groupoid, parse_morphism)
from gpdcov.groupoid import _associative_on, generators, relabeled

from test_index import CORPUS, _every_single_entry_corruption


# -- the code that was replaced, verbatim ------------------------------------

def reference_parse_groupoid(doc, path: str = "") -> FiniteGroupoid:
    if not isinstance(doc, dict):
        raise DocumentError(path or "/", "groupoid document must be an "
                            "object")
    if "group_table" in doc:
        return group_groupoid(_parse_group(doc, path),
                              label=str(doc.get("object", "*")))
    objects = [_name(x, f"{path}/objects/{i}", "object")
               for i, x in enumerate(_need(doc, "objects", path, list))]
    obj_index = {name: i for i, name in enumerate(objects)}
    if len(obj_index) != len(objects):
        raise DocumentError(f"{path}/objects", "object names must be "
                            "unique")
    arrows = _need(doc, "arrows", path, list)
    names, dom, cod = [], [], []
    for i, arr in enumerate(arrows):
        apath = f"{path}/arrows/{i}"
        name = _name(_need(arr, "name", apath), f"{apath}/name", "arrow")
        for key, out in (("dom", dom), ("cod", cod)):
            val = str(_need(arr, key, apath))
            if val not in obj_index:
                raise DocumentError(f"{apath}/{key}",
                                    f"unknown object {val!r}")
            out.append(obj_index[val])
        names.append(name)
    if len(set(names)) != len(names):
        raise DocumentError(f"{path}/arrows", "arrow names must be unique")
    arr_index = {name: i for i, name in enumerate(names)}
    compose = {}
    for i, entry in enumerate(_need(doc, "compose", path, list)):
        cpath = f"{path}/compose/{i}"
        if not (isinstance(entry, list) and len(entry) == 3):
            raise DocumentError(cpath, "expected [f, h, fh]")
        ids = []
        for name in entry:
            if str(name) not in arr_index:
                raise DocumentError(cpath, f"unknown arrow {name!r}")
            ids.append(arr_index[str(name)])
        f, h, fh = ids
        if (f, h) in compose and compose[(f, h)] != fh:
            raise DocumentError(cpath, "conflicting composition entries")
        compose[(f, h)] = fh
    identity = _derive_identities(len(objects), dom, cod, compose, path)
    if "inverse" in doc:
        inv_doc = _need(doc, "inverse", path, dict)
        inverse = []
        for i, name in enumerate(names):
            if name not in inv_doc:
                raise DocumentError(f"{path}/inverse",
                                    f"missing inverse of {name!r}")
            val = str(inv_doc[name])
            if val not in arr_index:
                raise DocumentError(f"{path}/inverse/{name}",
                                    f"unknown arrow {val!r}")
            inverse.append(arr_index[val])
    else:
        inverse = reference_derive_inverses(dom, cod, identity, compose,
                                            names, path)
    g = FiniteGroupoid(len(objects), dom, cod, identity, compose, inverse,
                       obj_labels=objects,
                       arr_labels=names)
    report = validate(g)
    if not report.ok:
        first = report.violations[0]
        raise DocumentError(path or "/",
                            f"not a groupoid: {first.message}")
    return g


def reference_derive_inverses(dom, cod, identity, compose, names, path):
    inverse = []
    for a in range(len(dom)):
        inv_a = None
        for b in range(len(dom)):
            if compose.get((a, b)) == identity[cod[a]] \
                    and compose.get((b, a)) == identity[dom[a]]:
                inv_a = b
                break
        if inv_a is None:
            raise DocumentError(path or "/",
                                f"arrow {names[a]!r} has no inverse")
        inverse.append(inv_a)
    return inverse


def reference_parse_morphism(doc, base_dir: str = ".",
                             path: str = "") -> GroupoidMorphism:
    source = _resolve(doc, "source", path, base_dir)
    target = _resolve(doc, "target", path, base_dir)
    obj_doc = _need(doc, "objects", path, dict)
    arr_doc = _need(doc, "arrows", path, dict)
    src_obj, src_arr = _index(source)
    dst_obj, dst_arr = _index(target)
    obj_map = [None] * source.n_objects
    for name, img in obj_doc.items():
        if str(name) not in src_obj:
            raise DocumentError(f"{path}/objects",
                                f"unknown source object {name!r}")
        if str(img) not in dst_obj:
            raise DocumentError(f"{path}/objects/{name}",
                                f"unknown target object {img!r}")
        obj_map[src_obj[str(name)]] = dst_obj[str(img)]
    if any(v is None for v in obj_map):
        missing = source.obj_labels[obj_map.index(None)]
        raise DocumentError(f"{path}/objects",
                            f"missing image of object {missing!r}")
    arr_map = [None] * source.n_arrows
    for name, img in arr_doc.items():
        if str(name) not in src_arr:
            raise DocumentError(f"{path}/arrows",
                                f"unknown source arrow {name!r}")
        if str(img) not in dst_arr:
            raise DocumentError(f"{path}/arrows/{name}",
                                f"unknown target arrow {img!r}")
        arr_map[src_arr[str(name)]] = dst_arr[str(img)]
    if any(v is None for v in arr_map):
        missing = source.arr_labels[arr_map.index(None)]
        raise DocumentError(f"{path}/arrows",
                            f"missing image of arrow {missing!r}")
    m = GroupoidMorphism(source, target, obj_map, arr_map)
    bad = m.functoriality_violations()
    if bad:
        raise DocumentError(path or "/",
                            f"morphism is not functorial: {bad[0]}")
    return m


def reference_associative_on(g: FiniteGroupoid, gens) -> bool:
    """Light's test: (f∘h)∘k = f∘(h∘k) for every h in the generating set
    ``gens`` that is not an identity and every f, k composable with it;
    False when ``gens`` is None.  For a table that is defined exactly on
    the composable pairs, the arrows h passing this test are closed under
    composition (Clifford–Preston, *The Algebraic Theory of Semigroups*,
    vol. 1), and identities pass by the identity laws, so passing it on a
    generating set is associativity.  Costs Σ_h |into(dom h)|·|out(cod h)|
    lookups."""
    if gens is None:
        return False
    compose, into, out, dom, cod = g.compose, g._into, g._out, g.dom, g.cod
    for h in gens:
        if g.identity[dom[h]] == h:
            continue
        ks = into[dom[h]]
        hks = [compose[(h, k)] for k in ks]
        for f in out[cod[h]]:
            fh = compose[(f, h)]
            if [compose[(fh, k)] for k in ks] != \
                    [compose[(f, hk)] for hk in hks]:
                return False
    return True


def reference_group_check(table):
    """The table checks of ``FiniteGroup`` as they were, with the scan of
    all n³ triples; raises the same ValueErrors."""
    table = tuple(tuple(int(v) for v in row) for row in table)
    n = len(table)
    if any(len(row) != n for row in table):
        raise ValueError("multiplication table must be square")
    rng = range(n)
    for a in rng:
        for b in rng:
            if not 0 <= table[a][b] < n:
                raise ValueError(f"table entry at ({a}, {b}) out of range")
    identity = None
    for e in rng:
        if all(table[e][a] == a == table[a][e] for a in rng):
            identity = e
            break
    if identity is None:
        raise ValueError("no identity element")
    for a in rng:
        inv_a = None
        for b in rng:
            if table[a][b] == identity == table[b][a]:
                inv_a = b
                break
        if inv_a is None:
            raise ValueError(f"element {a} has no inverse")
    for a in rng:
        row_a = table[a]
        for b in rng:
            ab = row_a[b]
            row_b = table[b]
            for c in rng:
                if table[ab][c] != row_a[row_b[c]]:
                    raise ValueError(
                        f"associativity fails on triple ({a}, {b}, {c})")


# -- groupoid documents, mutated ---------------------------------------------

def outcome(read, *args):
    """What reading gives: the groupoid or morphism with its labels, or
    the error with its path and message."""
    try:
        out = read(*args)
    except DocumentError as exc:
        return "DocumentError", exc.path, str(exc)
    except Exception as exc:  # any other error must agree too
        return type(exc).__name__, str(exc)
    if isinstance(out, FiniteGroupoid):
        return out, out.obj_labels, out.arr_labels
    if isinstance(out, GroupoidMorphism):
        return out, out.source.arr_labels, out.target.arr_labels
    return (out,)


def _documents():
    """Groupoid documents whose names include digits, ``True`` and single
    characters, so that int and bool names and three-character strings
    can stand for real names."""
    s3 = CORPUS["s3"]
    pair = CORPUS["codiscrete-2-x-c3"]
    four = CORPUS["codiscrete-4"]
    return [
        emit_groupoid(relabeled(
            s3, obj_labels=("1",),
            arr_labels=("0", "1", "True", "False", "x", "yz"))),
        emit_groupoid(relabeled(
            pair, obj_labels=("0", "True"),
            arr_labels=tuple(map(str, pair.arrows)))),
        emit_groupoid(relabeled(
            four, arr_labels=tuple("abcdefghijklmnop"))),
    ]


DOCUMENTS = _documents()


def _row(doc, draw):
    """The index of a compose row that no mutation has broken yet."""
    intact = [i for i, row in enumerate(doc["compose"])
              if isinstance(row, list) and len(row) == 3
              and set(map(type, row)) == {str}]
    return draw(st.sampled_from(intact)) if intact else None


def _arrow(doc, draw):
    """The index of an arrow entry that no mutation has broken yet."""
    intact = [i for i, arr in enumerate(doc["arrows"])
              if isinstance(arr, dict) and len(arr) == 3
              and set(map(type, arr.values())) == {str}]
    return draw(st.sampled_from(intact)) if intact else None


def _wrong_arity(doc, i, draw):
    row = doc["compose"][i]
    doc["compose"][i] = draw(st.sampled_from([row[:2], row + row[:1], []]))


def _not_a_list(doc, i, draw):
    doc["compose"][i] = draw(st.sampled_from(
        [None, 7, tuple(doc["compose"][i]), {"f": "h"}]))


def _three_char_string(doc, i, draw):
    doc["compose"][i] = "".join(name[:1] for name in doc["compose"][i])


def _three_key_object(doc, i, draw):
    doc["compose"][i] = dict.fromkeys(doc["compose"][i], 0)


def _unknown_name(doc, i, draw):
    doc["compose"][i][draw(st.integers(0, 2))] = draw(
        st.sampled_from(["nope", 99, [1]]))


def _scalar(name):
    """The int, float or bool whose text is name; unknown when no name
    has that text."""
    text = {"True": True, "False": False}
    return text.get(name, int(name) if name.isdigit() else 1.0)


def _scalar_name(doc, i, draw):
    row = doc["compose"][i]
    k = draw(st.integers(0, 2))
    row[k] = _scalar(row[k])


def _duplicate_row(doc, i, draw):
    at = draw(st.integers(0, len(doc["compose"])))
    doc["compose"].insert(at, list(doc["compose"][i]))


def _conflicting_row(doc, i, draw):
    """A second row for the pair of row i, naming the same composite or
    another known arrow."""
    f, h, fh = doc["compose"][i]
    other = draw(st.sampled_from([fh] + [
        arr["name"] for arr in doc["arrows"]
        if isinstance(arr, dict) and type(arr.get("name")) is str]))
    at = draw(st.integers(0, len(doc["compose"])))
    doc["compose"].insert(at, [f, h, other])


ROW_MUTATIONS = [_wrong_arity, _not_a_list, _three_char_string,
                 _three_key_object, _unknown_name, _scalar_name,
                 _duplicate_row, _conflicting_row]


def _broken_arrow(doc, i, draw):
    arr = doc["arrows"][i]
    doc["arrows"][i] = draw(st.sampled_from([
        list(arr.values()), arr["name"], {"name": arr["name"]},
        dict(arr, dom="nowhere"), dict(arr, name=["x"]),
        dict(arr, name=doc["arrows"][_arrow(doc, draw)]["name"]),
        dict(arr, name=_scalar(arr["name"])),
        dict(arr, dom=_scalar(arr["dom"])),
        dict(arr, cod=_scalar(arr["cod"]))]))


@st.composite
def mutated_documents(draw):
    """A document with up to three compose rows or arrow entries broken,
    its compose list perhaps emptied, and its inverses perhaps dropped or
    named by a scalar."""
    doc = copy.deepcopy(draw(st.sampled_from(DOCUMENTS)))
    for mutate in draw(st.lists(st.sampled_from(
            ROW_MUTATIONS + [_broken_arrow]), min_size=1, max_size=3)):
        pick = _arrow if mutate is _broken_arrow else _row
        i = pick(doc, draw)
        if i is not None:
            mutate(doc, i, draw)
    if draw(st.integers(0, 9)) == 9:
        doc["compose"] = []
    inverse = draw(st.sampled_from(["keep", "drop", "scalar"]))
    if inverse == "drop":
        del doc["inverse"]
    elif inverse == "scalar":
        key = draw(st.sampled_from(sorted(doc["inverse"])))
        doc["inverse"][key] = _scalar(doc["inverse"][key])
    return doc


@settings(max_examples=250, deadline=None, derandomize=True)
@given(mutated_documents())
def test_reader_matches_the_per_row_loop_on_mutated_documents(doc):
    want = outcome(reference_parse_groupoid, copy.deepcopy(doc), "/g")
    assert outcome(parse_groupoid, doc, "/g") == want


@pytest.mark.parametrize("doc", DOCUMENTS)
def test_reader_matches_the_per_row_loop_on_whole_documents(doc):
    without = {k: v for k, v in doc.items() if k != "inverse"}
    for whole in (doc, without):
        got = outcome(parse_groupoid, whole)
        assert isinstance(got[0], FiniteGroupoid)
        assert got == outcome(reference_parse_groupoid, whole)


def test_scalar_names_reach_the_per_row_loop():
    """Names written as ints and bools read as their text, through the
    per-row loop; a three-character string is a row error, not three
    names."""
    doc = copy.deepcopy(DOCUMENTS[0])
    want = parse_groupoid(doc)
    for row in doc["compose"]:
        row[:] = [{"0": 0, "1": 1, "True": True}.get(v, v) for v in row]
    assert outcome(parse_groupoid, doc) == (want, want.obj_labels,
                                            want.arr_labels)
    four = copy.deepcopy(DOCUMENTS[2])
    four["compose"][3] = "".join(four["compose"][3])
    with pytest.raises(DocumentError, match="^/compose/3: expected"):
        parse_groupoid(four)


# -- inverses, Light's test and group tables ---------------------------------

@pytest.mark.parametrize("name", sorted(CORPUS))
def test_derived_inverses_match_the_pair_scan(name):
    """On each corpus table, and on each with one entry changed to another
    parallel arrow, the inverses are those of the scan over all pairs."""
    g = CORPUS[name]
    for broken in [g, *_every_single_entry_corruption(g)]:
        args = (broken.dom, broken.cod, broken.identity,
                dict(broken.compose), broken.arr_labels, "")
        got, want = [outcome(fn, *args) for fn in (_derive_inverses,
                                                   reference_derive_inverses)]
        assert got == want


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_row_wise_light_test_matches_the_lookup_test(name):
    """On every single changed entry of each corpus groupoid, the row-wise
    test gives the verdict of the test that looked up each triple."""
    g = CORPUS[name]
    assert _associative_on(g, generators(g))
    for broken in _every_single_entry_corruption(g):
        gens = generators(broken)
        assert _associative_on(broken, gens) == \
            reference_associative_on(broken, gens)


def _direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    n = b.order
    return FiniteGroup([[a.mult(x // n, y // n) * n + b.mult(x % n, y % n)
                         for y in range(a.order * n)]
                        for x in range(a.order * n)])


GROUPS = [FiniteGroup.trivial(), FiniteGroup.cyclic(4),
          FiniteGroup.symmetric(3), FiniteGroup.cyclic(7),
          _direct_product(FiniteGroup.cyclic(2), FiniteGroup.cyclic(4))]


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: f"order-{g.order}")
def test_group_check_matches_the_triple_scan(group):
    """Every table with one entry of a group's changed is accepted or
    refused as the scan of all triples does, with the same message."""
    table = [list(row) for row in group.table]
    n = group.order
    tables = [table]
    for a in range(n):
        for b in range(n):
            for v in range(n):
                if v != table[a][b]:
                    tables.append([row[:] for row in table])
                    tables[-1][a][b] = v
    kinds = set()
    for t in tables:
        got = outcome(FiniteGroup, t)
        want = outcome(reference_group_check, t)
        if want == (None,):
            assert isinstance(got[0], FiniteGroup)
            kinds.add("group")
        else:
            assert got == want
            kinds.add(want[1].split(" ")[0])
    assert n < 3 or {"group", "associativity"} <= kinds


#: A loop of order 5 that is not a group: its elements are their own
#: inverses, and a group of order 5 is cyclic.
LOOP5 = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]


def test_group_check_reads_every_generator():
    """C2 × LOOP5, numbered so that the first generator found is the C2
    factor, which associates with everything: associativity fails only
    at a later generator, and the message names the scan's first
    triple."""
    table = [[(x + y) % 2 + 2 * LOOP5[x // 2][y // 2] for y in range(10)]
             for x in range(10)]
    want = outcome(reference_group_check, table)
    assert want[0] == "ValueError" and "associativity" in want[1]
    assert outcome(FiniteGroup, table) == want


# -- morphism documents ------------------------------------------------------

def _morphisms():
    pair = CORPUS["codiscrete-2-x-c3"]
    digits = relabeled(pair, obj_labels=("0", "1"),
                       arr_labels=tuple(map(str, pair.arrows)))
    s3 = CORPUS["s3"]
    return [emit_morphism(GroupoidMorphism.identity(digits)),
            emit_morphism(GroupoidMorphism(s3, s3, (0,), s3.inverse))]


MORPHISMS = _morphisms()


@st.composite
def mutated_morphisms(draw):
    doc = copy.deepcopy(draw(st.sampled_from(MORPHISMS)))
    for _ in range(draw(st.integers(0, 3))):
        part = doc[draw(st.sampled_from(["objects", "arrows"]))]
        if not part:
            continue
        key = draw(st.sampled_from(sorted(part, key=str)))
        kind = draw(st.sampled_from(["drop", "key", "image", "unknown",
                                     "list"]))
        if kind == "drop":
            del part[key]
        elif kind == "key" and str(key).isdigit():
            part[int(key)] = part.pop(key)
        elif kind == "image" and str(part[key]).isdigit():
            part[key] = int(part[key])
        elif kind == "unknown":
            part[draw(st.sampled_from([key, "nope"]))] = "nope"
        elif kind == "list":
            part[key] = [part[key]]
    return doc


@settings(max_examples=120, deadline=None, derandomize=True)
@given(mutated_morphisms())
def test_morphism_reader_matches_the_per_entry_loop(doc):
    want = outcome(reference_parse_morphism, copy.deepcopy(doc), ".", "/m")
    assert outcome(parse_morphism, doc, ".", "/m") == want
