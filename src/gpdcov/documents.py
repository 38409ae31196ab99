"""JSON document formats for groupoids, morphisms, actions and presheaves.

All documents are plain JSON objects with human-readable names; parsing
resolves names to dense ids and validation errors carry JSON paths.
Morphism documents may reference their source/target groupoids either
inline or by a file path relative to the document's own location.

Groupoid document:
    {"objects": ["x", ...],
     "arrows": [{"name": "f", "dom": "x", "cod": "y"}, ...],
     "compose": [["f", "h", "fh"], ...],        # f∘h = fh
     "inverse": {"f": "g", ...}}                 # optional, derivable

One-object shorthand (a group by its multiplication table):
    {"group_table": [["e", "a", ...], ...],
     "elements": ["e", "a", ...],                # optional
     "object": "*"}                              # optional

Morphism document:
    {"source": <path or inline groupoid>, "target": <path or inline>,
     "objects": {"x": "px", ...}, "arrows": {"f": "pf", ...}}

Action document:
    {"space": <path or inline>, "elements": [...], "group_table": [[...]],
     "maps": {"g": {"objects": {...}, "arrows": {...}}, ...}}

Presheaf document:
    {"base": <path or inline>, "sets": {"x": ["a", ...], ...},
     "maps": {"f": {"a": "b", ...}, ...}}
"""

from __future__ import annotations

import json
import os
from itertools import chain
from json.encoder import encode_basestring as _quote

from .construct import GroupAction
from .covering import (Covering, CoveringFailure, GroupoidMorphism,
                       _star_check)
from .groupoid import FiniteGroupoid, group_groupoid, validate
from .groups import FiniteGroup
from .topos import Presheaf


class DocumentError(ValueError):
    """Input/format error, carrying the JSON path of the offense."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _need(obj, key, path, kind=None):
    if not isinstance(obj, dict) or key not in obj:
        raise DocumentError(path, f"missing required key {key!r}")
    val = obj[key]
    if kind is not None and not isinstance(val, kind):
        raise DocumentError(f"{path}/{key}",
                            f"expected {kind.__name__}")
    return val


def _name(val, path, what) -> str:
    """A name in a document: a JSON scalar, read as its string."""
    if isinstance(val, (list, dict)):
        raise DocumentError(path, f"{what} name must be a scalar, not a "
                            "list or object")
    return str(val)


def parse_groupoid(doc, path: str = "") -> FiniteGroupoid:
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
    names, dom, cod = _arrow_table(_need(doc, "arrows", path, list),
                                   obj_index, path)
    if len(set(names)) != len(names):
        raise DocumentError(f"{path}/arrows", "arrow names must be unique")
    arr_index = {name: i for i, name in enumerate(names)}
    compose = _compose_table(_need(doc, "compose", path, list), arr_index,
                             path)
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
        inverse = _derive_inverses(dom, cod, identity, compose, names, path)
    g = FiniteGroupoid(len(objects), dom, cod, identity, compose, inverse,
                       obj_labels=objects,
                       arr_labels=names)
    report = validate(g)
    if not report.ok:
        first = report.violations[0]
        raise DocumentError(path or "/",
                            f"not a groupoid: {first.message}")
    return g


def _arrow_table(arrows, obj_index, path):
    """The names and the dom and cod ids of an arrow list.  When every
    entry is an object whose name is a str and whose ends are known
    object names, three comprehensions read it; else the per-entry loop
    reads it, and names the first offender."""
    if set(map(type, arrows)) == {dict}:
        try:
            names = [arr["name"] for arr in arrows]
            dom = [obj_index[arr["dom"]] for arr in arrows]
            cod = [obj_index[arr["cod"]] for arr in arrows]
        except (KeyError, TypeError):
            names = None
        if names is not None and set(map(type, names)) == {str}:
            return names, dom, cod
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
    return names, dom, cod


def _compose_table(rows, arr_index, path) -> dict:
    """The composition table of the compose rows, keyed by id pairs.
    When every row is a list of three known str names, one comprehension
    reads them; fewer entries than rows means a repeated pair.  In that
    case and on any other row the per-row loop reads them, and names the
    first offender.  (The list check keeps a three-character string or a
    three-key object from unpacking as three names.)"""
    if set(map(type, rows)) == {list}:
        try:
            compose = {(arr_index[f], arr_index[h]): arr_index[fh]
                       for f, h, fh in rows}
        except (KeyError, TypeError, ValueError):
            compose = None
        if compose is not None and len(compose) == len(rows):
            return compose
    compose = {}
    for i, entry in enumerate(rows):
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
    return compose


def _parse_group(doc, path) -> FiniteGroup:
    """The group of a ``group_table`` whose entries are element names or
    indices, named by the optional ``elements`` list; shared by the
    one-object shorthand and by action documents."""
    table = _need(doc, "group_table", path, list)
    n = len(table)
    elements = doc.get("elements")
    if elements is None:
        elements = [str(i) for i in range(n)]
    if not isinstance(elements, list):
        raise DocumentError(f"{path}/elements", "expected list")
    elements = [_name(e, f"{path}/elements/{i}", "element")
                for i, e in enumerate(elements)]
    if len(elements) != n or len(set(elements)) != n:
        raise DocumentError(f"{path}/elements",
                            "element names must be unique and match the "
                            "table size")
    index = {e: i for i, e in enumerate(elements)}
    int_table = []
    for i, row in enumerate(table):
        if not isinstance(row, list) or len(row) != n:
            raise DocumentError(f"{path}/group_table/{i}",
                                "table must be square")
        out = []
        for j, v in enumerate(row):
            key = str(v)
            if key in index:
                out.append(index[key])
            elif type(v) is int and 0 <= v < n:  # an index, not a bool
                out.append(v)
            else:
                raise DocumentError(f"{path}/group_table/{i}/{j}",
                                    f"unknown element {v!r}")
        int_table.append(out)
    try:
        return FiniteGroup(int_table, names=elements)
    except ValueError as exc:
        raise DocumentError(f"{path}/group_table", str(exc)) from None


def _derive_identities(n_objects, dom, cod, compose, path):
    identity = [None] * n_objects
    for a in range(len(dom)):
        if dom[a] == cod[a] and compose.get((a, a)) == a:
            x = dom[a]
            if identity[x] is not None and identity[x] != a:
                raise DocumentError(path or "/",
                                    f"two idempotent loops at object {x}")
            identity[x] = a
    for x, e in enumerate(identity):
        if e is None:
            raise DocumentError(path or "/",
                                f"object index {x} has no identity arrow")
    return identity


def _derive_inverses(dom, cod, identity, compose, names, path):
    """The inverse of each arrow a: the least b with a∘b = id(cod a) and
    b∘a = id(dom a), from one pass over the entries whose value is an
    identity."""
    inverse = [None] * len(dom)
    for (a, b), v in compose.items():
        if v == identity[cod[a]] and compose.get((b, a)) == identity[dom[a]] \
                and (inverse[a] is None or b < inverse[a]):
            inverse[a] = b
    if None in inverse:
        raise DocumentError(path or "/", f"arrow "
                            f"{names[inverse.index(None)]!r} has no inverse")
    return inverse


def emit_groupoid(g: FiniteGroupoid, labels=None) -> dict:
    objects, names = labels or _labels(g)
    compose, into, dom = g.compose, g._into, g.dom
    # Rows in (f, h) order without a sort: f ascending, then each h into
    # dom f ascending; distinct pairs, all of the entries if as many.
    try:
        rows = [[names[f], names[h], names[compose[f, h]]]
                for f in g.arrows for h in into[dom[f]]]
    except KeyError:
        rows = None
    if rows is None or len(rows) != len(compose):
        rows = [[names[f], names[h], names[v]]
                for (f, h), v in sorted(compose.items())]
    return {
        "objects": list(objects),
        "arrows": [{"name": names[a], "dom": objects[g.dom[a]],
                    "cod": objects[g.cod[a]]} for a in g.arrows],
        "compose": rows,
        "inverse": {names[a]: names[g.inverse[a]] for a in g.arrows},
    }


def _labels(g: FiniteGroupoid):
    return _unique_labels(g.obj_labels), _unique_labels(g.arr_labels)


def _index(g: FiniteGroupoid):
    """The ids of g's objects and of its arrows, by unique label."""
    return tuple({lbl: i for i, lbl in enumerate(labels)}
                 for labels in _labels(g))


def _unique_labels(labels):
    seen = {}
    out = []
    for lbl in labels:
        if lbl not in seen:
            seen[lbl] = 0
            out.append(lbl)
        else:
            seen[lbl] += 1
            out.append(f"{lbl}#{seen[lbl]}")
    return out


def _resolve(doc, key, path, base_dir, resolved=None):
    """The groupoid at ``doc[key]``: inline, or in a file relative to
    ``base_dir``.  ``resolved``, when given, keeps each file's groupoid by
    absolute path, so that the documents of one command share it; only a
    groupoid that parsed is kept."""
    val = _need(doc, key, path)
    if not isinstance(val, str):
        return parse_groupoid(val, f"{path}/{key}")
    fname = os.path.join(base_dir, val)  # val itself when absolute
    key_path = os.path.abspath(fname)
    if resolved is not None and key_path in resolved:
        return resolved[key_path]
    try:
        with open(fname, "r", encoding="utf-8") as fh:
            sub = json.load(fh)
    except OSError as exc:
        raise DocumentError(f"{path}/{key}",
                            f"cannot read {val!r}: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise DocumentError(f"{path}/{key}",
                            f"invalid JSON in {val!r}: {exc}") from None
    g = parse_groupoid(sub, f"{path}/{key}")
    if resolved is not None:
        resolved[key_path] = g
    return g


def parse_morphism(doc, base_dir: str = ".", path: str = "",
                   resolved=None) -> GroupoidMorphism:
    source = _resolve(doc, "source", path, base_dir, resolved)
    target = _resolve(doc, "target", path, base_dir, resolved)
    obj_doc = _need(doc, "objects", path, dict)
    arr_doc = _need(doc, "arrows", path, dict)
    (src_obj, src_arr), (dst_obj, dst_arr) = _index(source), _index(target)
    m = GroupoidMorphism(
        source, target,
        _map_ids(obj_doc, src_obj, dst_obj, source.obj_labels,
                 f"{path}/objects", "object"),
        _map_ids(arr_doc, src_arr, dst_arr, source.arr_labels,
                 f"{path}/arrows", "arrow"))
    bad = m.functoriality_violations()
    if bad:
        raise DocumentError(path or "/",
                            f"morphism is not functorial: {bad[0]}")
    return m


def _map_ids(doc, src, dst, labels, path, what) -> list:
    """The target id of each source id under a name-to-name map document,
    with ``src`` and ``dst`` the ids by unique label and ``labels`` the
    source labels.  When every name is a known str and every source id has
    an image, one comprehension reads the map; else the per-entry loop
    reads it, and names the first offender."""
    try:
        image = {src[name]: dst[img] for name, img in doc.items()}
        return [image[i] for i in range(len(labels))]
    except (KeyError, TypeError):
        pass
    ids = [None] * len(labels)
    for name, img in doc.items():
        if str(name) not in src:
            raise DocumentError(path, f"unknown source {what} {name!r}")
        if str(img) not in dst:
            raise DocumentError(f"{path}/{name}",
                                f"unknown target {what} {img!r}")
        ids[src[str(name)]] = dst[str(img)]
    if None in ids:
        raise DocumentError(path, f"missing image of {what} "
                            f"{labels[ids.index(None)]!r}")
    return ids


def morphism_maps(m: GroupoidMorphism, src=None, dst=None) -> dict:
    """The object and arrow maps of m by unique label; ``src`` and ``dst``
    are the (object, arrow) labels of its source and target, computed
    here when not given."""
    src_o, src_a = src or _labels(m.source)
    dst_o, dst_a = dst or _labels(m.target)
    return {"objects": {src_o[x]: dst_o[y] for x, y in enumerate(m.obj_map)},
            "arrows": {src_a[a]: dst_a[b] for a, b in enumerate(m.arr_map)}}


def emit_morphism(m: GroupoidMorphism, marked=None) -> dict:
    """The document of m, marked at source object ``marked`` if given."""
    src, dst = _labels(m.source), _labels(m.target)
    doc = {"source": emit_groupoid(m.source, src),
           "target": emit_groupoid(m.target, dst),
           **morphism_maps(m, src, dst)}
    if marked is not None:
        doc["marked_object"] = src[0][marked]
    return doc


def emit_covering(cov: Covering) -> dict:
    return emit_morphism(cov.morphism, cov.marked_object)


def parse_action(doc, base_dir: str = ".", path: str = "", resolved=None):
    space = _resolve(doc, "space", path, base_dir, resolved)
    group = _parse_group(doc, path)
    maps = _need(doc, "maps", path, dict)
    sp_obj, sp_arr = _index(space)
    obj_maps, arr_maps = [], []
    for name in group.names:
        mpath = f"{path}/maps/{name}"
        if name not in maps:
            raise DocumentError(f"{path}/maps",
                                f"missing map for element {name!r}")
        entry = maps[name]
        obj_doc = _need(entry, "objects", mpath, dict)
        arr_doc = _need(entry, "arrows", mpath, dict)
        obj_row = [None] * space.n_objects
        for src, dst in obj_doc.items():
            if str(src) not in sp_obj or str(dst) not in sp_obj:
                raise DocumentError(f"{mpath}/objects",
                                    f"unknown object in {src!r} -> "
                                    f"{dst!r}")
            obj_row[sp_obj[str(src)]] = sp_obj[str(dst)]
        arr_row = [None] * space.n_arrows
        for src, dst in arr_doc.items():
            if str(src) not in sp_arr or str(dst) not in sp_arr:
                raise DocumentError(f"{mpath}/arrows",
                                    f"unknown arrow in {src!r} -> {dst!r}")
            arr_row[sp_arr[str(src)]] = sp_arr[str(dst)]
        if any(v is None for v in obj_row) or any(v is None
                                                  for v in arr_row):
            raise DocumentError(mpath, "maps must be total")
        obj_maps.append(obj_row)
        arr_maps.append(arr_row)
    try:
        return GroupAction(group, space, obj_maps, arr_maps)
    except ValueError as exc:
        raise DocumentError(path or "/", str(exc)) from None


def parse_presheaf(doc, base_dir: str = ".", path: str = "",
                   resolved=None) -> Presheaf:
    base = _resolve(doc, "base", path, base_dir, resolved)
    sets_doc = _need(doc, "sets", path, dict)
    maps_doc = _need(doc, "maps", path, dict)
    obj_index, arr_index = _index(base)
    sets = [()] * base.n_objects
    for name, elems in sets_doc.items():
        if str(name) not in obj_index:
            raise DocumentError(f"{path}/sets",
                                f"unknown base object {name!r}")
        if not isinstance(elems, list):
            raise DocumentError(f"{path}/sets/{name}", "expected list")
        sets[obj_index[str(name)]] = tuple(str(e) for e in elems)
    maps = {}
    for name, table in maps_doc.items():
        if str(name) not in arr_index:
            raise DocumentError(f"{path}/maps",
                                f"unknown base arrow {name!r}")
        if not isinstance(table, dict):
            raise DocumentError(f"{path}/maps/{name}", "expected object")
        maps[arr_index[str(name)]] = {str(k): str(v)
                                      for k, v in table.items()}
    ps = Presheaf(base, sets, maps)
    try:
        ps.validate()
    except ValueError as exc:
        raise DocumentError(path or "/", str(exc)) from None
    return ps


def emit_presheaf(ps: Presheaf) -> dict:
    obj, arr = labels = _labels(ps.base)
    return {
        "base": emit_groupoid(ps.base, labels),
        "sets": {obj[x]: [str(v) for v in ps.sets[x]]
                 for x in ps.base.objects},
        "maps": {arr[a]: {str(k): str(v) for k, v in ps.maps[a].items()}
                 for a in ps.base.arrows},
    }


def _read(fname: str):
    """The JSON document in a file, parsed once, and the file's directory
    (against which the document's relative paths resolve)."""
    with open(fname, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise DocumentError("/", f"invalid JSON: {exc}") from None
    return doc, os.path.dirname(os.path.abspath(fname))


def load_groupoid(fname: str) -> FiniteGroupoid:
    return parse_groupoid(_read(fname)[0])


def load_morphism(fname: str, resolved=None) -> GroupoidMorphism:
    doc, base_dir = _read(fname)
    return parse_morphism(doc, base_dir, resolved=resolved)


def load_covering(fname: str, resolved=None) -> Covering:
    """A morphism document that must be a covering, marked at its optional
    ``marked_object``.  :func:`parse_morphism` has checked functoriality,
    so only the star maps are checked here."""
    doc, base_dir = _read(fname)
    m = parse_morphism(doc, base_dir, resolved=resolved)
    marked = doc.get("marked_object")
    if marked is not None:
        labels = _unique_labels(m.source.obj_labels)
        if str(marked) not in labels:
            raise DocumentError("/marked_object",
                                f"unknown object {marked!r}")
        marked = labels.index(str(marked))
    out = _star_check(m, marked)
    if isinstance(out, CoveringFailure):
        raise ValueError(out.message)
    return out


def load_action(fname: str, resolved=None):
    doc, base_dir = _read(fname)
    return parse_action(doc, base_dir, resolved=resolved)


def load_presheaf(fname: str, resolved=None) -> Presheaf:
    doc, base_dir = _read(fname)
    return parse_presheaf(doc, base_dir, resolved=resolved)


def dumps(doc) -> str:
    """Canonical serialization: sorted keys, two-space indent, one
    trailing newline, LF endings: ``json.dumps(doc, sort_keys=True,
    indent=2, ensure_ascii=False) + "\\n"`` exactly, TypeErrors included,
    in time linear in the output.  A str-to-str dict, and a list of
    strings, of equal-length rows of strings or of str-valued dicts with
    one key set, is one ``%`` format over its leaves.  Documents are
    trees: no cycle check."""
    return _encode(doc, "\n") + "\n"


def _encode(v, nl):
    """The JSON text of v; ``nl`` is a newline plus v's indent."""
    if isinstance(v, str):
        return _quote(v)
    if not isinstance(v, (list, tuple, dict)):
        return json.dumps(v)  # a number, bool or None; else TypeError
    if not v:
        return "{}" if isinstance(v, dict) else "[]"
    inner, leaves = nl + "  ", None
    sep, cells = "," + inner, f",{inner}  ".join
    if isinstance(v, dict):
        v = sorted(v.items())
        ends, leaves, row = "{}", list(chain.from_iterable(v)), "%s: %s"
    else:
        ends, kinds = "[]", set(map(type, v))
        if kinds == {str}:
            leaves, row = v, "%s"
        elif kinds <= {list, tuple} and len(set(map(len, v))) == 1:
            leaves = list(chain.from_iterable(v))
            row = "[" + inner + "  " + cells(["%s"] * len(v[0])) + inner + "]"
        elif kinds == {dict} and len(set(map(tuple, v))) == 1 \
                and set(map(type, v[0])) == {str}:
            keys = sorted(v[0])
            leaves = [d[k] for d in v for k in keys]
            cell = [_quote(k).replace("%", "%%") + ": %s" for k in keys]
            row = "{" + inner + "  " + cells(cell) + inner + "}"
    if leaves is not None and set(map(type, leaves)) == {str}:
        quoted = {s: _quote(s) for s in set(leaves)}  # names repeat
        body = sep.join([row] * len(v)) % tuple(map(quoted.get, leaves))
    elif ends == "{}":
        body = sep.join([_key(k) + ": " + _encode(x, inner) for k, x in v])
    else:
        body = sep.join([_encode(x, inner) for x in v])
    return ends[0] + inner + body + nl + ends[1]


def _key(k) -> str:
    if isinstance(k, (str, int, float)) or k is None:
        return _quote(k if isinstance(k, str) else json.dumps(k))
    raise TypeError("keys must be str, int, float, bool or None, not "
                    f"{type(k).__name__}")
