"""Command-line surface over the whole library.

Every subcommand reads JSON documents (see :mod:`gpdcov.documents`),
writes canonical JSON (or DOT for ``lattice --dot``) to stdout unless
``--out`` is given, and uses a fixed exit-code taxonomy:

    0  success
    1  mathematical negative (not a covering, not regular, not
       equivalent, no lift) — a report is still written
    2  input or format error
    3  internal verification failure: a theorem check failed, which is
       always a bug in this package

Output is byte-deterministic for identical input: sorted keys, two-space
indent, LF line endings, no timestamps.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import documents as docs
from .covering import (Covering, _star_check, equivalent_coverings, fiber,
                       fold, is_connected, lift_arrow, lift_morphism,
                       monodromy)
from .classify import (build_lattice, pullback_covering, pushout_covering)
from .construct import (covering_from_subgroup, orbit_groupoid,
                        universal_cover)
from .errors import TheoremViolation
from .groupoid import components, star, validate, vertex_group
from .topos import (adjunction_check, characteristic_morphism, classifies,
                    covering_to_presheaf, exponential, omega,
                    presheaf_to_covering, subobjects)
from .transform import (cov_normalizer_iso, covering_transformations,
                        is_regular)


class MathematicalNegative(Exception):
    """Carries the report payload for exit code 1."""

    def __init__(self, payload):
        self.payload = payload
        super().__init__("negative result")


def _labels(seq):
    return docs._unique_labels(seq)


def _obj_index(g, name, flag):
    labels = _labels(g.obj_labels)
    if name is None:
        return 0
    if name not in labels:
        raise docs.DocumentError(flag, f"unknown object {name!r}")
    return labels.index(name)


def _arr_index(g, name, flag):
    labels = _labels(g.arr_labels)
    if name not in labels:
        raise docs.DocumentError(flag, f"unknown arrow {name!r}")
    return labels.index(name)


# -- subcommand handlers ------------------------------------------------------

def cmd_validate(args):
    g = docs.load_groupoid(args.groupoid)
    report = validate(g)
    return {
        "valid": report.ok,
        "violations": [{"kind": v.kind, "ids": list(v.ids),
                        "message": v.message}
                       for v in report.violations],
    }


def cmd_star(args):
    g = docs.load_groupoid(args.groupoid)
    st = star(g, _obj_index(g, args.object, "--object"))
    labels = _labels(g.arr_labels)
    return {"object": _labels(g.obj_labels)[st.at],
            "arrows": [labels[a] for a in st.arrows]}


def cmd_components(args):
    g = docs.load_groupoid(args.groupoid)
    labels = _labels(g.obj_labels)
    return {"components": [[labels[x] for x in blk]
                           for blk in components(g).blocks]}


def cmd_vertex_group(args):
    g = docs.load_groupoid(args.groupoid)
    vg = vertex_group(g, _obj_index(g, args.object, "--object"))
    return {"object": _labels(g.obj_labels)[vg.at],
            "elements": list(vg.names),
            "table": [[vg.names[vg.mult(a, b)] for b in range(vg.order)]
                      for a in range(vg.order)]}


def cmd_check_cover(args):
    m = docs.load_morphism(args.morphism, args.resolved)
    out = _star_check(m)  # load_morphism has checked functoriality
    if not isinstance(out, Covering):
        labels = _labels(m.source.obj_labels)
        raise MathematicalNegative({
            "covering": False,
            "object": labels[out.at_object],
            "star_sizes": [out.total_star_size, out.base_star_size],
            "reason": out.message,
        })
    payload = {"covering": True}
    if is_connected(out.base) and out.total.n_objects:
        payload["fold"] = fold(out)
    else:
        payload["fold"] = None
    return payload


def cmd_fiber(args):
    cov = docs.load_covering(args.covering, args.resolved)
    fb = fiber(cov, _obj_index(cov.base, args.object, "--object"))
    tot_o = _labels(cov.total.obj_labels)
    tot_a = _labels(cov.total.arr_labels)
    return {"over": _labels(cov.base.obj_labels)[fb.over],
            "objects": [tot_o[x] for x in fb.objects],
            "arrows": [tot_a[a] for a in fb.arrows],
            "groupoid": docs.emit_groupoid(fb.groupoid)}


def cmd_lift_arrow(args):
    cov = docs.load_covering(args.covering, args.resolved)
    a = _arr_index(cov.base, args.arrow, "--arrow")
    at = _obj_index(cov.total, args.at, "--at")
    if cov.morphism.obj_map[at] != cov.base.cod[a]:
        raise docs.DocumentError(
            "--at", "object does not lie over the arrow's codomain")
    lifted = lift_arrow(cov, a, at)
    return {"arrow": args.arrow, "at": args.at,
            "lift": _labels(cov.total.arr_labels)[lifted]}


def cmd_lift_morphism(args):
    cov = docs.load_covering(args.covering, args.resolved)
    f = docs.load_morphism(args.morphism, args.resolved)
    if f.target != cov.base:
        raise docs.DocumentError(
            "--morphism", "morphism target differs from the covering base")
    f0 = _obj_index(f.source, args.source_object, "--source-object")
    seed = _obj_index(cov.total, args.target_object, "--target-object")
    lifted = lift_morphism(cov, f, f0, seed)
    if lifted is None:
        raise MathematicalNegative({
            "lift": None,
            "reason": "loop images do not land in the pushforward "
                      "vertex group at the seed"})
    return {"lift": docs.morphism_maps(lifted)}


def cmd_fold(args):
    cov = docs.load_covering(args.covering, args.resolved)
    return {"fold": fold(cov)}


def cmd_monodromy(args):
    cov = docs.load_covering(args.covering, args.resolved)
    act = monodromy(cov, _obj_index(cov.base, args.object, "--object"))
    tot = _labels(cov.total.obj_labels)
    return {
        "object": _labels(cov.base.obj_labels)[act.base_object],
        "group": list(act.group.names),
        "carrier": [tot[x] for x in act.carrier],
        "action": {tot[x]: {act.group.names[k]: tot[act.act(x, k)]
                            for k in range(act.group.order)}
                   for x in act.carrier},
        "transitive": act.is_transitive(),
        "stabilizers": {tot[x]: [act.group.names[k]
                                 for k in act.stabilizer(x).elements]
                        for x in act.carrier},
    }


def _subgroup_from_names(g, g0, names_csv):
    vg = vertex_group(g, g0)
    if not names_csv:
        return vg.trivial_subgroup()
    gens = []
    for name in names_csv.split(","):
        name = name.strip()
        if name:
            try:
                gens.append(vg.index_of_name(name))
            except ValueError:
                raise docs.DocumentError(
                    "--subgroup", f"unknown loop arrow {name!r}")
    return vg.generated_subgroup(gens)


def cmd_build_cover(args):
    g = docs.load_groupoid(args.groupoid)
    g0 = _obj_index(g, args.object, "--object")
    sub = _subgroup_from_names(g, g0, args.subgroup)
    cov = covering_from_subgroup(g, g0, sub)
    return docs.emit_covering(cov)


def cmd_universal(args):
    g = docs.load_groupoid(args.groupoid)
    cov = universal_cover(g, _obj_index(g, args.object, "--object"))
    return docs.emit_covering(cov)


def cmd_orbit(args):
    orb = orbit_groupoid(docs.load_action(args.action, args.resolved))
    return docs.emit_covering(orb.covering)


def cmd_cov_group(args):
    cov = docs.load_covering(args.covering, args.resolved)
    grp = covering_transformations(cov)
    labels = docs._labels(cov.total)  # every transformation's both ends
    return {
        "order": grp.order,
        "elements": list(grp.group.names),
        "table": [[grp.group.names[grp.group.mult(i, j)]
                   for j in range(grp.order)] for i in range(grp.order)],
        "transformations": {
            grp.group.names[i]: docs.morphism_maps(t, labels, labels)
            for i, t in enumerate(grp.transformations)},
    }


def cmd_regular(args):
    cov = docs.load_covering(args.covering, args.resolved)
    reg = is_regular(cov)
    if not reg:
        raise MathematicalNegative({"regular": False})
    return {"regular": True}


def cmd_normalizer_iso(args):
    cov = docs.load_covering(args.covering, args.resolved)
    at = (_obj_index(cov.total, args.object, "--object")
          if args.object is not None else cov.mark)
    ni = cov_normalizer_iso(cov, at)
    vg_names = ni.pushforward.parent.names
    return {
        "at": _labels(cov.total.obj_labels)[ni.at],
        "pushforward": [vg_names[k] for k in ni.pushforward.elements],
        "normalizer": [vg_names[k] for k in ni.normalizer.elements],
        "quotient_order": ni.quotient.order,
        "iso": {ni.quotient.names[i]: ni.cov.group.names[t]
                for i, t in enumerate(ni.mapping)},
    }


def cmd_equiv(args):
    p = docs.load_covering(args.first, args.resolved)
    q = docs.load_covering(args.second, args.resolved)
    pair = equivalent_coverings(p, q, fixed_base=args.fixed_base)
    if pair is None:
        raise MathematicalNegative({"equivalent": False})
    return {"equivalent": True,
            "phi": docs.morphism_maps(pair.phi),
            "psi": docs.morphism_maps(pair.psi)}


def cmd_pullback(args):
    cov = docs.load_covering(args.covering, args.resolved)
    f = docs.load_morphism(args.along, args.resolved)
    if f.target != cov.base:
        raise docs.DocumentError(
            "--along", "morphism target differs from the covering base")
    pb = pullback_covering(cov, f)
    return {"covering": docs.emit_covering(pb.covering),
            "to_total": docs.morphism_maps(pb.to_total)}


def cmd_pushout(args):
    p = docs.load_covering(args.first, args.resolved)
    q = docs.load_covering(args.second, args.resolved)
    result = pushout_covering(p, q)
    return {"orbit_morphism": docs.emit_covering(result.orbit_covering),
            "leg_first": docs.morphism_maps(result.leg_first),
            "leg_second": docs.morphism_maps(result.leg_second)}


def _lattice_payload(lat):
    gamma = lat.cov_group.group
    nodes = []
    for n in lat.nodes:
        nodes.append({
            "subgroup": [gamma.names[k] for k in n.subgroup.elements],
            "order": n.subgroup.order,
            "fold": n.fold,
            "regular": n.regular,
        })
    k = len(lat.nodes)
    return {
        "nodes": nodes,
        "subgroup_order": [[i, j] for i in range(k) for j in range(k)
                           if i != j and lat.subgroup_leq(i, j)],
        "covering_order": [[i, j] for i in range(k) for j in range(k)
                           if i != j and lat.covering_leq(i, j)],
        "meet": [[lat.meet(i, j) for j in range(k)] for i in range(k)],
        "join": [[lat.join(i, j) for j in range(k)] for i in range(k)],
    }


def _lattice_dot(lat):
    k = len(lat.nodes)
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for i, n in enumerate(lat.nodes):
        flag = "+" if n.regular else "-"
        lines.append(f'  n{i} [label="fold={n.fold}, regular={flag}"];')
    for i in range(k):
        for j in range(k):
            if i == j or not lat.subgroup_leq(i, j):
                continue
            skipped = any(h != i and h != j and lat.subgroup_leq(i, h)
                          and lat.subgroup_leq(h, j) for h in range(k))
            if not skipped:
                lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_lattice(args):
    g = docs.load_groupoid(args.groupoid)
    lat = build_lattice(g, _obj_index(g, args.object, "--object"))
    if args.dot:
        return _lattice_dot(lat)
    return _lattice_payload(lat)


def cmd_omega(args):
    g = docs.load_groupoid(args.groupoid)
    om = omega(g)
    payload = docs.emit_covering(om.covering)
    labels = _labels(om.covering.total.obj_labels)
    payload["true_objects"] = [labels[x] for x in om.true_objects]
    payload["false_objects"] = [labels[x] for x in om.false_objects]
    return payload


def cmd_char(args):
    cov = docs.load_covering(args.covering, args.resolved)
    s = docs.load_morphism(args.sub, args.resolved)
    if s.target != cov.total:
        raise docs.DocumentError(
            "--sub", "subobject must map into the covering's total "
            "groupoid")
    om = omega(cov.base)
    phi = characteristic_morphism(cov, s, om)
    if not classifies(cov, s, phi, om):
        raise TheoremViolation("characteristic morphism does not form a "
                               "pullback")
    return {"classifier": docs.emit_covering(om.covering),
            "phi": docs.morphism_maps(phi)}


def cmd_subobjects(args):
    cov = docs.load_covering(args.covering, args.resolved)
    lattice = subobjects(cov)
    labels = _labels(cov.total.obj_labels)
    return {
        "components": [[labels[x] for x in blk]
                       for blk in lattice.component_blocks],
        "count": len(lattice.nodes),
        "subobjects": [sorted(node) for node in lattice.nodes],
    }


def cmd_expo(args):
    p = docs.load_covering(args.first, args.resolved)
    q = docs.load_covering(args.second, args.resolved)
    ex = exponential(p, q)
    return docs.emit_covering(ex.covering)


def cmd_adjunction(args):
    r = docs.load_covering(args.first, args.resolved)
    p = docs.load_covering(args.second, args.resolved)
    q = docs.load_covering(args.third, args.resolved)
    w = adjunction_check(r, p, q)
    return {"product_hom_count": len(w.lhs),
            "exponential_hom_count": len(w.rhs),
            "bijection": True}


def cmd_to_presheaf(args):
    cov = docs.load_covering(args.covering, args.resolved)
    return docs.emit_presheaf(covering_to_presheaf(cov))


def cmd_from_presheaf(args):
    ps = docs.load_presheaf(args.presheaf, args.resolved)
    return docs.emit_covering(presheaf_to_covering(ps))


def cmd_selftest(args):
    from .selftest import run_acceptance
    lines = []
    ok = run_acceptance(write=lines.append)
    text = "\n".join(lines) + "\n"
    if not ok:
        sys.stderr.write(text)
        return ExitText(3, "")
    return ExitText(0, text)


class ExitText:
    def __init__(self, code, text):
        self.code = code
        self.text = text


# -- argument parsing ---------------------------------------------------------

@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="gpdcov",
        description="Finite groupoids, covering projections and their "
                    "classification lattice.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, *specs, **kw):
        p = sub.add_parser(name, **kw)
        for spec in specs:
            flags, opts = spec
            p.add_argument(*flags, **opts)
        p.add_argument("--out", help="write output to a file instead of "
                                     "stdout")
        p.set_defaults(fn=fn)
        return p

    gpd = (("groupoid",), {"help": "groupoid JSON document"})
    cover = (("covering",), {"help": "covering morphism JSON document"})
    objopt = (("--object",), {"help": "object name (default: first)"})

    add("validate", cmd_validate, gpd,
        help="check the category and groupoid laws")
    add("star", cmd_star, gpd, (("--object",), {"required": True}),
        help="arrows into an object")
    add("components", cmd_components, gpd,
        help="connected components")
    add("vertex-group", cmd_vertex_group, gpd, objopt,
        help="loop group at an object")
    add("check-cover", cmd_check_cover,
        (("morphism",), {"help": "morphism JSON document"}),
        help="decide the covering property")
    add("fiber", cmd_fiber, cover, (("--object",), {"required": True}),
        help="fiber over a base object")
    add("lift-arrow", cmd_lift_arrow, cover,
        (("--arrow",), {"required": True}),
        (("--at",), {"required": True, "help": "total object name"}),
        help="unique arrow lift")
    add("lift-morphism", cmd_lift_morphism, cover,
        (("--morphism",), {"required": True}),
        (("--source-object",), {"required": True}),
        (("--target-object",), {"required": True}),
        help="unique morphism lift through the covering")
    add("fold", cmd_fold, cover, help="fiber cardinality")
    add("monodromy", cmd_monodromy, cover, objopt,
        help="right action of the vertex group on a fiber")
    add("build-cover", cmd_build_cover, gpd, objopt,
        (("--subgroup",), {"default": "",
                           "help": "comma-separated loop generators "
                                   "(empty = trivial subgroup)"}),
        help="covering realizing a vertex subgroup")
    add("universal", cmd_universal, gpd, objopt,
        help="universal covering")
    add("orbit", cmd_orbit,
        (("--action",), {"required": True,
                         "help": "group action JSON document"}),
        help="orbit groupoid of a free action")
    add("cov-group", cmd_cov_group, cover,
        help="covering transformation group")
    add("regular", cmd_regular, cover, help="regularity check")
    add("normalizer-iso", cmd_normalizer_iso, cover, objopt,
        help="normalizer quotient versus covering transformations")
    add("equiv", cmd_equiv,
        (("first",), {}), (("second",), {}),
        (("--fixed-base",), {"action": "store_true"}),
        help="equivalence of coverings")
    add("pullback", cmd_pullback, cover,
        (("--along",), {"required": True}),
        help="pullback covering along a morphism")
    add("pushout", cmd_pushout, (("first",), {}), (("second",), {}),
        help="pushout of two orbit morphisms")
    add("lattice", cmd_lattice, gpd, objopt,
        (("--dot",), {"action": "store_true"}),
        help="classification lattice (JSON or DOT)")
    add("omega", cmd_omega, gpd, help="subobject classifier covering")
    add("char", cmd_char, cover, (("--sub",), {"required": True}),
        help="characteristic morphism of a subcovering")
    add("subobjects", cmd_subobjects, cover,
        help="subobject lattice (component power set)")
    add("expo", cmd_expo, (("first",), {}), (("second",), {}),
        help="exponential covering first^second")
    add("adjunction", cmd_adjunction,
        (("first",), {}), (("second",), {}), (("third",), {}),
        help="verify the product/exponential hom bijection")
    add("to-presheaf", cmd_to_presheaf, cover,
        help="fiber presheaf of a covering")
    add("from-presheaf", cmd_from_presheaf,
        (("presheaf",), {"help": "presheaf JSON document"}),
        help="covering of elements of a presheaf")
    add("selftest", cmd_selftest, help="run the acceptance suite")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The groupoids of this command's documents by absolute path: a base
    # file that several documents name is read and checked once.
    args.resolved = {}
    try:
        result = args.fn(args)
    except MathematicalNegative as neg:
        result = ExitText(1, docs.dumps(neg.payload))
    except docs.DocumentError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except TheoremViolation as exc:
        sys.stderr.write(f"verification failure (library bug): {exc}\n")
        return 3
    if not isinstance(result, ExitText):
        result = ExitText(0, result if isinstance(result, str)
                          else docs.dumps(result))
    if result.text and args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(result.text)
        except OSError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2
    elif result.text:
        sys.stdout.write(result.text)
    return result.code


if __name__ == "__main__":
    sys.exit(main())
