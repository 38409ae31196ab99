"""Topos structure of the category of coverings of a fixed groupoid.

Coverings of G are the same thing as contravariant set-valued functors on
G: a covering yields the presheaf of fiber-object sets with the transport
bijections, and a presheaf rebuilds a covering out of its elements.  Under
this dictionary the subobject classifier is the two-copy covering
G ⊔ G -> G (first copy designated "true"), subobjects of a covering are
exactly the unions of its connected components (a Boolean algebra), and
the exponential of two coverings has, over each object, the set of all
maps between the fiber-object sets, with loops acting by
(α·g)(x) = α(x·g⁻¹)·g.

The coverings built here (the classifier, the exponential and the
covering of elements of a presheaf) are given by their lifts: the fiber
objects, and for each base arrow g and total object c over cod g the
domain of the lift of g into c.  From these,
:func:`gpdcov.covering.covering_of_lifts` derives identities, inverses
and composition by unique lifting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import TheoremViolation
from .classify import fibered_product
from .covering import (Covering, GroupoidMorphism, components,
                       compose_morphisms, covering_morphisms,
                       covering_of_lifts, transports, verified_covering)
from .groupoid import FiniteGroupoid, component_subgroupoid


@dataclass(frozen=True)
class Omega:
    """The subobject classifier: the fold projection from two copies of
    the base, with the two injections (first = "true")."""
    covering: Covering
    true: GroupoidMorphism    # base -> base ⊔ base, first copy
    false: GroupoidMorphism   # second copy
    true_objects: tuple
    false_objects: tuple


def omega(g: FiniteGroupoid) -> Omega:
    no, na = g.n_objects, g.n_arrows
    # the true copy keeps the ids of g; the false copy shifts them
    cov = covering_of_lifts(
        g, tuple(g.objects) * 2,
        [(a, g.dom[a] + s, g.cod[a] + s) for s in (0, no) for a in g.arrows],
        tuple(lbl + t for t in (":t", ":f") for lbl in g.obj_labels),
        tuple(lbl + t for t in (":t", ":f") for lbl in g.arr_labels),
        "classifier")
    two = cov.total
    true = GroupoidMorphism(g, two, tuple(g.objects), tuple(g.arrows))
    false = GroupoidMorphism(g, two,
                             tuple(x + no for x in g.objects),
                             tuple(a + na for a in g.arrows))
    return Omega(covering=cov, true=true, false=false,
                 true_objects=tuple(range(no)),
                 false_objects=tuple(range(no, 2 * no)))


def is_monic(s: GroupoidMorphism) -> bool:
    """Monomorphisms between coverings are exactly the injective
    morphisms (componentwise isomorphisms onto their images)."""
    return (len(set(s.obj_map)) == s.source.n_objects
            and len(set(s.arr_map)) == s.source.n_arrows)


def characteristic_morphism(q: Covering, s: GroupoidMorphism,
                            om: Omega = None) -> GroupoidMorphism:
    """The classifying morphism total(q) -> total(Ω) of a monic s into
    total(q): components meeting the image pass through the true copy,
    the rest through the false copy."""
    if s.target != q.total:
        raise ValueError("subobject must map into the covering's total")
    if not s.is_functorial():
        raise ValueError("subobject inclusion is not functorial")
    if not is_monic(s):
        raise ValueError("subobject inclusion is not monic")
    if om is None:
        om = omega(q.base)
    parts = components(q.total)
    hit = {parts.block_index(s.obj_map[x]) for x in s.source.objects}
    no, na = q.base.n_objects, q.base.n_arrows
    obj_map = []
    for x in q.total.objects:
        b = q.morphism.obj_map[x]
        obj_map.append(b if parts.block_index(x) in hit else b + no)
    arr_map = []
    for a in q.total.arrows:
        b = q.morphism.arr_map[a]
        blk = parts.block_index(q.total.cod[a])
        arr_map.append(b if blk in hit else b + na)
    phi = GroupoidMorphism(q.total, om.covering.total, obj_map, arr_map)
    bad = phi.functoriality_violations()
    if bad:
        raise TheoremViolation(f"characteristic morphism is not "
                               f"functorial: {bad[0]}")
    return phi


def classifies(q: Covering, s: GroupoidMorphism, phi: GroupoidMorphism,
               om: Omega = None) -> bool:
    """Whether the square of phi against true is a pullback for the monic
    s, i.e. the true-side of phi is exactly the image of s."""
    if om is None:
        om = omega(q.base)
    no = q.base.n_objects
    true_side_objs = {x for x in q.total.objects if phi.obj_map[x] < no}
    image_objs = {s.obj_map[x] for x in s.source.objects}
    if true_side_objs != image_objs:
        return False
    na = q.base.n_arrows
    true_side_arrs = {a for a in q.total.arrows if phi.arr_map[a] < na}
    image_arrs = {s.arr_map[a] for a in s.source.arrows}
    if true_side_arrs != image_arrs:
        return False
    # commuting: phi ∘ s = true ∘ (q ∘ s)
    lhs = compose_morphisms(phi, s)
    rhs = compose_morphisms(om.true,
                            compose_morphisms(q.morphism, s))
    return lhs == rhs


@dataclass(frozen=True)
class SubobjectLattice:
    """Sub(H) for a covering H: one node per set of connected components,
    i.e. the power set of π0(total)."""
    covering: Covering
    component_blocks: tuple
    nodes: tuple  # frozensets of component indices, canonical order

    def union(self, a: frozenset, b: frozenset) -> frozenset:
        return a | b

    def intersect(self, a: frozenset, b: frozenset) -> frozenset:
        return a & b

    def complement(self, a: frozenset) -> frozenset:
        return frozenset(range(len(self.component_blocks))) - a

    def as_subcovering(self, node: frozenset):
        """The inclusion of the union of chosen components, as a monic
        over the base."""
        total = self.covering.total
        objs = sorted(
            x for i in node for x in self.component_blocks[i])
        sub, obj_ids, arr_ids = component_subgroupoid(total, objs)
        incl = GroupoidMorphism(sub, total, obj_ids, arr_ids)
        cov = verified_covering(
            compose_morphisms(self.covering.morphism, incl), "component union")
        return cov, incl


def subobjects(h: Covering) -> SubobjectLattice:
    blocks = components(h.total).blocks
    k = len(blocks)
    nodes = []
    for size in range(k + 1):
        for combo in itertools.combinations(range(k), size):
            nodes.append(frozenset(combo))
    return SubobjectLattice(covering=h, component_blocks=blocks,
                            nodes=tuple(nodes))


@dataclass(frozen=True)
class ExponentialCovering:
    """The exponential first^second: over each base object, the maps from
    the second covering's fiber objects to the first's.

    ``objects[i]`` is (base object, assignment tuple) where the
    assignment lists, per fiber object of the exponent (in fiber order),
    the chosen fiber object of the first covering.  ``arrows[i]`` is
    (base arrow, codomain exponential object id).
    """
    covering: Covering
    first: Covering
    second: Covering
    objects: tuple
    arrows: tuple
    _index: dict

    def object_for(self, base_obj: int, assignment: tuple) -> int:
        return self._index[(base_obj, tuple(assignment))]

    def assignment(self, obj: int) -> tuple:
        return self.objects[obj][1]

    def over(self, obj: int) -> int:
        return self.objects[obj][0]


def _arrows_into(base: FiniteGroupoid, objects, pull):
    """The arrows of a covering of elements, for :func:`covering_of_lifts`:
    one (g, pull(g, i), i) per base arrow g and total object i = (c, ...)
    over cod g, ordered by (g, i).  ``pull(g, i)`` is the domain of the
    lift of g into i."""
    over_cod = [[] for _ in base.objects]
    for i, (c, _) in enumerate(objects):
        over_cod[c].append(i)
    return [(g, pull(g, i), i)
            for g in base.arrows for i in over_cod[base.cod[g]]]


def exponential(p: Covering, q: Covering) -> ExponentialCovering:
    """The covering whose fiber over each base object is the full set of
    maps Ob(fiber of q) -> Ob(fiber of p), with arrows transporting maps
    through both coverings' fiber transports."""
    if p.base != q.base:
        raise ValueError("coverings must share a base")
    base = p.base
    p_fibers, q_fibers = p.fibers, q.fibers
    objects = []
    for c in base.objects:
        for assignment in itertools.product(p_fibers[c],
                                            repeat=len(q_fibers[c])):
            objects.append((c, assignment))
    index = {key: i for i, key in enumerate(objects)}
    # Per base arrow g: the position over cod g of q's transport along g⁻¹
    # of each point over dom g, and p's transport along g.
    p_moves, q_moves, moves = transports(p), transports(q), []
    for g in base.arrows:
        where = {y: i for i, y in enumerate(q_fibers[base.cod[g]])}
        moves.append((tuple(map(where.__getitem__,
                                q_moves[base.inverse[g]].values())),
                      p_moves[g]))

    def transported(g: int, cod_obj: int) -> int:
        """Domain object of the unique arrow over g into cod_obj."""
        positions, p_move = moves[g]
        assignment = objects[cod_obj][1]
        return index[(base.dom[g], tuple(
            map(p_move.__getitem__, map(assignment.__getitem__, positions))))]

    arrows = _arrows_into(base, objects, transported)
    cov = covering_of_lifts(
        base, tuple(c for c, _ in objects), arrows,
        tuple(base.obj_labels[c] + "|" + ",".join(
            p.total.obj_labels[v] for v in assignment)
            for c, assignment in objects),
        tuple(f"{base.arr_labels[g]}@{i}" for g, _, i in arrows),
        "exponential projection")
    return ExponentialCovering(covering=cov, first=p, second=q,
                               objects=tuple(objects),
                               arrows=tuple((g, i) for g, _, i in arrows),
                               _index=index)


def group_action_on_exponential(expo: ExponentialCovering, g: int,
                                obj: int) -> int:
    """Right action of a base loop g on an exponential fiber object:
    (α·g)(x) = α(x·g⁻¹)·g, evaluated through the two fiber actions."""
    base = expo.covering.base
    if not 0 <= g < base.n_arrows:
        raise ValueError(f"unknown base arrow id {g}")
    if not 0 <= obj < len(expo.objects):
        raise ValueError(f"unknown exponential object id {obj}")
    c = expo.over(obj)
    if base.dom[g] != c or base.cod[g] != c:
        raise ValueError("arrow is not a loop at the object's base point")
    p_move = transports(expo.first)[g]
    q_move = transports(expo.second)[base.inverse[g]]
    amap = dict(zip(expo.second.fibers[c], expo.assignment(obj)))
    return expo.object_for(c, tuple(p_move[amap[y]]  # y = x·g⁻¹, x in order
                                    for y in q_move.values()))


# -- the presheaf dictionary --------------------------------------------------

class Presheaf:
    """A contravariant set-valued functor on a groupoid: a finite set per
    object, a bijection F(cod g) -> F(dom g) per arrow g."""

    def __init__(self, base: FiniteGroupoid, sets, maps):
        self.base = base
        self.sets = tuple(tuple(s) for s in sets)
        self.maps = {int(a): dict(m) for a, m in dict(maps).items()}
        if len(self.sets) != base.n_objects:
            raise ValueError("one set per base object required")

    def validate(self):
        base = self.base
        for a in base.arrows:
            m = self.maps.get(a)
            if m is None:
                raise ValueError(f"arrow {a} has no structure map")
            src = self.sets[base.cod[a]]
            dst = self.sets[base.dom[a]]
            if sorted(m) != sorted(src):
                raise ValueError(f"structure map of arrow {a} has wrong "
                                 "domain")
            if sorted(m.values()) != sorted(dst):
                raise ValueError(f"structure map of arrow {a} is not a "
                                 "bijection onto the target set")
        for x in base.objects:
            e = base.identity[x]
            if any(self.maps[e][v] != v for v in self.sets[x]):
                raise ValueError(f"identity of object {x} does not act "
                                 "trivially")
        for (f, h), v in base.compose.items():
            # contravariant: F(f∘h) = F(h) ∘ F(f)
            for el in self.sets[base.cod[f]]:
                if self.maps[v][el] != self.maps[h][self.maps[f][el]]:
                    raise ValueError(
                        f"functoriality fails on pair ({f}, {h})")


def covering_to_presheaf(p: Covering) -> Presheaf:
    """Fiber objects with transport: F(x) = Ob(fiber over x), F(g) the
    object part of the transport along g, copied from :func:`transports`."""
    ps = Presheaf(p.base, p.fibers, enumerate(transports(p)))
    ps.validate()
    return ps


def presheaf_to_covering(ps: Presheaf) -> Covering:
    """The covering of elements: one total object per (base object,
    element), one arrow into (c, v) per base arrow g into c, with domain
    (dom g, F(g)(v))."""
    ps.validate()
    base = ps.base
    objects = [(c, v) for c in base.objects for v in ps.sets[c]]
    opos = {key: i for i, key in enumerate(objects)}
    arrows = _arrows_into(
        base, objects,
        lambda g, i: opos[(base.dom[g], ps.maps[g][objects[i][1]])])
    return covering_of_lifts(
        base, tuple(c for c, _ in objects), arrows,
        tuple(f"{base.obj_labels[c]}·{v}" for c, v in objects),
        tuple(f"{base.arr_labels[g]}·{objects[i][1]}" for g, _, i in arrows),
        "covering of elements")


@dataclass(frozen=True)
class AdjunctionWitness:
    """Both hom-sets of the exponential adjunction with the explicit
    currying bijection between them."""
    lhs: tuple      # morphisms (R ×_G P) -> Q over the base
    rhs: tuple      # morphisms R -> Q^P over the base
    pairing: tuple  # (lhs index, rhs index), a bijection


def adjunction_check(r: Covering, p: Covering, q: Covering,
                     cap: int = 20000) -> AdjunctionWitness:
    """Enumerate Hom(R × P, Q) and Hom(R, Q^P) independently over the
    common base and verify that currying is a bijection between them."""
    if not (r.base == p.base == q.base):
        raise ValueError("adjunction requires a common base")
    base = r.base
    prod = fibered_product(r, p)
    expo = exponential(q, p)
    lhs = covering_morphisms(prod.covering, q, cap=cap)
    rhs = covering_morphisms(r, expo.covering, cap=cap)

    p_fibers = p.fibers
    # product pairs are (object of total(p), object of total(r))
    pair_index = {pair: i for i, pair in enumerate(prod.obj_pairs)}

    def curry(m: GroupoidMorphism) -> GroupoidMorphism:
        obj_map = []
        for x in r.total.objects:
            c = r.morphism.obj_map[x]
            assignment = tuple(
                m.obj_map[pair_index[(y, x)]] for y in p_fibers[c])
            obj_map.append(expo.object_for(c, assignment))
        # arrows over the base are forced by the codomain object
        arr_map = []
        for a in r.total.arrows:
            g = r.morphism.arr_map[a]
            target = obj_map[r.total.cod[a]]
            arr_map.append(expo.covering.lift(g, target))
        cm = GroupoidMorphism(r.total, expo.covering.total, obj_map,
                              arr_map)
        bad = cm.functoriality_violations()
        if bad:
            raise TheoremViolation(f"curried morphism not functorial: "
                                   f"{bad[0]}")
        if compose_morphisms(expo.covering.morphism, cm) != r.morphism:
            raise TheoremViolation("curried morphism does not commute "
                                   "with the projections")
        return cm

    rhs_index = {}
    for j, m in enumerate(rhs):
        rhs_index[(m.obj_map, m.arr_map)] = j
    pairing = []
    for i, m in enumerate(lhs):
        cm = curry(m)
        j = rhs_index.get((cm.obj_map, cm.arr_map))
        if j is None:
            raise TheoremViolation(
                "curried morphism missing from the exponential hom-set")
        pairing.append((i, j))
    if len({j for _, j in pairing}) != len(lhs) or len(lhs) != len(rhs):
        raise TheoremViolation(
            "currying is not a bijection between the two hom-sets")
    return AdjunctionWitness(lhs=tuple(lhs), rhs=tuple(rhs),
                             pairing=tuple(pairing))
