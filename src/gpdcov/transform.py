"""Covering transformations, regularity and the normalizer isomorphism.

A covering transformation of p : total -> base is an automorphism h of the
total with p∘h = p.  Unique lifting makes such an h rigid: it is determined
by the image of any single object, it has no fixed object unless it is the
identity, and all of them together form a group under composition.

Enumeration is therefore seeded from fiber objects instead of searching all
automorphisms: h(x0) must be a fiber object with the same pushforward loop
group, and each such object yields at most one transformation.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import TheoremViolation
from .covering import (Covering, GroupoidMorphism, compose_morphisms,
                       lift_morphism, monodromy, pushforward_vertex)
from .groupoid import generators, is_connected
from .groups import FiniteGroup, Subgroup, is_isomorphic


class CovGroup:
    """The group of covering transformations of a connected covering.

    ``group`` is the abstract composition table: ``mult(i, j)`` is the
    index of ``transformations[i] ∘ transformations[j]`` (j applied
    first).  Transformations are ordered by the image of the marked fiber
    object, which determines them.

    Closure is checked for every pair: the transformation named by the
    composite's image of the marked object must equal the composite.  All
    of them are functors, which agree when they agree on the arrows a ≤ a⁻¹
    of :func:`~gpdcov.groupoid.generators` of the total, so the comparison
    runs on those, or on every arrow when the total has no certified
    generating set.
    """

    def __init__(self, covering: Covering, transformations,
                 base_object: int, marked: int):
        self.covering = covering
        self.base_object = base_object
        self.marked = marked
        transformations = sorted(
            transformations, key=lambda t: t.obj_map[marked])
        self.transformations = tuple(transformations)
        key = {t.obj_map[marked]: i for i, t in enumerate(transformations)}
        if len(key) != len(transformations):
            raise TheoremViolation(
                "two covering transformations agree on an object")
        gens, inverse = generators(covering.total), covering.total.inverse
        gens = gens and tuple(a for a in gens if a <= inverse[a])
        table = []
        for t1 in self.transformations:
            row = []
            for t2 in self.transformations:
                idx = key.get(t1.obj_map[t2.obj_map[marked]])
                if idx is None or not _is_composite(
                        self.transformations[idx], t1, t2, gens):
                    raise TheoremViolation(
                        "covering transformations are not closed under "
                        "composition")
                row.append(idx)
            table.append(tuple(row))
        self.group = FiniteGroup(
            tuple(table),
            names=tuple(f"h{t.obj_map[marked]}"
                        for t in self.transformations))
        self._by_marked_image = key

    @property
    def order(self) -> int:
        return len(self.transformations)

    def index_by_object_image(self, src: int, dst: int):
        """The transformation index with t(src) = dst, or None."""
        return next((i for i, t in enumerate(self.transformations)
                     if t.obj_map[src] == dst), None)

    def index_of(self, morphism: GroupoidMorphism):
        """Match a concrete automorphism against the stored list."""
        idx = self._by_marked_image.get(morphism.obj_map[self.marked])
        if idx is not None and self.transformations[idx] == morphism:
            return idx
        return None

    def subgroup_of_morphisms(self, morphisms) -> Subgroup:
        """The subgroup whose members are the given automorphisms."""
        idxs = []
        for m in morphisms:
            i = self.index_of(m)
            if i is None:
                raise TheoremViolation(
                    "automorphism is not a covering transformation of the "
                    "reference covering")
            idxs.append(i)
        return Subgroup(self.group, idxs)

    def as_action(self):
        """The tautological action of the group on the total groupoid."""
        from .construct import GroupAction
        return GroupAction(
            self.group, self.covering.total,
            tuple(t.obj_map for t in self.transformations),
            tuple(t.arr_map for t in self.transformations))

    def action_of_subgroup(self, sub: Subgroup):
        from .construct import GroupAction
        if sub.parent != self.group:
            raise ValueError("subgroup does not belong to this group")
        return GroupAction(
            sub.as_group(), self.covering.total,
            tuple(self.transformations[k].obj_map for k in sub.elements),
            tuple(self.transformations[k].arr_map for k in sub.elements))


def _is_composite(t: GroupoidMorphism, t1: GroupoidMorphism,
                  t2: GroupoidMorphism, gens) -> bool:
    """t = t1∘t2, for functors: compared on the generating set ``gens``,
    or on every object and arrow when it is None."""
    if gens is None:
        return t == compose_morphisms(t1, t2)
    a, a1, a2 = t.arr_map, t1.arr_map, t2.arr_map
    return all(a[g] == a1[a2[g]] for g in gens)


def covering_transformations(p: Covering) -> CovGroup:
    """Enumerate Cov(total/base) for a connected covering.

    For each fiber object x over the reference base object, unique
    lifting of p through itself with seed x gives the only possible
    transformation sending the marked object to x.  It exists iff the
    pushforward loop group at x contains the marked one; both are
    conjugate, so then they are equal, the reverse lift exists too, and
    the lift is an isomorphism (checked).
    """
    if not (is_connected(p.total) and is_connected(p.base)):
        raise ValueError("covering transformations require a connected "
                         "covering")
    marked = p.mark
    base_obj = p.morphism.obj_map[marked]
    lifts = (lift_morphism(p, p.morphism, marked, cand)
             for cand in p.fibers[base_obj])
    found = [h for h in lifts if h is not None]
    if not all(h.is_bijective() for h in found):
        raise TheoremViolation("seeded transformation is not an isomorphism")
    return CovGroup(p, found, base_obj, marked)


def is_regular(p: Covering) -> bool:
    """Regularity, computed two independent ways and cross-checked:
    normality of the pushforward loop group in the base vertex group, and
    transitivity of the covering transformations on a fiber."""
    if not (is_connected(p.total) and is_connected(p.base)):
        raise ValueError("regularity is defined for connected coverings")
    via_normality = pushforward_vertex(p, p.mark).is_normal()
    cov = covering_transformations(p)
    images = {t.obj_map[cov.marked] for t in cov.transformations}
    via_transitivity = images == set(p.fibers[cov.base_object])
    if via_normality != via_transitivity:
        raise TheoremViolation(
            f"regularity checks disagree: normality={via_normality}, "
            f"transitivity={via_transitivity}")
    return via_normality


@dataclass(frozen=True)
class NormalizerIso:
    """The isomorphism N(p*π)/p*π -> Cov(total/base) at a fiber object.

    ``mapping[k]`` is the transformation index assigned to quotient
    element k: the transformation sending the fiber object to its
    monodromy translate under (any representative of) the coset.
    """
    covering: Covering
    at: int
    pushforward: Subgroup
    normalizer: Subgroup
    quotient: FiniteGroup
    cov: CovGroup
    mapping: tuple


def cov_normalizer_iso(p: Covering, at=None) -> NormalizerIso:
    if not (is_connected(p.total) and is_connected(p.base)):
        raise ValueError("requires a connected covering")
    if at is None:
        at = p.mark
    push = pushforward_vertex(p, at)
    norm = push.normalizer()
    norm_group = norm.as_group()
    push_inside = Subgroup(
        norm_group,
        (norm.elements.index(k) for k in push.elements))
    quotient = push_inside.quotient()
    cov = covering_transformations(p)
    cosets = push_inside.right_cosets()
    act = monodromy(p, p.morphism.obj_map[at])
    mapping = []
    for coset in cosets:
        rep = norm.elements[coset[0]]  # vertex-group element index
        translate = act.act(at, rep)
        idx = cov.index_by_object_image(at, translate)
        if idx is None:
            raise TheoremViolation(
                "no covering transformation realizes a normalizer coset")
        mapping.append(idx)
    if len(set(mapping)) != len(mapping) or len(mapping) != cov.order:
        raise TheoremViolation(
            "normalizer-quotient map is not a bijection onto the "
            "covering transformations")
    # homomorphism check on the whole quotient table
    for i in range(quotient.order):
        for j in range(quotient.order):
            if mapping[quotient.mult(i, j)] != \
                    cov.group.mult(mapping[i], mapping[j]):
                raise TheoremViolation(
                    "normalizer-quotient map is not a homomorphism")
    return NormalizerIso(covering=p, at=at, pushforward=push,
                         normalizer=norm, quotient=quotient, cov=cov,
                         mapping=tuple(mapping))


def principal_action_check(p: Covering) -> bool:
    """For a regular connected covering: the covering transformations act
    transitively and freely on the fiber, and Cov is isomorphic to the
    quotient of the base vertex group by the pushforward."""
    if not is_regular(p):
        raise ValueError("principality is defined for regular coverings")
    cov = covering_transformations(p)
    images = {t.obj_map[cov.marked] for t in cov.transformations}
    transitive = images == set(p.fibers[cov.base_object])
    free = all(
        all(t.obj_map[x] != x for x in p.total.objects)
        for i, t in enumerate(cov.transformations)
        if i != cov.group.identity)
    push = pushforward_vertex(p, cov.marked)
    quotient_ok = is_isomorphic(push.quotient(), cov.group)
    if not quotient_ok:
        raise TheoremViolation(
            "Cov is not isomorphic to the vertex-group quotient on a "
            "regular covering")
    return transitive and free


def induced_f_sharp(f: GroupoidMorphism, f_tilde: GroupoidMorphism,
                    p: Covering, q: Covering, g_index: int) -> int:
    """Transport a covering transformation along a morphism of universal
    covers.

    ``q`` and ``p`` are connected universal coverings of f's source and
    target; ``f_tilde`` covers f (p∘f_tilde = f∘q).  For g in
    Cov(total(q)/base(q)) the result is the unique t in
    Cov(total(p)/base(p)) with t∘f_tilde = f_tilde∘g, returned as an index
    into ``covering_transformations(p)``.
    """
    for name, cov in (("source", q), ("target", p)):
        if not (is_connected(cov.total) and is_connected(cov.base)):
            raise ValueError(f"{name} covering is not connected")
        if len(cov.total.loops(cov.mark)) != 1:
            raise ValueError(f"{name} covering is not universal")
    if compose_morphisms(p.morphism, f_tilde) != \
            compose_morphisms(f, q.morphism):
        raise ValueError("the lifted morphism does not cover f")
    cov_q = covering_transformations(q)
    cov_p = covering_transformations(p)
    g = cov_q.transformations[g_index]
    rhs = compose_morphisms(f_tilde, g)
    idx = cov_p.index_by_object_image(
        f_tilde.obj_map[q.mark], rhs.obj_map[q.mark])
    if idx is None:
        raise TheoremViolation("no covering transformation covers f∘g")
    t = cov_p.transformations[idx]
    if compose_morphisms(t, f_tilde) != rhs:
        raise TheoremViolation(
            "object-determined transformation does not satisfy the "
            "defining square")
    return idx
