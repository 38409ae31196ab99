"""Builders: coverings from subgroups, universal covers and orbit groupoids.

The existence construction realizes a prescribed subgroup Γ of a vertex
group π(G, G0) as the pushforward loop group of a covering.  Total objects
are the cosets ``aΓ = {a∘γ}`` of arrows a leaving G0; there is one arrow
``(aΓ -> bΓ, g)`` for every base arrow g with g∘a ∈ bΓ, projecting to g.
Those arrows are the lifts handed to
:func:`gpdcov.covering.covering_of_lifts`, which checks that they are an
action and derives identities, inverses and composition by unique
lifting; ``gpdcov selftest`` checks that the pushforward is Γ.

Every quotient is built by :func:`quotient_covering` from partitions of a
groupoid's objects and arrows: blocks become ids, and two arrow blocks
compose through the member of one that starts where a member of the other
ends.  Orbit groupoids quotient by the orbits of a free group action.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonFreeActionError, TheoremViolation
from .covering import (Covering, GroupoidMorphism, compose_morphisms,
                       covering_of_lifts, factor_through, verified_covering)
from .groupoid import (FiniteGroupoid, Partition, is_connected,
                       partition, vertex_group)
from .groups import FiniteGroup, Subgroup, generating_set
from .transform import CovGroup, covering_transformations, is_regular


class GroupAction:
    """A homomorphism from a finite group into the automorphisms of a
    groupoid, stored as per-element object/arrow permutation tables."""

    def __init__(self, group: FiniteGroup, space: FiniteGroupoid,
                 obj_maps, arr_maps):
        self.group = group
        self.space = space
        self.obj_maps = tuple(tuple(int(v) for v in row) for row in obj_maps)
        self.arr_maps = tuple(tuple(int(v) for v in row) for row in arr_maps)
        if len(self.obj_maps) != group.order \
                or len(self.arr_maps) != group.order:
            raise ValueError("one object/arrow map per group element "
                             "required")
        self.validate()

    def validate(self):
        """Raise ValueError unless ρ(e) = id, each ρ(k) is a bijective
        morphism of the space, and ρ(ab) = ρ(a)∘ρ(b) on objects and arrows.

        The checks run first for ρ(e) and the generators a of the group,
        with the law for each a and every b.  On a groupoid that is exact:
        the a with ρ(ab) = ρ(a)∘ρ(b) for all b are closed under products
        once ρ(e) = id, and each ρ(k) is a composite of generator actions.
        If that fails or raises, every element and pair is scanned.
        """
        g, sp = self.group, self.space
        e = g.identity
        if self.obj_maps[e] != tuple(sp.objects) \
                or self.arr_maps[e] != tuple(sp.arrows):
            raise ValueError("identity element must act as the identity")
        gens = generating_set(g)
        for elements, lefts in (((e, *gens), gens), (range(g.order),) * 2):
            try:
                for k in elements:
                    m = GroupoidMorphism(sp, sp, self.obj_maps[k],
                                         self.arr_maps[k])
                    if not m.is_bijective():
                        raise ValueError(
                            f"element {k} does not act bijectively")
                    bad = m.functoriality_violations()
                    if bad:
                        raise ValueError(
                            f"element {k} does not act by a morphism: "
                            f"{bad[0]}")
                for a in lefts:
                    for b in range(g.order):
                        for what, maps in (("objects", self.obj_maps),
                                           ("arrows", self.arr_maps)):
                            if maps[g.mult(a, b)] != tuple(
                                    map(maps[a].__getitem__, maps[b])):
                                raise ValueError(f"action law fails on "
                                                 f"{what} at ({a}, {b})")
                return
            except (IndexError, ValueError):
                if lefts is not gens:  # only the full scan's error is raised
                    raise

    def fixed_point(self):
        """(element, object) witnessing non-freeness, or None."""
        return next(((k, x) for k in range(self.group.order)
                     if k != self.group.identity
                     for x in self.space.objects if self.obj_maps[k][x] == x),
                    None)

    def is_free(self) -> bool:
        return self.fixed_point() is None

    @classmethod
    def trivial(cls, space: FiniteGroupoid) -> "GroupAction":
        return cls(FiniteGroup.trivial(), space,
                   (tuple(space.objects),), (tuple(space.arrows),))


@dataclass(frozen=True)
class OrbitGroupoid:
    """A quotient by a free action together with the orbit morphism."""
    action: GroupAction
    quotient: FiniteGroupoid
    projection: GroupoidMorphism
    covering: Covering
    obj_orbits: tuple
    arr_orbits: tuple


def quotient_covering(space: FiniteGroupoid, objs: Partition,
                      arrs: Partition, what: str,
                      marked_object=None) -> Covering:
    """The covering space -> quotient that sends each object and arrow to
    its block of ``objs`` and ``arrs``, verified under the name ``what``.

    Block i is object or arrow i of the quotient, labelled by its least
    member's label in brackets.  The composite i∘j of two arrow blocks takes
    a member of j and the member of i that starts where it ends; a block
    with two members out of one object, or with none out of an object
    where one is needed, raises :class:`TheoremViolation` naming ``what``.
    """
    dom, cod = space.dom, space.cod
    # out_of[i][x]: the member of arrow block i that starts at object x
    out_of = [{dom[a]: a for a in blk} for blk in arrs.blocks]
    for i, starts in enumerate(out_of):
        if len(starts) != len(arrs.blocks[i]):
            raise TheoremViolation(
                f"{what}: arrow block {i} has two members out of one object")
    q_dom = tuple(objs.index[dom[blk[0]]] for blk in arrs.blocks)
    q_cod = tuple(objs.index[cod[blk[0]]] for blk in arrs.blocks)
    into = [[] for _ in objs.blocks]  # arrow blocks by codomain block
    for j, c in enumerate(q_cod):
        into[c].append(j)
    compose = {}
    for i, starts in enumerate(out_of):
        for j in into[q_dom[i]]:
            b = arrs.blocks[j][0]
            a = starts.get(cod[b])
            if a is None:
                raise TheoremViolation(
                    f"{what}: arrow block {i} has no member out of "
                    f"object {cod[b]}")
            compose[(i, j)] = arrs.index[space.compose[(a, b)]]
    quotient = FiniteGroupoid(
        len(objs), q_dom, q_cod,
        tuple(arrs.index[space.identity[blk[0]]] for blk in objs.blocks),
        compose,
        tuple(arrs.index[space.inverse[blk[0]]] for blk in arrs.blocks),
        obj_labels=tuple("[" + space.obj_labels[blk[0]] + "]"
                         for blk in objs.blocks),
        arr_labels=tuple("[" + space.arr_labels[blk[0]] + "]"
                         for blk in arrs.blocks))
    return verified_covering(
        GroupoidMorphism(space, quotient, objs.index, arrs.index), what,
        marked_object)


def orbit_groupoid(action: GroupAction,
                   marked_object=None) -> OrbitGroupoid:
    """Quotient the space by a free action of the group.

    Objects/arrows of the quotient are orbits, partitioned from the
    action's maps and quotiented by :func:`quotient_covering`; the orbit
    morphism is verified to be a covering projection, marked at
    ``marked_object`` of the space.
    """
    fp = action.fixed_point()
    if fp is not None:
        raise NonFreeActionError(*fp)
    sp = action.space
    if not is_connected(sp):
        raise ValueError("orbit groupoid requires a connected space")
    objs = partition(sp.n_objects, ((x, row[x]) for row in action.obj_maps
                                    for x in sp.objects))
    arrs = partition(sp.n_arrows, ((a, row[a]) for row in action.arr_maps
                                   for a in sp.arrows))
    out = quotient_covering(sp, objs, arrs,
                            "orbit morphism of a free action", marked_object)
    return OrbitGroupoid(action=action, quotient=out.base,
                         projection=out.morphism, covering=out,
                         obj_orbits=objs.blocks, arr_orbits=arrs.blocks)


def covering_from_subgroup(g: FiniteGroupoid, g0: int,
                           gamma: Subgroup) -> Covering:
    """A covering of the connected groupoid g whose pushforward loop group
    at the marked object is exactly ``gamma`` (a subgroup of the vertex
    group at g0)."""
    if not is_connected(g):
        raise ValueError("base groupoid must be connected")
    vg = getattr(gamma, "parent", None)
    if not (hasattr(vg, "groupoid") and vg.groupoid == g and vg.at == g0):
        raise ValueError(
            "subgroup must live in the vertex group of g at g0")
    gamma_arrows = tuple(vg.arrows[k] for k in gamma.elements)

    # _out[g0] is ascending, so each coset is met first at its least
    # member: the objects come out ordered by least member arrow.
    coset_of = {}
    cosets = []
    for a in g._out[g0]:
        if a in coset_of:
            continue
        coset = tuple(sorted(g.compose_arrows(a, t) for t in gamma_arrows))
        for b in coset:
            coset_of[b] = len(cosets)
        cosets.append(coset)

    def target(ci, barr):
        return coset_of[g.compose_arrows(barr, cosets[ci][0])]

    # one arrow per (source coset, base arrow out of its base object)
    arrows = [(barr, ci, target(ci, barr))
              for ci, coset in enumerate(cosets)
              for barr in g._out[g.cod[coset[0]]]]
    return covering_of_lifts(
        g, tuple(g.cod[c[0]] for c in cosets), arrows,
        tuple("[" + g.arr_labels[c[0]] + "]" for c in cosets),
        tuple(f"[{g.arr_labels[cosets[ci][0]]}]·{g.arr_labels[barr]}"
              for barr, ci, _ in arrows),
        "coset construction", coset_of[g.identity[g0]])


def universal_cover(g: FiniteGroupoid, g0=None) -> Covering:
    """The covering with trivial vertex groups (trivial subgroup case)."""
    if g0 is None:
        g0 = 0
    vg = vertex_group(g, g0)
    return covering_from_subgroup(g, g0, vg.trivial_subgroup())


@dataclass(frozen=True)
class QuotientComparison:
    """For a regular connected covering p: the quotient of the total by
    its covering transformations, with the isomorphism from the base that
    completes the triangle."""
    covering: Covering
    cov_group: CovGroup
    orbit: OrbitGroupoid
    iso: GroupoidMorphism  # base -> quotient, iso ∘ p = orbit morphism


def quotient_comparison(p: Covering) -> QuotientComparison:
    if not is_regular(p):
        raise ValueError("quotient comparison requires a regular covering")
    cov = covering_transformations(p)
    orb = orbit_groupoid(cov.as_action())
    try:
        iso = factor_through(p.morphism, orb.projection)
    except ValueError as exc:
        raise TheoremViolation(
            f"the orbit morphism does not factor through a regular "
            f"covering: {exc}") from None
    if not (iso.is_bijective() and iso.is_functorial()):
        raise TheoremViolation(
            "base does not match the quotient by covering transformations")
    if compose_morphisms(iso, p.morphism) != orb.projection:
        raise TheoremViolation("comparison triangle does not commute")
    return QuotientComparison(covering=p, cov_group=cov, orbit=orb, iso=iso)
