"""Builders: coverings from subgroups, universal covers and orbit groupoids.

The existence construction realizes a prescribed subgroup Γ of a vertex
group π(G, G0) as the pushforward loop group of a covering.  Total objects
are the cosets ``aΓ = {a∘γ}`` of arrows a leaving G0; there is one arrow
``(aΓ -> bΓ, g)`` for every base arrow g with g∘a ∈ bΓ, projecting to g.
Those arrows are the lifts handed to
:func:`gpdcov.covering.covering_of_lifts`, which derives identities,
inverses and composition by unique lifting and re-verifies the covering
property; the pushforward is re-verified too — never assumed.

Orbit groupoids quotient a groupoid by a free group action: objects and
arrows become orbits, and composition aligns representatives through the
unique group element matching their endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NonFreeActionError, TheoremViolation
from .covering import (Covering, GroupoidMorphism, compose_morphisms,
                       covering_of_lifts, factor_through, verified_covering)
from .groupoid import FiniteGroupoid, is_connected, vertex_group
from .groups import FiniteGroup, Subgroup
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
        g, sp = self.group, self.space
        e = g.identity
        if self.obj_maps[e] != tuple(sp.objects) \
                or self.arr_maps[e] != tuple(sp.arrows):
            raise ValueError("identity element must act as the identity")
        for k in range(g.order):
            m = GroupoidMorphism(sp, sp, self.obj_maps[k], self.arr_maps[k])
            if not m.is_bijective():
                raise ValueError(f"element {k} does not act bijectively")
            bad = m.functoriality_violations()
            if bad:
                raise ValueError(
                    f"element {k} does not act by a morphism: {bad[0]}")
        for a in range(g.order):
            for b in range(g.order):
                ab = g.mult(a, b)
                for x in sp.objects:
                    if self.obj_maps[ab][x] != \
                            self.obj_maps[a][self.obj_maps[b][x]]:
                        raise ValueError(
                            f"action law fails on objects at ({a}, {b})")
                for r in sp.arrows:
                    if self.arr_maps[ab][r] != \
                            self.arr_maps[a][self.arr_maps[b][r]]:
                        raise ValueError(
                            f"action law fails on arrows at ({a}, {b})")

    def act_obj(self, k: int, x: int) -> int:
        return self.obj_maps[k][x]

    def act_arr(self, k: int, a: int) -> int:
        return self.arr_maps[k][a]

    def fixed_point(self):
        """(element, object) witnessing non-freeness, or None."""
        for k in range(self.group.order):
            if k == self.group.identity:
                continue
            for x in self.space.objects:
                if self.obj_maps[k][x] == x:
                    return k, x
        return None

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


def _orbits(maps, count):
    seen = [False] * count
    blocks = []
    index = [0] * count
    for x in range(count):
        if seen[x]:
            continue
        orbit = sorted({row[x] for row in maps})
        for y in orbit:
            seen[y] = True
            index[y] = len(blocks)
        blocks.append(tuple(orbit))
    return tuple(blocks), tuple(index)


def orbit_groupoid(action: GroupAction,
                   marked_object=None) -> OrbitGroupoid:
    """Quotient the space by a free action of the group.

    Objects/arrows of the quotient are orbits; composition of two arrow
    orbits picks the unique group element aligning the representatives'
    endpoints.  The orbit morphism is verified to be a covering
    projection, marked at ``marked_object`` of the space.
    """
    fp = action.fixed_point()
    if fp is not None:
        raise NonFreeActionError(*fp)
    sp = action.space
    if not is_connected(sp):
        raise ValueError("orbit groupoid requires a connected space")
    obj_blocks, obj_index = _orbits(action.obj_maps, sp.n_objects)
    arr_blocks, arr_index = _orbits(action.arr_maps, sp.n_arrows)

    # With a free action, each ordered object pair has at most one aligner.
    aligner = {}
    for k in range(action.group.order):
        for x in sp.objects:
            aligner[(x, action.obj_maps[k][x])] = k

    n_q = len(obj_blocks)
    dom = tuple(obj_index[sp.dom[blk[0]]] for blk in arr_blocks)
    cod = tuple(obj_index[sp.cod[blk[0]]] for blk in arr_blocks)
    identity = tuple(arr_index[sp.identity[blk[0]]] for blk in obj_blocks)
    inverse = tuple(arr_index[sp.inverse[blk[0]]] for blk in arr_blocks)
    into = [[] for _ in obj_blocks]  # arrow orbits by codomain orbit
    for j, c in enumerate(cod):
        into[c].append(j)
    compose = {}
    for i, iblk in enumerate(arr_blocks):
        a = iblk[0]
        for j in into[dom[i]]:
            b = arr_blocks[j][0]
            k = aligner.get((sp.dom[a], sp.cod[b]))
            if k is None:
                raise TheoremViolation(
                    "orbit composition has no aligning element")
            compose[(i, j)] = arr_index[
                sp.compose_arrows(action.arr_maps[k][a], b)]
    quotient = FiniteGroupoid(
        n_q, dom, cod, identity, compose, inverse,
        obj_labels=tuple("[" + sp.obj_labels[blk[0]] + "]"
                         for blk in obj_blocks),
        arr_labels=tuple("[" + sp.arr_labels[blk[0]] + "]"
                         for blk in arr_blocks))
    projection = GroupoidMorphism(sp, quotient, obj_index, arr_index)
    out = verified_covering(projection, "orbit morphism of a free action",
                            marked_object)
    return OrbitGroupoid(action=action, quotient=quotient,
                         projection=projection, covering=out,
                         obj_orbits=obj_blocks, arr_orbits=arr_blocks)


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
