"""Groupoid morphisms, covering projections, liftings and monodromy.

A morphism of groupoids p : total -> base is a covering projection when its
restriction star(x) -> star(p x) is a bijection for every total object x.
The inverse bijections (one per total object) are cached as the witness.
Every lift is read from them by one kernel, :func:`_lifter`, along one
spanning tree, one lookup per arrow, and certified once by whole tuples.

A :class:`Covering` is read-only.  It takes its marked object at
construction and also keeps ``mark`` (the marked object, or 0 when none is
set) and ``fibers[y]`` (the total objects over base object y, ascending).
A covering the library builds is checked once, by one of two
constructors: :func:`covering_of_lifts` for one given by its lifts, and
:func:`verified_covering`, which runs :func:`check_covering`, for one
given as a morphism (quotients, composites, induced maps).  Both raise a
:class:`TheoremViolation` naming the construction.

Conventions (fixed package-wide, see :mod:`gpdcov.groupoid`): stars collect
arrows INTO an object, compose(f, h) applies h first, and the monodromy of
a loop f at a fiber object x is ``x·f = dom(lift of f at x)`` — a right
action of the base vertex group on the fiber.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from operator import itemgetter
from types import MappingProxyType

from .errors import TheoremViolation
from .groupoid import (FiniteGroupoid, VertexGroup, components, generators,
                       is_connected, partition, subgroupoid, vertex_group)
from .groups import Subgroup, all_homomorphisms, generating_set


class GroupoidMorphism:
    """An object map and an arrow map between finite groupoids."""

    def __init__(self, source, target, obj_map, arr_map):
        self.source = source
        self.target = target
        self.obj_map = tuple(obj_map)
        self.arr_map = tuple(arr_map)
        if len(self.obj_map) != source.n_objects:
            raise ValueError("object map must cover all source objects")
        if len(self.arr_map) != source.n_arrows:
            raise ValueError("arrow map must cover all source arrows")
        # Range checks by min/max; the loop runs only to name the offender.
        for images, bound, what in (
                (self.obj_map, target.n_objects, "object"),
                (self.arr_map, target.n_arrows, "arrow")):
            if images and not (min(images) >= 0 and max(images) < bound):
                bad = next(v for v in images if not 0 <= v < bound)
                raise ValueError(f"{what} image {bad} out of range")

    @classmethod
    def identity(cls, g: FiniteGroupoid) -> "GroupoidMorphism":
        return cls(g, g, tuple(g.objects), tuple(g.arrows))

    def functoriality_violations(self) -> list:
        """Every violated functor law, as messages: arrows whose image has
        the wrong dom or cod, objects whose identity is not preserved,
        then source pairs whose composite is not preserved.

        Composition is first checked on the part R of the source's
        generating set (:func:`~gpdcov.groupoid.generators`, which proves
        R enough): F(a∘x) = F(a)∘F(x) for every a in R and x into dom(a),
        about |R|·|star| lookups.  That is exact when source and target
        obey the groupoid laws, as every groupoid the package builds, or
        parses and validates, does; a hand-built table that breaks them
        may get ``[]`` here.  When an earlier law fails, when the source
        has no certified generating set, or when the certificate fails,
        the whole source table is scanned, so the messages and their
        order are those of that scan.
        """
        src, dst = self.source, self.target
        arr, obj = self.arr_map, self.obj_map
        bad = []
        if not (_pick(dst.dom, arr) == _pick(obj, src.dom)
                and _pick(dst.cod, arr) == _pick(obj, src.cod)
                and _pick(arr, src.identity) == _pick(dst.identity, obj)):
            bad = [f"arrow {a}: image {end} mismatch" for a in src.arrows
                   for end, s, d in (("dom", src.dom, dst.dom),
                                     ("cod", src.cod, dst.cod))
                   if d[arr[a]] != obj[s[a]]]  # only to name the offenders
            bad += [f"object {x}: identity not preserved" for x in src.objects
                    if arr[src.identity[x]] != dst.identity[obj[x]]]
        if not bad and self._keeps_composites_on(generators(src)):
            return bad
        for (f, h), v in src.compose.items():
            img = dst.compose.get((arr[f], arr[h]))
            if img != arr[v]:
                bad.append(f"pair ({f}, {h}): composition not preserved")
        return bad

    def _keeps_composites_on(self, gens) -> bool:
        """F(a∘x) = F(a)∘F(x) for every a ≤ a⁻¹ in ``gens`` that is not an
        identity and every x into dom(a); False when ``gens`` is None.
        ``gens`` comes from :func:`~gpdcov.groupoid.generators` of the
        source, whose check looked up every source composite read here."""
        if gens is None:
            return False
        src, arr, dc = self.source, self.arr_map, self.target.compose
        sc, into, dom = src.compose, src._into, src.dom
        inverse, identity = src.inverse, src.identity
        try:
            for a in gens:
                if inverse[a] < a or identity[dom[a]] == a:
                    continue
                fa, xs = arr[a], into[dom[a]]
                if [dc[(fa, arr[x])] for x in xs] != \
                        [arr[sc[(a, x)]] for x in xs]:
                    return False
        except KeyError:  # the target has no composite for a pair
            return False
        return True

    def is_functorial(self) -> bool:
        return not self.functoriality_violations()

    def is_bijective(self) -> bool:
        return (self.source.n_objects == self.target.n_objects
                and self.source.n_arrows == self.target.n_arrows
                and len(set(self.obj_map)) == self.source.n_objects
                and len(set(self.arr_map)) == self.source.n_arrows)

    def inverse(self) -> "GroupoidMorphism":
        if not self.is_bijective():
            raise ValueError("morphism is not bijective")
        obj_inv = [0] * self.target.n_objects
        for x, y in enumerate(self.obj_map):
            obj_inv[y] = x
        arr_inv = [0] * self.target.n_arrows
        for a, b in enumerate(self.arr_map):
            arr_inv[b] = a
        return GroupoidMorphism(self.target, self.source, obj_inv, arr_inv)

    def __eq__(self, other):
        return (isinstance(other, GroupoidMorphism)
                and self.source == other.source
                and self.target == other.target
                and self.obj_map == other.obj_map
                and self.arr_map == other.arr_map)

    def __repr__(self):
        return (f"GroupoidMorphism({self.source!r} -> {self.target!r})")


def _pick(seq, ids) -> tuple:
    """``tuple(seq[i] for i in ids)``, by ``itemgetter`` for 2 ids or more."""
    return itemgetter(*ids)(seq) if len(ids) > 1 else tuple(
        seq[i] for i in ids)


def compose_morphisms(outer: GroupoidMorphism,
                      inner: GroupoidMorphism) -> GroupoidMorphism:
    """outer ∘ inner (inner applied first)."""
    if inner.target != outer.source:
        raise ValueError("morphisms are not composable")
    return GroupoidMorphism(
        inner.source, outer.target,
        tuple(outer.obj_map[x] for x in inner.obj_map),
        tuple(outer.arr_map[a] for a in inner.arr_map))


def glue_morphism(source: FiniteGroupoid, target: FiniteGroupoid,
                  pieces) -> GroupoidMorphism:
    """The morphism source -> target assembled from (obj_img, arr_img)
    dict pairs, typically one per connected component of the source."""
    maps = ([0] * source.n_objects, [0] * source.n_arrows)
    for piece in pieces:
        for table, images in zip(maps, piece):
            for i, v in images.items():
                table[i] = v
    return GroupoidMorphism(source, target, *maps)


def factor_through(q: GroupoidMorphism,
                   f: GroupoidMorphism) -> GroupoidMorphism:
    """The morphism m with m∘q = f, for q and f out of one groupoid.

    f must be constant on every fiber of q, and q must hit every object
    and arrow of its target; otherwise the ValueError names the fiber or
    the missed id.  Functoriality of m is left to the caller.
    """
    if q.source != f.source:
        raise ValueError("morphisms must share their source")
    maps = []
    for what, q_map, f_map, n in (
            ("object", q.obj_map, f.obj_map, q.target.n_objects),
            ("arrow", q.arr_map, f.arr_map, q.target.n_arrows)):
        m = [None] * n
        for o, v in zip(q_map, f_map):
            if m[o] is None:
                m[o] = v
            elif m[o] != v:
                raise ValueError(f"the fiber over {what} {o} maps to both "
                                 f"{m[o]} and {v}")
        if None in m:
            raise ValueError(f"{what} {m.index(None)} is not hit")
        maps.append(m)
    return GroupoidMorphism(q.target, f.target, *maps)


@dataclass(frozen=True)
class CoveringFailure:
    """Where and how the star-bijection test failed."""
    at_object: int
    base_object: int
    total_star_size: int
    base_star_size: int
    kind: str  # "not-injective" | "not-surjective"
    message: str


class Covering:
    """A verified covering projection with its per-object lifting witness.

    ``witnesses[x]`` maps each base arrow into p(x) to its unique lift
    into x, as a read-only mapping.  ``marked_object`` is the marked total
    object or None, ``mark`` the marked object or 0, and ``fibers[y]`` the
    total objects over base object y in ascending order.  Read-only; use
    :func:`check_covering`, :func:`verified_covering` or
    :func:`covering_of_lifts` to build one.
    """

    __slots__ = ("morphism", "witnesses", "marked_object", "mark", "fibers")

    def __init__(self, morphism: GroupoidMorphism, witnesses,
                 marked_object=None):
        fibers = [[] for _ in range(morphism.target.n_objects)]
        for x, y in enumerate(morphism.obj_map):
            fibers[y].append(x)
        for name, value in (
                ("morphism", morphism),
                ("witnesses",
                 tuple(MappingProxyType(dict(w)) for w in witnesses)),
                ("marked_object", marked_object),
                ("mark", 0 if marked_object is None else marked_object),
                ("fibers", tuple(map(tuple, fibers)))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Covering is read-only: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Covering is read-only: cannot delete "
                             f"{name!r}")

    @property
    def total(self) -> FiniteGroupoid:
        return self.morphism.source

    @property
    def base(self) -> FiniteGroupoid:
        return self.morphism.target

    def lift(self, base_arrow: int, at: int) -> int:
        """The unique arrow into ``at`` lying over ``base_arrow``."""
        try:
            return self.witnesses[at][base_arrow]
        except KeyError:
            raise ValueError(
                f"arrow {base_arrow} does not end at the image of object "
                f"{at}") from None

    def __repr__(self):
        return f"Covering({self.total!r} -> {self.base!r})"


def check_covering(f: GroupoidMorphism, marked_object=None):
    """Decide the covering property: a :class:`Covering` with witnesses
    and the given mark, or a :class:`CoveringFailure` naming an object
    whose star map is not a bijection.  Non-functorial input is an error,
    not a negative."""
    bad = f.functoriality_violations()
    if bad:
        raise ValueError("morphism is not functorial: " + "; ".join(bad))
    return _star_check(f, marked_object)


def _star_check(f: GroupoidMorphism, marked_object=None):
    """The star-bijection half of :func:`check_covering`, for a morphism
    already known to be functorial."""
    src, dst = f.source, f.target
    stars_dst = dst._into
    witnesses = []
    for x in src.objects:
        y = f.obj_map[x]
        wit = {}
        for a in src._into[x]:
            img = f.arr_map[a]
            if img in wit:
                return CoveringFailure(
                    at_object=x, base_object=y,
                    total_star_size=len(src._into[x]),
                    base_star_size=len(stars_dst[y]),
                    kind="not-injective",
                    message=(f"star map not injective at object "
                             f"{src.obj_labels[x]}: arrows "
                             f"{src.arr_labels[wit[img]]} and "
                             f"{src.arr_labels[a]} both map to "
                             f"{dst.arr_labels[img]}"))
            wit[img] = a
        if len(wit) != len(stars_dst[y]):
            missing = next(a for a in stars_dst[y] if a not in wit)
            return CoveringFailure(
                at_object=x, base_object=y,
                total_star_size=len(wit),
                base_star_size=len(stars_dst[y]),
                kind="not-surjective",
                message=(f"star map not surjective at object "
                         f"{src.obj_labels[x]}: base arrow "
                         f"{dst.arr_labels[missing]} into "
                         f"{dst.obj_labels[y]} has no lift (star sizes "
                         f"{len(wit)} vs {len(stars_dst[y])})"))
        witnesses.append(wit)
    return Covering(f, witnesses, marked_object)


def require_covering(f: GroupoidMorphism, marked_object=None) -> Covering:
    out = check_covering(f, marked_object)
    if isinstance(out, CoveringFailure):
        raise ValueError(out.message)
    return out


def verified_covering(f: GroupoidMorphism, what: str,
                      marked_object=None) -> Covering:
    """The covering f with the given mark, for a morphism the library
    built and knows to be a covering.  A non-functorial f or a failed star
    check raises :class:`TheoremViolation` naming ``what``."""
    failed = f"{what} failed the covering check"
    try:
        out = check_covering(f, marked_object)
    except ValueError as exc:  # not functorial
        raise TheoremViolation(f"{failed}: {exc}") from None
    if isinstance(out, CoveringFailure):
        raise TheoremViolation(f"{failed}: {out.message}")
    return out


def covering_of_lifts(base: FiniteGroupoid, over, arrows, obj_labels,
                      arr_labels, what: str,
                      marked_object=None) -> Covering:
    """The covering total -> base given by its lifts, checked once.

    ``over[i]`` is the base object under total object i, and
    ``arrows[k] = (g, d, c)`` makes total arrow k a lift of the base arrow
    g from total object d to total object c.  Unique lifting determines
    the rest (Brown, *Topology and Groupoids*, ch. 10): the identity of c
    is the lift of id(over c) into c, the inverse of k is the lift of g⁻¹
    into d, and j∘k is the lift of g_j∘g into cod(j).  Composition walks
    the arrows out of each codomain, so it costs O(compose).  The lifts
    are first checked to be a right action of the base on the fibers (see
    :func:`_action_fault`).  That is the star check and, as the tables
    are lifts of the base's, the functor check: the lifts become the
    witnesses, with no second check.
    """
    lift = {(g, c): k for k, (g, _, c) in enumerate(arrows)}
    fault = _action_fault(base, over, arrows, lift, obj_labels)
    if fault:
        raise TheoremViolation(f"{what} failed the covering check: {fault}")
    dom = tuple(d for _, d, _ in arrows)
    out_of = [[] for _ in over]
    for k, d in enumerate(dom):
        out_of[d].append(k)
    compose = {}
    for k, (g, _, c) in enumerate(arrows):
        for j in out_of[c]:
            gj, _, e = arrows[j]
            compose[(j, k)] = lift[(base.compose[(gj, g)], e)]
    total = FiniteGroupoid(
        len(over), dom, tuple(c for _, _, c in arrows),
        tuple(lift[(base.identity[x], i)] for i, x in enumerate(over)),
        compose,
        tuple(lift[(base.inverse[g], d)] for g, d, _ in arrows),
        obj_labels=obj_labels, arr_labels=arr_labels)
    witnesses = [{} for _ in over]  # ascending arrow ids, as _star_check
    for (g, c), k in lift.items():
        witnesses[c][g] = k
    return Covering(
        GroupoidMorphism(total, base, over, tuple(g for g, _, _ in arrows)),
        witnesses, marked_object)


def _action_fault(base, over, arrows, lift, labels):
    """Why the lifts of :func:`covering_of_lifts` are not a right action
    of the base on the fibers, or None.  With pull(g, c) the domain of the
    lift of g into c, they are one when each base arrow g has one lift
    into each object over cod g, from an object over dom g; identities fix
    every object; each transport pull(g, ·) is injective, hence, with
    g⁻¹'s, bijective; and pull(a∘x, c) = pull(x, pull(a, c)).  The a that
    pass that law are closed under composition and inverses and hold the
    identities, so it is checked on the part R of
    :func:`~gpdcov.groupoid.generators` (every arrow when there is none).
    Each transport is read once, as a list over the fiber, and the law is
    one list comparison per a in R and x into dom a."""
    cod, dom = base.cod, base.dom
    unique = "the lifts are not one per base arrow into each object's image"
    if len(lift) != len(arrows) or len(arrows) != sum(
            len(base._into[y]) for y in over):
        return unique
    fibers, place = [[] for _ in base.objects], []  # c = fibers[y][place[c]]
    for c, y in enumerate(over):
        place.append(len(fibers[y]))
        fibers[y].append(c)
    pull = dict(zip(lift, map(itemgetter(1), arrows)))  # keys in order
    try:  # each lift that must be there is; by the count, no other is
        moves = [list(map(pull.__getitem__,
                          zip(itertools.repeat(g), fibers[cod[g]])))
                 for g in base.arrows]
    except KeyError:
        return unique
    for g, m in enumerate(moves):  # then as places in fibers[dom g]
        if not set(map(over.__getitem__, m)) <= {dom[g]}:
            return unique
        if len(set(m)) != len(m):
            return f"the transport along {base.arr_labels[g]} is not injective"
        moves[g] = list(map(place.__getitem__, m))
    for y, e in enumerate(base.identity):
        moved = [c for i, c in enumerate(fibers[y]) if moves[e][i] != i]
        if moved:
            return f"the identity does not fix {labels[moved[0]]}"
    compose, inverse, identity = base.compose, base.inverse, base.identity
    for a in generators(base) or base.arrows:
        if inverse[a] < a or identity[dom[a]] == a:
            continue
        for x in base._into[dom[a]]:
            if moves[compose[a, x]] != list(map(moves[x].__getitem__,
                                                moves[a])):
                return (f"the lifts of {base.arr_labels[a]}∘"
                        f"{base.arr_labels[x]} are not those of its factors")
    return None


@dataclass(frozen=True)
class Fiber:
    """The subgroupoid over one base object: the objects mapping onto it
    and the arrows mapping onto its identity."""
    over: int
    objects: tuple
    arrows: tuple
    groupoid: FiniteGroupoid
    obj_ids: tuple  # embedding of groupoid objects back into the total
    arr_ids: tuple


def fiber(p: Covering, base_obj: int) -> Fiber:
    if not 0 <= base_obj < p.base.n_objects:
        raise ValueError(f"unknown object id {base_obj}")
    objs = p.fibers[base_obj]
    # unique lifting: the only arrow into x over an identity is id(x)
    arrs = tuple(sorted(p.total.identity[x] for x in objs))
    gpd, obj_ids, arr_ids = subgroupoid(p.total, objs, arrs)
    return Fiber(over=base_obj, objects=objs, arrows=arrs,
                 groupoid=gpd, obj_ids=obj_ids, arr_ids=arr_ids)


def lift_arrow(p: Covering, a: int, at: int) -> int:
    """The unique arrow into ``at`` with image ``a``; requires
    p(at) = cod(a)."""
    if not 0 <= at < p.total.n_objects:
        raise ValueError(f"unknown total object id {at}")
    if not 0 <= a < p.base.n_arrows:
        raise ValueError(f"unknown base arrow id {a}")
    if p.morphism.obj_map[at] != p.base.cod[a]:
        raise ValueError(
            f"object {at} does not lie over cod of arrow {a}")
    return p.lift(a, at)


@dataclass(frozen=True)
class FiberTransport:
    """The isomorphism Fiber(cod f) -> Fiber(dom f) induced by a base
    arrow f, as maps on total ids.  Contravariant: transporting f∘g equals
    transporting f, then g."""
    along: int
    source: Fiber
    target: Fiber
    obj_map: dict
    arr_map: dict


def fiber_transport(p: Covering, f_arrow: int) -> FiberTransport:
    base = p.base
    src = fiber(p, base.cod[f_arrow])
    dst = fiber(p, base.dom[f_arrow])
    total = p.total
    obj_map = {x: total.dom[p.lift(f_arrow, x)] for x in src.objects}
    # a fiber holds only identities, and a⁻¹∘id(cod a)∘a = id(dom a)
    arr_map = {s: total.identity[obj_map[total.dom[s]]] for s in src.arrows}
    return FiberTransport(along=f_arrow, source=src, target=dst,
                          obj_map=obj_map, arr_map=arr_map)


def pushforward_vertex(p: Covering, x: int) -> Subgroup:
    """The image of the loop group at x inside the base vertex group at
    p(x), as a subgroup of :func:`vertex_group`.  Injectivity of the loop
    map is asserted, not assumed."""
    f = p.morphism
    loops = p.total.loops(x)
    images = [f.arr_map[a] for a in loops]
    if len(set(images)) != len(images):
        raise TheoremViolation(
            f"loop map at object {x} is not injective; covering witness "
            "is inconsistent")
    vg = vertex_group(p.base, f.obj_map[x])
    return Subgroup(vg, (vg.index_by_arrow[a] for a in images))


def _lift_walk(p: Covering, f: GroupoidMorphism, start):
    """Unique lifting of f through p from ``start`` = (s, t), f(s) = p(t),
    breadth first: each arrow a into a reached s lifts to the arrow b into
    t over f(a), read from ``p.witnesses[t]``, and reaches (dom a, dom b).
    Returns the reached pairs, ``start`` first, and one (a, b, i, j) per
    arrow, where i and j index the pairs of dom a and of a's codomain."""
    into, fdom, pdom = f.source._into, f.source.dom, p.total.dom
    f_arr, wit = f.arr_map, p.witnesses
    pos = {start: 0}
    pairs, arrows = [start], []
    for j, (s, t) in enumerate(pairs):  # grows while it is walked
        lift = wit[t]
        for a in into[s]:
            b = lift[f_arr[a]]
            d = (fdom[a], pdom[b])
            i = pos.setdefault(d, len(pairs))
            if i == len(pairs):
                pairs.append(d)
            arrows.append((a, b, i, j))
    return pairs, arrows


def _lifter(p: Covering, f: GroupoidMorphism, root: int):
    """The one unique-lifting kernel, for f a functor into p.base and p a
    covering: the arrows of root's component in f.source, ascending, and
    ``lift(seed)``.  That is None unless the loop images of f at root lie
    among those of p at seed (the lifting criterion), else the lift g with
    g(root) = seed as (obj, arr): obj over the source objects, None off the
    component, and arr aligned with the arrows.  Along one breadth-first
    spanning tree, built once, g(y) = dom witnesses[g(parent)][f(tree
    arrow)], then g(a) = witnesses[g(cod a)][f(a)].  :func:`_lift_fault`
    certifies g exactly: g(a∘b) and g(a)∘g(b) lie over f(a∘b) and end at
    g(cod a), and star maps are injective, so they are equal, as are g(id
    x) and id g(x).  Inconsistent witnesses raise :class:`TheoremViolation`
    at the least z whose witness g(z) lacks f(a) for an a into z (as when
    p(g(z)) ≠ f(z)), else at an end of the first refused arrow."""
    src, total, wit = f.source, p.total, p.witnesses
    f_arr, p_arr = f.arr_map, p.morphism.arr_map
    tree, seen = [], {root}  # (object, parent, f of the tree arrow)
    for parent in itertools.chain([root], (y for y, _, _ in tree)):
        for a in src._into[parent]:
            if src.dom[a] not in seen:
                seen.add(src.dom[a])
                tree.append((src.dom[a], parent, f_arr[a]))
    if len(seen) == src.n_objects:  # the component is the whole source
        ends = (src.arrows, src.dom, src.cod, f_arr)
    else:
        arrows = sorted(a for x in seen for a in src._into[x])
        ends = (arrows, *(_pick(t, arrows) for t in (src.dom, src.cod, f_arr)))
    arrows, _, cods, over = ends
    loops = {f_arr[a] for a in src.loops(root)}

    def lift(seed):
        if not loops <= {p_arr[a] for a in total.loops(seed)}:
            return None
        obj = [None] * src.n_objects
        obj[root] = seed
        try:
            for y, parent, g in tree:
                obj[y] = total.dom[wit[obj[parent]][g]]
            arr = tuple([wit[obj[x]][g] for x, g in zip(cods, over)])
        except KeyError:  # a read left the fiber: name the least such
            fault = [x for x, z in enumerate(obj) if z is not None and not
                     {f_arr[a] for a in src._into[x]} <= wit[z].keys()][:1]
        else:
            fault = _lift_fault(p, ends, obj, arr)
        if fault:
            raise TheoremViolation(
                f"lift propagation inconsistent at object {fault[-1]}")
        return obj, arr
    return arrows, lift


def _lift_fault(p: Covering, ends, obj, arr):
    """(clause, a, dom a or cod a) for the first arrow a at which (obj,
    arr) breaks dom g(a) = g(dom a), cod g(a) = g(cod a) or p(g(a)) = f(a),
    clauses named as for a transformation (f = p); None if none.  ``ends``
    = (arrows, doms, cods, f-images), arr aligned with them.  Whole tuples
    are compared; the arrows are walked only to name a."""
    arrows, doms, cods, over = ends
    dom, cod, p_arr = p.total.dom, p.total.cod, p.morphism.arr_map
    if (_pick(dom, arr), _pick(cod, arr), _pick(p_arr, arr)) == \
            (_pick(obj, doms), _pick(obj, cods), over):
        return None
    return next((clause, a, x)
                for a, fa, d, c, fo in zip(arrows, arr, doms, cods, over)
                for clause, ok, x in (
                    ("dom t(a) = t(dom a)", dom[fa] == obj[d], d),
                    ("cod t(a) = t(cod a)", cod[fa] == obj[c], c),
                    ("p(t(a)) = p(a)", p_arr[fa] == fo, c))
                if not ok)


def lift_morphism(p: Covering, f: GroupoidMorphism, f0: int,
                  seed: int):
    """The unique lift g of f through p with g(f0) = seed, or None.

    Requires f.source connected, f functorial and f(f0) = p(seed).  The
    lift exists iff the f-image of the loop group at f0 lands inside the
    pushforward loop group at seed.  :func:`_lifter` reads and certifies g.
    """
    if f.target != p.base:
        raise ValueError("morphism target must be the covering's base")
    if not is_connected(f.source):
        raise ValueError("lifting requires a connected source")
    if not 0 <= f0 < f.source.n_objects:
        raise ValueError(f"unknown source object id {f0}")
    if not 0 <= seed < p.total.n_objects:
        raise ValueError(f"unknown total object id {seed}")
    if f.obj_map[f0] != p.morphism.obj_map[seed]:
        raise ValueError("seed does not lie over the image of the source "
                         "object")
    if bad := f.functoriality_violations():
        raise ValueError("morphism is not functorial: " + "; ".join(bad))
    got = _lifter(p, f, f0)[1](seed)
    return None if got is None else GroupoidMorphism(f.source, p.total, *got)


class MonodromyAction:
    """The right action of the base vertex group at a base object on the
    fiber objects over it: x·f = dom(lift of f at x)."""

    def __init__(self, covering: Covering, base_object: int):
        if not 0 <= base_object < covering.base.n_objects:
            raise ValueError(f"unknown object id {base_object}")
        if not covering.fibers[base_object]:
            raise ValueError(f"empty fiber over object {base_object}")
        self.covering = covering
        self.base_object = base_object
        self.group: VertexGroup = vertex_group(covering.base, base_object)
        self.carrier = covering.fibers[base_object]
        total = covering.total
        self._table = {
            (x, k): total.dom[covering.lift(self.group.arrows[k], x)]
            for x in self.carrier for k in range(self.group.order)}
        self._orbits = partition(  # blocks off the carrier are singletons
            total.n_objects, ((x, y) for (x, _), y in self._table.items()))

    def act(self, x: int, k: int) -> int:
        return self._table[(x, k)]

    def orbit(self, x: int) -> tuple:
        """The orbit of the fiber object x, ascending."""
        if self.covering.morphism.obj_map[x] != self.base_object:
            raise ValueError(f"object {x} is not in the fiber")
        return self._orbits.blocks[self._orbits.index[x]]

    def stabilizer(self, x: int) -> Subgroup:
        return Subgroup(self.group,
                        (k for k in range(self.group.order)
                         if self.act(x, k) == x))

    def is_transitive(self) -> bool:
        return len(self.orbit(self.carrier[0])) == len(self.carrier)


def monodromy(p: Covering, base_object: int) -> MonodromyAction:
    return MonodromyAction(p, base_object)


def fold(p: Covering) -> int:
    """The constant fiber-object count over a connected base."""
    if not is_connected(p.base):
        raise ValueError("fold requires a connected base")
    counts = [len(fb) for fb in p.fibers]
    if counts[0] == 0:
        raise ValueError("empty covering has no fold")
    if any(c != counts[0] for c in counts):
        raise TheoremViolation(
            "fiber cardinality varies over a connected base")
    return counts[0]


def is_weak_equivalence(f: GroupoidMorphism) -> bool:
    """True iff f induces a bijection on components and isomorphisms on
    all vertex groups."""
    if not f.is_functorial():
        raise ValueError("morphism is not functorial")
    src_parts = components(f.source)
    dst_parts = components(f.target)
    if len(src_parts) != len(dst_parts):
        return False
    hit = {src_parts.block_index(x): dst_parts.block_index(f.obj_map[x])
           for x in f.source.objects}
    if len(set(hit.values())) != len(dst_parts):
        return False
    return all(len({f.arr_map[a] for a in f.source.loops(x)})
               == len(f.source.loops(x)) == len(f.target.loops(f.obj_map[x]))
               for x in f.source.objects)


# -- morphism enumeration ----------------------------------------------------

def covering_morphisms(p: Covering, q: Covering, cap: int = 100000):
    """All morphisms total(p) -> total(q) commuting with the projections
    to the common base, in a canonical order.

    A candidate is determined per component of total(p) by the image of
    that component's least object, which must be a fiber object of q whose
    pushforward loop group absorbs the component's; everything else is
    forced by unique lifting, read and certified by :func:`_lifter`.
    """
    if p.base != q.base:
        raise ValueError("coverings must share a base")
    per_block = []
    for block in components(p.total).blocks:
        arrows, lift = _lifter(q, p.morphism, block[0])
        lifts = map(lift, q.fibers[p.morphism.obj_map[block[0]]])
        per_block.append([({x: obj[x] for x in block}, dict(zip(arrows, arr)))
                          for obj, arr in filter(None, lifts)])
    count = 1
    for pieces in per_block:
        count *= len(pieces)
        if count > cap:
            raise ValueError(f"morphism enumeration exceeds cap {cap}")
    return [glue_morphism(p.total, q.total, combo)
            for combo in itertools.product(*per_block)]


def _tree_images(src: FiniteGroupoid, block, dst: FiniteGroupoid, over):
    """The spanning arrows t_x: x -> root of the component ``block``
    (root = block[0]), and a (y0, stars) pair per candidate image y0 of
    the root, stars[i] holding the arrows into y0 that may image the i-th
    t_x.  ``over=(q, f)`` filters both, looking up no witness: y0 with
    q(y0) = f(root), and every u with q(u) = f(t_x)."""
    root = block[0]
    tree = {x: src.hom(x, root)[0] for x in block[1:]}
    if over is None:
        return tree, [(y, [dst._into[y]] * len(tree)) for y in dst.objects]
    q, f = over
    return tree, [(y, [[u for u in dst._into[y]
                        if q.arr_map[u] == f.arr_map[t]]
                       for t in tree.values()])
                  for y, b in enumerate(q.obj_map) if b == f.obj_map[root]]


def _connected_morphisms(src: FiniteGroupoid, block, dst: FiniteGroupoid,
                         iso_objects: bool, over=None):
    """Yield all morphisms from the component ``block`` of src into dst,
    as (obj_img, arr_img) dict pairs.

    Every morphism factors as: pick the image y0 of the root, a vertex
    group homomorphism at the root, and one arrow into y0 for each other
    object (the image of a fixed spanning arrow).  With ``iso_objects`` the
    object images are forced to be distinct.  With ``over=(q, f)`` each
    choice is kept only when q maps it to f's image (:func:`_tree_images`),
    which yields exactly the m with q∘m = f on the block, in order.
    """
    root = block[0]
    tree, choices = _tree_images(src, block, dst, over)
    vg_src = vertex_group(src, root)
    block_arrows = sorted(a for x in block for a in src._into[x])
    # conjugate each arrow into a loop at the root: t_y ∘ a ∘ t_x⁻¹
    loop_index = {}
    for a in block_arrows:
        x, y = src.dom[a], src.cod[a]
        loop = a
        if x != root:
            loop = src.compose_arrows(loop, src.inverse[tree[x]])
        if y != root:
            loop = src.compose_arrows(tree[y], loop)
        loop_index[a] = vg_src.index_by_arrow[loop]
    want = over and [over[1].arr_map[a] for a in vg_src.arrows]
    compose, inv = dst.compose, dst.inverse
    for y0, stars in choices:
        vg_dst = vertex_group(dst, y0)
        homs = [h for h in all_homomorphisms(vg_src, vg_dst) if not want
                or [over[0].arr_map[vg_dst.arrows[i]] for i in h] == want]
        for h in homs:
            if iso_objects and len(set(h)) != vg_src.order:
                continue
            mapped = {a: vg_dst.arrows[h[loop_index[a]]]
                      for a in block_arrows}
            for choice in itertools.product(*stars):
                u = {root: dst.identity[y0], **dict(zip(tree, choice))}
                obj_img = {x: dst.dom[u[x]] for x in block}
                if iso_objects and len(set(obj_img.values())) != len(block):
                    continue
                arr_img = {}
                for a in block_arrows:
                    img = compose[(mapped[a], u[src.dom[a]])]
                    arr_img[a] = compose[(inv[u[src.cod[a]]], img)]
                yield obj_img, arr_img


def all_morphisms(src: FiniteGroupoid, dst: FiniteGroupoid,
                  cap: int = 200000, over=None):
    """Yield every groupoid morphism src -> dst (exhaustive; desk scale).

    ``over=(q, f)``, for functors q: dst -> B and f: src -> B, keeps the m
    with q∘m = f, in the same order.  It filters every choice of the
    search and never looks up a witness, so q need not be a covering.

    Raises if a cheap upper bound on the candidate count (with ``over``,
    the restricted count) exceeds ``cap``.
    """
    if over and not (over[0].source == dst and over[1].source == src
                     and over[0].target == over[1].target):
        raise ValueError("over=(q, f) needs q: dst -> B and f: src -> B")
    parts = components(src)
    bound = 1
    for block in parts.blocks:
        gens = len(generating_set(vertex_group(src, block[0])))
        per = sum(len(dst.loops(y0)) ** gens * math.prod(map(len, stars))
                  for y0, stars in _tree_images(src, block, dst, over)[1])
        bound *= max(per, 1)
        if bound > cap:
            raise ValueError(f"morphism enumeration bound exceeds {cap}")
    gens = [list(_connected_morphisms(src, block, dst, iso_objects=False,
                                      over=over))
            for block in parts.blocks]
    for combo in itertools.product(*gens):
        yield glue_morphism(src, dst, combo)


def groupoid_isomorphisms(src: FiniteGroupoid, dst: FiniteGroupoid):
    """Yield the isomorphisms src -> dst (possibly none)."""
    if (src.n_objects != dst.n_objects or src.n_arrows != dst.n_arrows):
        return
    src_parts = components(src)
    dst_parts = components(dst)
    if len(src_parts) != len(dst_parts):
        return

    def backtrack(i, used, acc):
        if i == len(src_parts.blocks):
            m = glue_morphism(src, dst, acc)
            if m.is_bijective() and m.is_functorial():
                yield m
            return
        block = src_parts.blocks[i]
        for j, dblock in enumerate(dst_parts.blocks):
            if j in used or len(dblock) != len(block):
                continue
            dset = set(dblock)
            for obj_img, arr_img in _connected_morphisms(
                    src, block, dst, iso_objects=True):
                if any(v not in dset for v in obj_img.values()):
                    continue
                yield from backtrack(i + 1, used | {j}, acc + [(obj_img,
                                                                arr_img)])

    yield from backtrack(0, frozenset(), [])


def find_groupoid_isomorphism(src: FiniteGroupoid, dst: FiniteGroupoid):
    for m in groupoid_isomorphisms(src, dst):
        return m
    return None


@dataclass(frozen=True)
class EquivalencePair:
    """Isomorphisms (phi on totals, psi on bases) with p∘phi = psi∘q."""
    phi: GroupoidMorphism
    psi: GroupoidMorphism


def equivalent_coverings(p: Covering, q: Covering, fixed_base: bool = True):
    """Search for an equivalence pair (phi, psi) with p∘phi = psi∘q, where
    phi: total(q) -> total(p) and psi: base(q) -> base(p).

    With ``fixed_base`` the bases must coincide and psi is the identity.
    Both coverings must be connected.  Returns None when the coverings are
    inequivalent.
    """
    for name, cov in (("first", p), ("second", q)):
        if not is_connected(cov.total) or not is_connected(cov.base):
            raise ValueError(f"{name} covering is not connected")
    if p.total.n_objects != q.total.n_objects \
            or p.total.n_arrows != q.total.n_arrows:
        return None
    if fixed_base:
        if p.base != q.base:
            raise ValueError("fixed-base equivalence requires equal bases")
        phi = _iso_over(q.morphism, p)
        if phi is None:
            return None
        return EquivalencePair(phi, GroupoidMorphism.identity(p.base))
    for psi in groupoid_isomorphisms(q.base, p.base):
        phi = _iso_over(compose_morphisms(psi, q.morphism), p)
        if phi is not None:
            return EquivalencePair(phi, psi)
    return None


def find_covering_isomorphism(p: Covering, q: Covering):
    """An isomorphism phi: total(p) -> total(q) with q∘phi = p, matching
    components via seeded lifting; None if the coverings differ.  Bases
    must coincide; totals may be disconnected."""
    if p.base != q.base:
        raise ValueError("coverings must share a base")
    if p.total.n_objects != q.total.n_objects \
            or p.total.n_arrows != q.total.n_arrows:
        return None
    return _iso_over(p.morphism, q)


def _iso_over(f: GroupoidMorphism, q: Covering):
    """An isomorphism g: f.source -> total(q) with q∘g = f, or None.

    Each component of f.source is lifted by :func:`_lifter` at most once
    per component of total(q) of its size, seeded at that component's
    first fiber object passing the lifting criterion (for the covering
    projections f passed here, equal sizes make it equality of loop
    images); the first assignment of distinct target components, in
    ascending order, is glued, and None is returned unless it is bijective.
    """
    src, total = f.source, q.total
    q_parts = components(total)
    options = []
    for block in components(src).blocks:
        arrows, lift = _lifter(q, f, block[0])
        pieces = {}
        for cand in q.fibers[f.obj_map[block[0]]]:
            j = q_parts.index[cand]
            if j in pieces or len(q_parts.blocks[j]) != len(block):
                continue
            if got := lift(cand):
                pieces[j] = ({x: got[0][x] for x in block},
                             dict(zip(arrows, got[1])))
        options.append(sorted(pieces.items()))

    def backtrack(i, used, acc):
        if i == len(options):
            return acc
        for j, piece in options[i]:
            if j not in used:
                got = backtrack(i + 1, used | {j}, acc + [piece])
                if got is not None:
                    return got
        return None

    combo = backtrack(0, frozenset(), [])
    if combo is None:
        return None
    g = glue_morphism(src, total, combo)
    return g if g.is_bijective() else None
