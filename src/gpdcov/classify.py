"""Equivalence classes of connected coverings and the Galois lattice.

Over a connected base G with universal covering u and covering
transformation group Γ = Cov(total(u)/G), the connected coverings of G up
to equivalence correspond bijectively — and order-reversingly — to the
subgroups of Γ: a subgroup Π goes to the quotient covering
total(u)/Π -> G, and a covering comes back via the transformations of the
projection from total(u) onto it.

:func:`build_lattice` constructs one node per subgroup and then verifies
the whole correspondence geometrically: round trips, order reversal,
meet/join against orbit partitions of total(u), fold = index, and
regularity = normality.  Any failure raises :class:`TheoremViolation`
naming the clause, as each is a theorem.

Naming note: on the subgroup side, meet = intersection and join =
generated subgroup.  Geometrically the meet corresponds to the marked
component of the fibered product over G, and the join to the pushout
under the universal cover.  The orbit morphisms of Π_a and Π_b pair U =
total(u) onto the marked component, with the (Π_a ∩ Π_b)-orbits as fibers.
The pushout of two orbit morphisms joins their partitions.

The lattice's pair laws are read on U's objects alone, exactly: a map of
coverings over G that is bijective on objects is an isomorphism (star maps
are bijective and unique lifting forces the arrow map: Brown, *Topology
and Groupoids*, ch. 10), and every node is covering-checked once.  The
meet law has one implementation, :func:`_meet_holds`, which reads the two
nodes' fiber actions (:func:`~gpdcov.covering.transports`) and the
candidate's labels; :func:`build_lattice` runs it on every ordered pair and
:func:`meet_covering` on the one pair it is asked for.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

from .errors import TheoremViolation
from .covering import (Covering, GroupoidMorphism, compose_morphisms,
                       covering_of_lifts, factor_through, fold,
                       lift_morphism, transports, verified_covering)
from .construct import (OrbitGroupoid, orbit_groupoid, quotient_covering,
                        universal_cover)
from .groupoid import (FiniteGroupoid, generators, is_connected, partition,
                       vertex_group)
from .groups import Subgroup, find_isomorphism
from .transform import covering_transformations, is_regular


@dataclass(frozen=True)
class PullbackCovering:
    """Pullback of a covering p along a morphism f into its base: a
    covering over f's source whose objects/arrows are the matching pairs."""
    covering: Covering            # projection onto f's source
    to_total: GroupoidMorphism    # projection onto total(p); covers f
    obj_pairs: tuple              # (object of f.source, object of total(p))
    arr_pairs: tuple


def pullback_covering(p: Covering, f: GroupoidMorphism) -> PullbackCovering:
    if f.target != p.base:
        raise ValueError("morphism must land in the covering's base")
    h = f.source
    t = p.total
    # bucket the total's arrows by their image in the base
    arrs_over = [[] for _ in p.base.arrows]
    for b, g in enumerate(p.morphism.arr_map):
        arrs_over[g].append(b)
    obj_pairs = tuple((x, y) for x in h.objects
                      for y in p.fibers[f.obj_map[x]])
    arr_pairs = tuple((a, b) for a in h.arrows
                      for b in arrs_over[f.arr_map[a]])
    opos = {pair: i for i, pair in enumerate(obj_pairs)}
    cov = covering_of_lifts(
        h, tuple(x for x, _ in obj_pairs),
        [(a, opos[(h.dom[a], t.dom[b])], opos[(h.cod[a], t.cod[b])])
         for a, b in arr_pairs],
        tuple(f"({h.obj_labels[x]},{t.obj_labels[y]})"
              for x, y in obj_pairs),
        tuple(f"({h.arr_labels[a]},{t.arr_labels[b]})"
              for a, b in arr_pairs),
        "pullback projection")
    proj2 = GroupoidMorphism(cov.total, t,
                             tuple(y for _, y in obj_pairs),
                             tuple(b for _, b in arr_pairs))
    return PullbackCovering(covering=cov, to_total=proj2,
                            obj_pairs=obj_pairs, arr_pairs=arr_pairs)


@dataclass(frozen=True)
class FiberedProduct:
    """The product of two coverings of the same base in the category of
    coverings: the pullback over the base with its two projections."""
    covering: Covering            # over the common base
    proj_first: GroupoidMorphism
    proj_second: GroupoidMorphism
    obj_pairs: tuple
    arr_pairs: tuple


def fibered_product(p: Covering, q: Covering) -> FiberedProduct:
    if p.base != q.base:
        raise ValueError("coverings must share a base")
    pb = pullback_covering(p, q.morphism)
    cov = verified_covering(
        compose_morphisms(q.morphism, pb.covering.morphism),
        "fibered product")
    return FiberedProduct(covering=cov,
                          proj_first=pb.to_total,
                          proj_second=pb.covering.morphism,
                          obj_pairs=pb.obj_pairs,
                          arr_pairs=pb.arr_pairs)


@dataclass(frozen=True)
class PushoutResult:
    """Quotient of a common universal total by the join of two orbit
    partitions, which are the orbits of the group generated by both
    covering-transformation groups, with the induced maps from both
    quotients."""
    orbit_covering: Covering      # universal total -> pushout quotient
    quotient: FiniteGroupoid
    leg_first: GroupoidMorphism   # total(p') -> quotient
    leg_second: GroupoidMorphism  # total(q') -> quotient


def _induced_on_quotient(src_cov: Covering, dst_cov: Covering):
    """The morphism total(src_cov) -> total(dst_cov) sending each orbit to
    the orbit containing it, for two orbit morphisms from one groupoid."""
    m = factor_through(src_cov.morphism, dst_cov.morphism)
    bad = m.functoriality_violations()
    if bad:
        raise TheoremViolation(f"induced quotient map not functorial: "
                               f"{bad[0]}")
    return m


def pushout_covering(p_orbit: Covering, q_orbit: Covering) -> PushoutResult:
    """Pushout of two orbit morphisms out of the same universal total U.

    Each is the quotient of U by its covering transformations, so the
    pushout identifies exactly what either one identifies: U's objects and
    arrows are partitioned by "same image under either projection" and
    quotiented by :func:`quotient_covering`.  The legs are the induced
    maps from both quotients.
    """
    u = p_orbit.total
    if u != q_orbit.total:
        raise ValueError("orbit morphisms must share their source")
    if not is_connected(u) or len(u.loops(0)) != 1:
        raise ValueError("pushout requires orbit morphisms from a "
                         "universal (connected, simply connected) total")
    p, q = p_orbit.morphism, q_orbit.morphism
    objs = partition(u.n_objects, _same_image_pairs(p.obj_map, q.obj_map))
    arrs = partition(u.n_arrows, _same_image_pairs(p.arr_map, q.arr_map))
    # Both transformation groups together act freely iff every arrow
    # block is as large as the object block of its domain.
    if any(len(blk) != len(objs.blocks[objs.index[u.dom[blk[0]]]])
           for blk in arrs.blocks):
        raise ValueError("pushout requires orbit morphisms whose "
                         "transformations act freely together")
    orbit = quotient_covering(u, objs, arrs, "pushout orbit morphism")
    return PushoutResult(
        orbit_covering=orbit,
        quotient=orbit.base,
        leg_first=_induced_on_quotient(p_orbit, orbit),
        leg_second=_induced_on_quotient(q_orbit, orbit))


def _same_image_pairs(*maps):
    """Pairs (x, y) joining each x to the least y that one of the maps
    sends to the same image."""
    for images in maps:
        first = {}
        for x, v in enumerate(images):
            yield x, first.setdefault(v, x)


class CoveringClass:
    """One node of the lattice: the subgroup Π of Γ with its canonical
    quotient covering of the base and the orbit morphism from the
    universal total."""

    def __init__(self, subgroup: Subgroup, covering: Covering,
                 orbit: OrbitGroupoid, fold_count: int, regular: bool):
        self.subgroup = subgroup
        self.covering = covering
        self.orbit = orbit
        self.fold = fold_count
        self.regular = regular
        self._lattice = None  # a weak reference, set by GaloisLattice

    @property
    def lattice(self):
        """The lattice holding this node, or None once it is freed.  The
        reference is weak, so a lattice and its nodes form no cycle."""
        return self._lattice and self._lattice()

    def __repr__(self):
        return (f"CoveringClass(order={self.subgroup.order}, "
                f"fold={self.fold}, regular={self.regular})")


class GaloisLattice:
    """All covering classes over one base, indexed by the subgroups of the
    universal covering-transformation group, with both the subgroup order
    and the covering order available.  The meet table holds the node of
    each pair's intersection, and the join table the node of least order
    above both, read from the node list: it lies in every node that holds
    both subgroups, so it is the generated subgroup."""

    def __init__(self, base, base_object, universal, cov_group, nodes):
        self.base = base
        self.base_object = base_object
        self.universal = universal
        self.cov_group = cov_group
        self.nodes = tuple(nodes)
        self._by_subgroup = {n.subgroup.elements: i
                             for i, n in enumerate(self.nodes)}
        for n in self.nodes:
            n._lattice = weakref.ref(self)
        at, subs = self._by_subgroup, [n.subgroup for n in self.nodes]
        self._meet = tuple(tuple(at[s.intersection(t).elements]
                                 for t in subs) for s in subs)
        ids = range(len(subs))
        above = [{k for k in ids if self.subgroup_leq(i, k)} for i in ids]
        self._join = tuple(tuple(min(up & other, key=lambda k: subs[k].order)
                                 for other in above) for up in above)

    def __len__(self):
        return len(self.nodes)

    def node_for_subgroup(self, sub: Subgroup) -> CoveringClass:
        try:
            return self.nodes[self._by_subgroup[sub.elements]]
        except KeyError:
            raise ValueError("subgroup is not a node of this lattice") \
                from None

    def index_of(self, node: CoveringClass) -> int:
        return self._by_subgroup[node.subgroup.elements]

    def subgroup_leq(self, i: int, j: int) -> bool:
        """Subgroup inclusion Π_i ⊆ Π_j (top = identity covering)."""
        return set(self.nodes[i].subgroup.elements) <= \
            set(self.nodes[j].subgroup.elements)

    def covering_leq(self, i: int, j: int) -> bool:
        """The covering order: node_i ⪯ node_j iff node_j's quotient
        projects onto node_i's, i.e. Π_j ⊆ Π_i."""
        return self.subgroup_leq(j, i)

    def meet(self, i: int, j: int) -> int:
        return self._meet[i][j]

    def join(self, i: int, j: int) -> int:
        return self._join[i][j]


def _quotient_to_base(universal: Covering, orb: OrbitGroupoid) -> Covering:
    """The covering quotient -> base induced by the universal projection
    (constant on orbits of covering transformations)."""
    proj = orb.projection
    try:
        m = factor_through(proj, universal.morphism)
    except ValueError as exc:
        raise TheoremViolation(
            f"universal projection does not factor through the orbit "
            f"quotient: {exc}") from None
    return verified_covering(m, "quotient projection",
                             proj.obj_map[universal.mark])


def classify_covering(lattice: GaloisLattice, q: Covering) -> CoveringClass:
    """The lattice node of an arbitrary connected covering of the base:
    lift the universal projection through q and read off the covering
    transformations of the lift."""
    if q.base != lattice.base:
        raise ValueError("covering does not live over the lattice base")
    if not is_connected(q.total):
        raise ValueError("classification applies to connected coverings")
    u = lattice.universal
    seeds = q.fibers[u.morphism.obj_map[u.mark]]
    if not seeds:
        raise TheoremViolation("connected covering misses a base object")
    r = lift_morphism(q, u.morphism, u.mark, seeds[0])
    if r is None:
        raise TheoremViolation(
            "universal cover does not lift over a connected covering")
    r_cov = verified_covering(r, "projection from the universal cover",
                              u.mark)
    cov_r = covering_transformations(r_cov)
    sub = lattice.cov_group.subgroup_of_morphisms(cov_r.transformations)
    return lattice.node_for_subgroup(sub)


def meet_covering(a: CoveringClass, b: CoveringClass) -> CoveringClass:
    """The node of the subgroup intersection, verified by the meet law
    (:func:`_meet_holds`), which reads a, b and that node alone."""
    if a.lattice is None or a.lattice is not b.lattice:
        raise ValueError("classes must belong to one lattice")
    lat = a.lattice
    node = lat.nodes[lat.meet(lat.index_of(a), lat.index_of(b))]
    if not _meet_holds(a, b, node):
        raise TheoremViolation(_MEET_LAW)
    return node


_MEET_LAW = ("pullback component is not equivalent to the intersection "
             "node (lattice meet law)")


def build_lattice(g: FiniteGroupoid, g0: int = 0) -> GaloisLattice:
    """Construct and verify the full classification lattice over g.

    Verified clauses (any failure raises TheoremViolation naming it):
    bijection and order reversal; both round trips; meet and join laws
    as identities of orbit partitions of the universal total; fold =
    subgroup index; and regularity = normality.  Finally the vertex group
    of each quotient is checked isomorphic to its subgroup.
    """
    if not is_connected(g):
        raise ValueError("lattice construction requires a connected base")
    u = universal_cover(g, g0)
    cov_group = covering_transformations(u)
    gamma = cov_group.group
    subs = gamma.subgroups()
    nodes = []
    for sub in subs:
        orb = orbit_groupoid(cov_group.action_of_subgroup(sub),
                             u.marked_object)
        quot_cov = _quotient_to_base(u, orb)
        node = CoveringClass(
            subgroup=sub,
            covering=quot_cov,
            orbit=orb,
            fold_count=fold(quot_cov),
            regular=is_regular(quot_cov))
        nodes.append(node)
    lattice = GaloisLattice(g, g0, u, cov_group, nodes)
    _verify_lattice(lattice)
    return lattice


def _verify_lattice(lat: GaloisLattice):
    gamma = lat.cov_group.group
    n = len(lat.nodes)
    for node in lat.nodes:
        # round trip Π -> quotient covering -> Cov of the orbit morphism
        back = covering_transformations(node.orbit.covering)
        sub = lat.cov_group.subgroup_of_morphisms(back.transformations)
        if sub != node.subgroup:
            raise TheoremViolation(
                "round trip failed: Cov of the quotient projection is not "
                "the defining subgroup (clause: bijection round trip)")
        # fold = index
        if node.fold != gamma.order // node.subgroup.order:
            raise TheoremViolation(
                "fold of a quotient covering differs from the subgroup "
                "index (clause: fold formula)")
        # regularity = normality in Γ
        if node.regular != node.subgroup.is_normal():
            raise TheoremViolation(
                "regularity does not match normality of the subgroup "
                "(clause: regularity)")
        # vertex group of the quotient is the subgroup
        vg = vertex_group(node.covering.total, node.covering.mark)
        if find_isomorphism(vg, node.subgroup.as_group()) is None:
            raise TheoremViolation(
                "vertex group of a quotient is not isomorphic to its "
                "subgroup (clause: quotient vertex group)")
    includes, joins = _object_laws(lat)
    nodes = lat.nodes
    for i in range(n):
        for j in range(n):
            if includes(i, j) != lat.subgroup_leq(i, j):
                raise TheoremViolation(
                    "covering order does not mirror reversed subgroup "
                    "inclusion (clause: order reversal)")
            if not _meet_holds(nodes[i], nodes[j], nodes[lat.meet(i, j)]):
                raise TheoremViolation(_MEET_LAW)
            if not joins(i, j, lat.join(i, j)):
                raise TheoremViolation("pushout quotient differs from the "
                                       "join node (clause: join law)")


def _object_laws(lat: GaloisLattice):
    """The order and join laws on U's objects, as ``includes(i, j)`` and
    ``joins(i, j, k)``, k the candidate node.  Exact: each node is
    covering-checked, so an arrow block is fixed by its base arrow and its
    codomain's block.  Read once per node: labels o (orbit projection on
    U's objects), block count and freeness (arrow blocks as large as their
    domain's).  Order: Π_i ⊆ Π_j iff i-labels refine j-labels.  Join: k is
    free and labelled by the union-find join of the i- and j-labels.  The
    meet law reads only its pair and is :func:`_meet_holds`."""
    labels = [n.orbit.projection.obj_map for n in lat.nodes]
    blocks = [len(n.orbit.obj_orbits) for n in lat.nodes]
    dom = lat.universal.total.dom
    free = [all(len(b) == len(o.obj_orbits[o.projection.obj_map[dom[b[0]]]])
                for b in o.arr_orbits) for o in (n.orbit for n in lat.nodes)]

    def includes(i, j):
        return len(set(zip(labels[i], labels[j]))) == blocks[i]

    def joins(i, j, k):
        oi, oj = labels[i], labels[j]
        rep = dict(zip(oj, oi))  # j-label -> an i-label that shares it
        part = partition(blocks[i], set(zip(oi, map(rep.__getitem__, oj))))
        return free[k] and tuple(map(part.index.__getitem__, oi)) == labels[k]
    return includes, joins


def _meet_holds(a: CoveringClass, b: CoveringClass,
                k: CoveringClass) -> bool:
    """The meet law on one pair, on U's objects: k's quotient is the marked
    component C of the fibered product of a's and b's coverings.  C's
    objects are the orbit of the marks' pair (o_b(mark), o_a(mark)) under
    the paired transports of the base generators (every arrow when there
    is none), o the labels of the orbit projections.  That orbit must be
    φ(U) for φ = (o_b, o_a), a functor over G, so φ is onto C, and φ must
    partition U's objects as k's labels o_k do, so U/Π_k -> C is bijective
    on objects, hence an isomorphism (module docstring).  As Π_a z ∩ Π_b z
    = (Π_a ∩ Π_b) z for a free action, φ's fibers are the intersection's
    orbits: a conjugate of k fails.  Reads a, b and k alone."""
    la, lb, lk = (n.orbit.projection.obj_map for n in (a, b, k))
    ta, tb = transports(a.covering), transports(b.covering)
    base, mark = a.covering.base, a.orbit.covering.mark
    gens = generators(base) or base.arrows
    walk = [(lb[mark], la[mark])]
    seen = set(walk)
    for y, x in walk:  # grows while it is walked
        walk += (new := {(tb[g][y], ta[g][x]) for g in gens
                         if x in ta[g]} - seen)
        seen |= new
    return seen == set(zip(lb, la)) and len(seen) == \
        len(k.orbit.obj_orbits) == len(set(zip(lb, la, lk)))
