import gc
import weakref
from dataclasses import replace
from functools import lru_cache
from pathlib import Path
from types import SimpleNamespace

import networkx
import pytest

from gpdcov import (FiniteGroupoid, GroupoidMorphism, TheoremViolation,
                    build_lattice, classify_covering, component_subgroupoid,
                    components, compose_morphisms, equivalent_coverings,
                    fibered_product, find_covering_isomorphism,
                    is_connected, lift_morphism,
                    meet_covering, pullback_covering, pushout_covering,
                    trivial_groupoid, universal_cover, verified_covering,
                    vertex_group)
from gpdcov.classify import (_MEET_LAW, CoveringClass, GaloisLattice,
                             PushoutResult, _induced_on_quotient,
                             _meet_holds, _object_laws, _quotient_to_base,
                             _same_image_pairs)
from gpdcov.cli import main
from gpdcov.construct import GroupAction, OrbitGroupoid, orbit_groupoid
from gpdcov.covering import covering_of_lifts, factor_through, transports
from gpdcov.documents import load_groupoid
from gpdcov.groupoid import partition
from gpdcov.groups import FiniteGroup
from gpdcov.transform import covering_transformations

from test_index import CORPUS
from test_lifts import _lift_walk

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@lru_cache(maxsize=None)
def orbit_of(node):
    """The orbit groupoid a lattice node carried before nodes were built
    from their labels: the quotient of the universal total by the node's
    subgroup, through its GroupAction, marked at the universal mark."""
    lat = node.lattice
    return orbit_groupoid(lat.cov_group.action_of_subgroup(node.subgroup),
                          lat.universal.marked_object)


@pytest.fixture(scope="module")
def lat_c4(c4):
    return build_lattice(c4, 0)


@pytest.fixture(scope="module")
def lat_s3(s3):
    return build_lattice(s3, 0)


def test_pullback_along_identity(cov02, c4):
    pb = pullback_covering(cov02, GroupoidMorphism.identity(c4))
    assert equivalent_coverings(cov02, pb.covering) is not None
    # the pullback square commutes
    assert compose_morphisms(cov02.morphism, pb.to_total) == \
        compose_morphisms(GroupoidMorphism.identity(c4),
                          pb.covering.morphism)


def test_pullback_of_universal_by_itself(c4_univ):
    pb = pullback_covering(c4_univ, c4_univ.morphism)
    assert len(components(pb.covering.total)) == 4
    assert pb.covering.total.n_objects == 16


def test_pullback_of_classifier_doubles(c4, t1):
    from gpdcov import omega
    om = omega(c4)
    incl = GroupoidMorphism(t1, c4, (0,), (c4.identity[0],))
    pb = pullback_covering(om.covering, incl)
    parts = components(pb.covering.total)
    assert len(parts) == 2
    assert all(len(blk) == 1 for blk in parts.blocks)


def test_fibered_product_base_check(cov02, s3_covers):
    other = next(iter(s3_covers.values()))
    with pytest.raises(ValueError):
        fibered_product(cov02, other)


def test_lattice_c4_chain(lat_c4):
    assert len(lat_c4.nodes) == 3
    assert [n.fold for n in lat_c4.nodes] == [4, 2, 1]
    assert all(n.regular for n in lat_c4.nodes)
    n = len(lat_c4.nodes)
    for i in range(n):
        for j in range(n):
            assert lat_c4.subgroup_leq(i, j) or lat_c4.subgroup_leq(j, i)


def test_lattice_t1_single_node(t1):
    lat = build_lattice(t1, 0)
    assert len(lat.nodes) == 1
    assert lat.nodes[0].fold == 1 and lat.nodes[0].regular


def test_lattice_s3_shape(lat_s3):
    assert len(lat_s3.nodes) == 6
    assert sorted(n.fold for n in lat_s3.nodes) == [1, 2, 3, 3, 3, 6]
    assert sum(1 for n in lat_s3.nodes if not n.regular) == 3
    non_regular_folds = {n.fold for n in lat_s3.nodes if not n.regular}
    assert non_regular_folds == {3}


def test_lattice_order_reversal(lat_s3):
    n = len(lat_s3.nodes)
    for i in range(n):
        for j in range(n):
            sub_i = set(lat_s3.nodes[i].subgroup.elements)
            sub_j = set(lat_s3.nodes[j].subgroup.elements)
            assert lat_s3.covering_leq(i, j) == (sub_j <= sub_i)


def test_lattice_fold_is_index(lat_s3):
    for node in lat_s3.nodes:
        assert node.fold == \
            lat_s3.cov_group.order // node.subgroup.order


def test_classify_external_covers(lat_s3, s3_covers, s3):
    vg = vertex_group(s3, 0)
    for sub in vg.subgroups():
        cov = s3_covers[sub.elements]
        node = classify_covering(lat_s3, cov)
        assert node.fold == sub.index
        pair = equivalent_coverings(node.covering, cov)
        assert pair is not None
        # the equivalence really commutes over the base
        assert compose_morphisms(node.covering.morphism, pair.phi) == \
            compose_morphisms(pair.psi, cov.morphism)


def test_meet_examples(lat_s3):
    top = lat_s3.nodes[-1]  # whole subgroup = identity covering class
    assert top.subgroup.order == 6 and top.fold == 1
    for node in lat_s3.nodes:
        assert meet_covering(top, node) is node
        assert meet_covering(node, node) is node
    order2 = [n for n in lat_s3.nodes if n.subgroup.order == 2]
    bottom = lat_s3.nodes[0]
    for a in order2:
        for b in order2:
            if a is not b:
                assert meet_covering(a, b) is bottom


def test_lattice_dies_on_del_without_the_cycle_collector(c4):
    """Nodes hold their lattice weakly, so a lattice and its nodes form no
    cycle: with gc disabled it is freed on del.  Its nodes then have no
    lattice, which the meet refuses; the attribute stays read-only."""
    gc.disable()
    try:
        lat = build_lattice(c4, 0)
        node, ref = lat.nodes[0], weakref.ref(lat)
        assert node.lattice is lat
        del lat
        assert ref() is None
    finally:
        gc.enable()
    assert node.lattice is None
    with pytest.raises(ValueError, match="one lattice"):
        meet_covering(node, node)
    with pytest.raises(AttributeError):
        node.lattice = None


def test_join_via_pushout(lat_s3, s3):
    from gpdcov import find_groupoid_isomorphism
    order2 = [n for n in lat_s3.nodes if n.subgroup.order == 2]
    a, b = order2[0], order2[1]
    push = pushout_covering(orbit_of(a).covering, orbit_of(b).covering)
    # two distinct flips generate everything: the pushout is the
    # identity covering class, i.e. the base itself
    assert push.quotient.n_objects == 1
    assert find_groupoid_isomorphism(push.quotient, s3) is not None
    # legs commute with the orbit morphisms
    assert compose_morphisms(push.leg_first, orbit_of(a).projection) == \
        push.orbit_covering.morphism
    assert compose_morphisms(push.leg_second, orbit_of(b).projection) == \
        push.orbit_covering.morphism


def test_pushout_with_itself(lat_c4):
    mid = lat_c4.nodes[1]
    push = pushout_covering(orbit_of(mid).covering, orbit_of(mid).covering)
    assert push.quotient == orbit_of(mid).quotient


def test_pushout_with_whole_group(lat_c4):
    mid, top = lat_c4.nodes[1], lat_c4.nodes[2]
    push = pushout_covering(orbit_of(mid).covering, orbit_of(top).covering)
    assert push.quotient.n_objects == 1  # identity covering class


def test_pushout_requires_common_universal(lat_c4, lat_s3):
    with pytest.raises(ValueError):
        pushout_covering(orbit_of(lat_c4.nodes[1]).covering,
                         orbit_of(lat_s3.nodes[1]).covering)


def test_round_trip_through_gamma(lat_s3, s3_covers, s3):
    # delta(gamma(cover)) is equivalent to the cover: the round trip of
    # the main correspondence on external covers
    vg = vertex_group(s3, 0)
    half = vg.generated_subgroup([vg.index_of_name("(12)")])
    cov = s3_covers[half.elements]
    node = classify_covering(lat_s3, cov)
    assert equivalent_coverings(node.covering, cov) is not None


def test_quotient_vertex_groups_match_subgroups(lat_s3):
    from gpdcov.groups import find_isomorphism
    for node in lat_s3.nodes:
        vg = vertex_group(node.covering.total,
                          node.covering.marked_object)
        assert find_isomorphism(vg, node.subgroup.as_group()) is not None


# -- the closure-built pushout, verbatim ---------------------------------------

def reference_pushout_covering(p_orbit, q_orbit):
    """Pushout of two orbit morphisms out of the same universal total:
    the quotient by the group generated by both transformation groups."""
    if p_orbit.total != q_orbit.total:
        raise ValueError("orbit morphisms must share their source")
    if not is_connected(p_orbit.total) \
            or len(p_orbit.total.loops(0)) != 1:
        raise ValueError("pushout requires orbit morphisms from a "
                         "universal (connected, simply connected) total")
    cov_p = covering_transformations(p_orbit)
    cov_q = covering_transformations(q_orbit)
    # close the union of the two automorphism sets under composition
    gens = list(cov_p.transformations) + list(cov_q.transformations)
    closed = {}
    for t in gens:
        closed[(t.obj_map, t.arr_map)] = t
    frontier = list(closed.values())
    while frontier:
        nxt = []
        for t1 in gens:
            for t2 in frontier:
                c = compose_morphisms(t1, t2)
                key = (c.obj_map, c.arr_map)
                if key not in closed:
                    closed[key] = c
                    nxt.append(c)
        frontier = nxt
    morphs = sorted(closed.values(), key=lambda t: t.obj_map)
    pos = {t.obj_map: i for i, t in enumerate(morphs)}
    table = tuple(
        tuple(pos[compose_morphisms(t1, t2).obj_map] for t2 in morphs)
        for t1 in morphs)
    group = FiniteGroup(table)
    action = GroupAction(group, p_orbit.total,
                         tuple(t.obj_map for t in morphs),
                         tuple(t.arr_map for t in morphs))
    orb = orbit_groupoid(action)
    return PushoutResult(
        orbit_covering=orb.covering,
        quotient=orb.quotient,
        leg_first=_induced_on_quotient(p_orbit, orb.covering),
        leg_second=_induced_on_quotient(q_orbit, orb.covering))


LATTICE_BASES = dict(
    {f"fixture-{name}": load_groupoid(str(FIXTURES / f"{name}.json"))
     for name in ("c4", "i2", "s3", "t1")},
    **{name: g for name, g in CORPUS.items() if is_connected(g)})


@lru_cache(maxsize=None)
def lattice_of(name):
    return build_lattice(LATTICE_BASES[name])


def assert_same_maps(got, want):
    assert got.obj_map == want.obj_map and got.arr_map == want.arr_map


@pytest.mark.parametrize("name", sorted(LATTICE_BASES))
def test_pushout_matches_closure_reference(name):
    lat = lattice_of(name)
    for a in lat.nodes:
        for b in lat.nodes:
            p, q = orbit_of(a).covering, orbit_of(b).covering
            got = pushout_covering(p, q)
            want = reference_pushout_covering(p, q)
            quot = got.quotient
            assert quot is got.orbit_covering.base
            for attr in ("n_objects", "dom", "cod", "identity", "inverse",
                         "compose", "obj_labels", "arr_labels"):
                assert getattr(quot, attr) == getattr(want.quotient, attr)
            assert_same_maps(got.orbit_covering.morphism,
                             want.orbit_covering.morphism)
            assert got.orbit_covering.witnesses == \
                want.orbit_covering.witnesses
            assert got.orbit_covering.marked_object == \
                want.orbit_covering.marked_object
            for leg, source in (("leg_first", p), ("leg_second", q)):
                assert getattr(got, leg).source is source.base
                assert getattr(got, leg).target is quot
                assert_same_maps(getattr(got, leg), getattr(want, leg))


def test_pushout_builds_no_transformation_group(lat_s3, monkeypatch):
    """The pushout joins partitions: it enumerates no covering
    transformations and composes no morphisms."""
    import gpdcov.classify as classify
    import gpdcov.construct as construct

    def refuse(*args, **kwargs):
        raise AssertionError("called by pushout_covering")

    p, q = (orbit_of(n).covering for n in lat_s3.nodes[1:3])
    for name in ("covering_transformations", "compose_morphisms"):
        monkeypatch.setattr(classify, name, refuse)
    monkeypatch.setattr(construct, "orbit_groupoid", refuse)
    push = pushout_covering(p, q)
    assert push.quotient.n_objects == 1


def test_pushout_rejects_a_non_free_joint_action(c4_univ):
    """Two orbit morphisms of the C4 universal total whose transformations
    together fix an object: the rotations and the swap (0 1)(2 3)."""
    u = c4_univ.total
    swap = (1, 0, 3, 2)
    arr_map = tuple(u.hom(swap[u.dom[a]], swap[u.cod[a]])[0]
                    for a in u.arrows)
    from gpdcov import FiniteGroup, GroupAction, orbit_groupoid
    orb = orbit_groupoid(GroupAction(
        FiniteGroup.cyclic(2), u, (tuple(u.objects), swap),
        (tuple(u.arrows), arr_map)))
    with pytest.raises(ValueError, match="act freely together"):
        pushout_covering(c4_univ, orb.covering)


# -- the per-pair clauses of build_lattice before the object pass, verbatim ---

def _check_join(a: OrbitGroupoid, b: OrbitGroupoid, k: OrbitGroupoid):
    """Join law on a pair: k's orbits join a's and b's, and each arrow block
    of k is as large as its domain's object block (a free action).  Exact:
    the pushout's quotient is a function of the joined partitions, as k's
    (covering-checked with k) is of k's, and order reversal checks its legs.
    Blocks are numbered by least member: a least a-label names its block."""
    pa, pb, pk = a.projection, b.projection, k.projection
    same = True
    for ma, mb, mk in zip(*[(p.obj_map, p.arr_map) for p in (pa, pb, pk)]):
        rep = dict(zip(mb, ma))  # b-label -> an a-label that shares it
        part = partition(max(ma) + 1, set(zip(ma, map(rep.__getitem__, mb))))
        same = same and tuple(map(part.index.__getitem__, ma)) == mk
    dom, objs = pa.source.dom, k.obj_orbits
    if not same or any(len(blk) != len(objs[pk.obj_map[dom[blk[0]]]])
                       for blk in k.arr_orbits):
        raise TheoremViolation("pushout quotient differs from the join "
                               "node (clause: join law)")


def _check_meet(a: CoveringClass, b: CoveringClass, k: CoveringClass):
    """Meet law on a pair, on every object and arrow: k's quotient is the
    marked component C of the fibered product of a's and b's coverings,
    walked from the marks.  The walked pairs must be φ(U) for φ = (π_b,
    π_a), a functor over G, so φ is onto C, and φ must partition U as k's
    orbits do, so U/Π_k -> C is bijective, hence C ≅ k as pointed
    coverings.  As Π_a z ∩ Π_b z = (Π_a ∩ Π_b) z for a free action, φ's
    fibers are the intersection's orbits: a conjugate of k fails."""
    pa, pb, pk = (orbit_of(n).projection for n in (a, b, k))
    m = orbit_of(a).covering.mark
    objs, walk = _lift_walk(a.covering, b.covering.morphism,
                            (pb.obj_map[m], pa.obj_map[m]))
    walked = (set(objs), {(u, v) for u, v, _, _ in walk})
    for seen, mb, ma, mk in zip(walked, *[(p.obj_map, p.arr_map)
                                          for p in (pb, pa, pk)]):
        image = list(zip(mb, ma))  # φ on U's objects, then on its arrows
        if set(image) != seen or len(seen) != len(set(mk)) \
                or len(seen) != len(set(zip(image, mk))):
            raise TheoremViolation(_MEET_LAW)


def _orbit_map_exists(a: CoveringClass, b: CoveringClass) -> bool:
    """Whether quotient_a projects onto quotient_b compatibly with the two
    orbit morphisms (possible iff the a-orbits refine the b-orbits)."""
    try:
        m = factor_through(orbit_of(a).projection, orbit_of(b).projection)
    except ValueError:
        return False
    verified_covering(m, "induced projection between quotients")
    return True


# -- the join clause by joined orbit partitions --------------------------------

JOIN_LAW = "clause: join law"


def reference_join_clause(a, b, k):
    """The join clause as it was: rebuild the pushout quotient of a's and
    b's orbit morphisms and compare it with node k's quotient."""
    push = pushout_covering(orbit_of(a).covering, orbit_of(b).covering)
    return push.quotient == orbit_of(k).quotient


def join_clause_holds(a, b, k):
    try:
        _check_join(orbit_of(a), orbit_of(b), orbit_of(k))
    except TheoremViolation as exc:
        assert JOIN_LAW in str(exc)
        return False
    return True


def assert_join_clauses_agree(lat):
    """On every ordered pair, with every node of the lattice as candidate
    join node, both clauses give one verdict, true for the join node
    alone."""
    for i, a in enumerate(lat.nodes):
        for j, b in enumerate(lat.nodes):
            for k, node in enumerate(lat.nodes):
                holds = join_clause_holds(a, b, node)
                assert holds == (k == lat.join(i, j))
                assert holds == reference_join_clause(a, b, node)


@pytest.mark.parametrize("name", sorted(LATTICE_BASES))
def test_join_clause_matches_pushout_reference(name):
    assert_join_clauses_agree(lattice_of(name))


def union_components(n, *label_maps):
    """networkx's connected components of the graph on 0..n-1 with an edge
    between two elements that one of the label maps sends to one label."""
    graph = networkx.Graph()
    graph.add_nodes_from(range(n))
    for labels in label_maps:
        first = {}
        graph.add_edges_from((x, first.setdefault(v, x))
                             for x, v in enumerate(labels))
    return {frozenset(c) for c in networkx.connected_components(graph)}


@pytest.mark.parametrize("name", sorted(LATTICE_BASES))
def test_join_node_orbits_are_networkx_components(name):
    lat = lattice_of(name)
    u = lat.universal.total
    for i, a in enumerate(lat.nodes):
        for j, b in enumerate(lat.nodes):
            join = orbit_of(lat.nodes[lat.join(i, j)])
            pa, pb = orbit_of(a).projection, orbit_of(b).projection
            assert union_components(u.n_objects, pa.obj_map, pb.obj_map) \
                == set(map(frozenset, join.obj_orbits))
            assert union_components(u.n_arrows, pa.arr_map, pb.arr_map) \
                == set(map(frozenset, join.arr_orbits))


@pytest.mark.parametrize("name", sorted(LATTICE_BASES))
def test_pushout_legs_are_the_order_reversal_maps(name):
    """The legs of the pushout are the maps that the order-reversal clause
    builds and covering-checks on (i, join) and (j, join), which is why the
    join clause need not rebuild them."""
    lat = lattice_of(name)
    for i, a in enumerate(lat.nodes):
        for j, b in enumerate(lat.nodes):
            join = orbit_of(lat.nodes[lat.join(i, j)])
            push = pushout_covering(orbit_of(a).covering, orbit_of(b).covering)
            assert_same_maps(push.leg_first, factor_through(
                orbit_of(a).projection, join.projection))
            assert_same_maps(push.leg_second, factor_through(
                orbit_of(b).projection, join.projection))


def test_join_clause_compares_arrow_blocks(lat_s3):
    """A join node with the same object blocks and other arrow blocks is
    rejected: two arrows of different blocks trade labels."""
    top = lat_s3.nodes[-1]
    proj = orbit_of(top).projection
    arr_map = list(proj.arr_map)
    x, y = orbit_of(top).arr_orbits[0][1], orbit_of(top).arr_orbits[1][1]
    arr_map[x], arr_map[y] = arr_map[y], arr_map[x]
    fake = replace(orbit_of(top), projection=GroupoidMorphism(
        proj.source, proj.target, proj.obj_map, arr_map))
    _check_join(orbit_of(top), orbit_of(top), orbit_of(top))
    with pytest.raises(TheoremViolation, match=JOIN_LAW):
        _check_join(orbit_of(top), orbit_of(top), fake)


def test_join_clause_rejects_a_non_free_joint_action(lat_c4):
    """The C4 rotations and the swap (0 1)(2 3) of the universal total, as
    in test_pushout_rejects_a_non_free_joint_action.  A join node whose
    orbits are exactly their joined partitions passes the partition
    comparison, and the free-action test alone rejects it."""
    u = lat_c4.universal.total
    swap = (1, 0, 3, 2)
    arr_map = tuple(u.hom(swap[u.dom[a]], swap[u.cod[a]])[0]
                    for a in u.arrows)
    swapped = orbit_groupoid(GroupAction(
        FiniteGroup.cyclic(2), u, (tuple(u.objects), swap),
        (tuple(u.arrows), arr_map)))
    rotations = orbit_of(lat_c4.nodes[-1])
    pr, ps = rotations.projection, swapped.projection
    objs = partition(u.n_objects, _same_image_pairs(pr.obj_map, ps.obj_map))
    arrs = partition(u.n_arrows, _same_image_pairs(pr.arr_map, ps.arr_map))
    joined = SimpleNamespace(
        projection=SimpleNamespace(obj_map=objs.index, arr_map=arrs.index),
        obj_orbits=objs.blocks, arr_orbits=arrs.blocks)
    with pytest.raises(TheoremViolation, match=JOIN_LAW):
        _check_join(rotations, swapped, joined)


def corrupt_joined_labels(monkeypatch):
    """Nodes built and checked as usual, except that while the pair laws
    run, every partition merges blocks 0 and 1: the union-find join of a
    pair's labels, which only the join law reads, comes out coarser."""
    import gpdcov.classify as classify
    verify, part = classify._verify_lattice, classify.partition

    def corrupted(lat):
        monkeypatch.setattr(classify, "partition", lambda n, pairs: part(
            n, [*pairs, (0, min(1, n - 1))]))
        verify(lat)

    monkeypatch.setattr(classify, "_verify_lattice", corrupted)


def corrupt_join_table(monkeypatch):
    """The lattice names the meet where the join belongs."""
    monkeypatch.setattr(GaloisLattice, "join", GaloisLattice.meet)


JOIN_CORRUPTIONS = (corrupt_joined_labels, corrupt_join_table)


@pytest.mark.parametrize("corrupt", JOIN_CORRUPTIONS)
def test_build_lattice_rejects_a_corrupted_join_node(s3, monkeypatch,
                                                     corrupt):
    corrupt(monkeypatch)
    with pytest.raises(TheoremViolation, match=JOIN_LAW):
        build_lattice(s3, 0)


@pytest.mark.parametrize("corrupt", JOIN_CORRUPTIONS)
def test_cli_exits_3_on_a_corrupted_join_node(capsys, monkeypatch, corrupt):
    corrupt(monkeypatch)
    assert main(["lattice", str(FIXTURES / "s3.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert JOIN_LAW in captured.err


def test_build_lattice_builds_no_pushout(s3, monkeypatch):
    """Nodes are built from their labels and the join clause rebuilds
    nothing: no pushout, group action, orbit groupoid or explicit quotient
    of the universal total, no map pushed down a quotient and no covering
    check of a morphism; one covering_of_lifts call per node; and Cov is
    enumerated over the universal total once, then once per node
    covering, by is_regular."""
    import gpdcov.classify as classify
    import gpdcov.construct as construct
    import gpdcov.transform as transform

    def refuse(*args, **kwargs):
        raise AssertionError("called by build_lattice")

    for module, names in (
            (classify, ("pushout_covering", "quotient_covering",
                        "factor_through", "verified_covering")),
            (construct, ("GroupAction", "orbit_groupoid", "quotient_covering",
                         "factor_through", "verified_covering"))):
        for name in names:
            monkeypatch.setattr(module, name, refuse)
    built, enumerated = [], []
    lifts, cov = classify.covering_of_lifts, transform.covering_transformations
    monkeypatch.setattr(classify, "covering_of_lifts",
                        lambda *args: built.append(args) or lifts(*args))
    for module in (classify, transform):
        monkeypatch.setattr(module, "covering_transformations",
                            lambda p: enumerated.append(p) or cov(p))
    lat = build_lattice(s3, 0)
    assert len(built) == len(lat.nodes) == 6
    assert enumerated == [lat.universal, *(n.covering for n in lat.nodes)]


@pytest.mark.parametrize("name", sorted(LATTICE_BASES))
def test_nodes_match_their_orbit_groupoids(name):
    """Each node, built from its labels, is the node its orbit groupoid
    gave: the labels are the orbit projection on objects; the node
    covering has the quotient's objects over the same base objects and
    its mark, and is isomorphic to it over the base; and Cov of the orbit
    morphism is the node's subgroup."""
    lat = lattice_of(name)
    for node in lat.nodes:
        orb = orbit_of(node)
        quot = _quotient_to_base(lat.universal, orb)
        assert node.labels == orb.projection.obj_map
        assert node.covering.morphism.obj_map == quot.morphism.obj_map
        assert node.covering.marked_object == quot.marked_object
        assert find_covering_isomorphism(node.covering, quot) is not None
        back = covering_transformations(orb.covering).transformations
        assert lat.cov_group.subgroup_of_morphisms(back) == node.subgroup


def test_meet_and_join_tables_are_closed_once(lat_s3, monkeypatch):
    """meet and join read tables built with the lattice: after that no
    subgroup is closed, and the tables name the nodes of the intersection
    and of the generated subgroup."""
    subs = [n.subgroup for n in lat_s3.nodes]
    want_meet = [[lat_s3.node_for_subgroup(a.intersection(b)) for b in subs]
                 for a in subs]
    want_join = [[lat_s3.node_for_subgroup(a.join(b)) for b in subs]
                 for a in subs]

    def refuse(*args, **kwargs):
        raise AssertionError("subgroup closed after the lattice was built")

    monkeypatch.setattr(FiniteGroup, "closure", refuse)
    n = len(subs)
    for i in range(n):
        for j in range(n):
            assert lat_s3.nodes[lat_s3.meet(i, j)] is want_meet[i][j]
            assert lat_s3.nodes[lat_s3.join(i, j)] is want_join[i][j]


# -- the meet by component copy and unpointed equivalence, verbatim -----------

def reference_meet_covering(a, b):
    """The class of the component of the fibered product that the
    universal cover maps into; verified equivalent to the node of the
    subgroup intersection before returning it."""
    if a.lattice is None or a.lattice is not b.lattice:
        raise ValueError("classes must belong to one lattice")
    lat = a.lattice
    prod = fibered_product(a.covering, b.covering)
    marked = lat.universal.mark
    # obj_pairs carry (second factor, first factor); see fibered_product
    pair = (orbit_of(b).projection.obj_map[marked],
            orbit_of(a).projection.obj_map[marked])
    marked_obj = prod.obj_pairs.index(pair)
    parts = components(prod.covering.total)
    comp, obj_ids, arr_ids = component_subgroupoid(
        prod.covering.total, parts.blocks[parts.index[marked_obj]])
    incl_obj = {v: i for i, v in enumerate(obj_ids)}
    proj = GroupoidMorphism(
        comp, lat.base,
        tuple(prod.covering.morphism.obj_map[v] for v in obj_ids),
        tuple(prod.covering.morphism.arr_map[v] for v in arr_ids))
    comp_cov = verified_covering(proj, "pullback component",
                                 incl_obj[marked_obj])
    expect = lat.nodes[lat.meet(lat.index_of(a), lat.index_of(b))]
    if equivalent_coverings(expect.covering, comp_cov) is None:
        raise TheoremViolation(
            "pullback component is not equivalent to the intersection "
            "node (lattice meet law)")
    return expect


@pytest.mark.parametrize("name", sorted(LATTICE_BASES))
def test_meet_matches_component_reference(name):
    lat = lattice_of(name)
    for a in lat.nodes:
        for b in lat.nodes:
            assert meet_covering(a, b) is reference_meet_covering(a, b)


MEET_LAW = "lattice meet law"


def test_meet_rejects_wrong_nodes(lat_s3, monkeypatch):
    """Patched to name the universal node, the top node or a conjugate of
    the true meet, the meet clause raises each time.  The reference,
    which looks for an unpointed equivalence, accepts the conjugate: the
    two order-2 nodes are conjugate, so their quotients are equivalent
    coverings.  Their orbit partitions of the universal total differ."""
    a, conjugate = [n for n in lat_s3.nodes if n.subgroup.order == 2][:2]
    bottom, top = lat_s3.nodes[0], lat_s3.nodes[-1]
    assert bottom.subgroup.order == 1 and top.subgroup.order == 6
    assert meet_covering(a, a) is a
    for wrong in (bottom, top, conjugate):
        monkeypatch.setattr(lat_s3, "meet",
                            lambda i, j, k=lat_s3.index_of(wrong): k)
        with pytest.raises(TheoremViolation, match=MEET_LAW):
            meet_covering(a, a)
    assert reference_meet_covering(a, a) is conjugate


# -- the meet by a pointed lift into the marked component, verbatim ------------

def reference_marked_component(p, q, start):
    """The component of the fibered product of p and q holding ``start``
    = (object of total(q), object of total(p)), marked there, with its
    object and arrow pairs.  It is the lift walk of q's projection through
    p from ``start``: the arrows into (y, x) pair each arrow into y with
    the lift into x of its image, so the pairs reached are closed under
    whole stars, i.e. they are the component."""
    obj_pairs, walk = _lift_walk(p, q.morphism, start)
    arr_pairs = tuple((u, v) for u, v, _, _ in walk)
    qt, pt = q.total, p.total
    cov = covering_of_lifts(
        p.base, tuple(q.morphism.obj_map[y] for y, _ in obj_pairs),
        [(q.morphism.arr_map[u], d, c) for u, _, d, c in walk],
        tuple(f"({qt.obj_labels[y]},{pt.obj_labels[x]})"
              for y, x in obj_pairs),
        tuple(f"({qt.arr_labels[u]},{pt.arr_labels[v]})"
              for u, v in arr_pairs),
        "pullback component", 0)
    return cov, tuple(obj_pairs), arr_pairs


@lru_cache(maxsize=None)
def reference_meet_component(a, b):
    marked = a.lattice.universal.mark
    # pairs carry (second factor, first factor), as in fibered_product
    comp, _, _ = reference_marked_component(
        a.covering, b.covering,
        (orbit_of(b).projection.obj_map[marked],
         orbit_of(a).projection.obj_map[marked]))
    return comp


def reference_pointed_meet(a, b, k):
    """The meet clause as it was, with node k as the candidate: one
    pointed lift of k's covering into the marked component of the fibered
    product, which must be a bijection onto it.  The component is built
    once per pair."""
    comp = reference_meet_component(a, b)
    expect = k.covering
    m = lift_morphism(comp, expect.morphism, expect.mark, comp.mark)
    n, c = expect.total.n_objects, expect.total.n_arrows
    if (m is None or len(set(m.obj_map)) != n or len(set(m.arr_map)) != c
            or comp.total.n_objects != n or comp.total.n_arrows != c):
        raise TheoremViolation(
            "pullback component is not equivalent to the intersection "
            "node (lattice meet law)")


def meet_verdict(clause, a, b, k):
    try:
        clause(a, b, k)
    except TheoremViolation as exc:
        assert MEET_LAW in str(exc)
        return False
    return True


@pytest.mark.parametrize("name", sorted(LATTICE_BASES))
def test_meet_clause_matches_pointed_lift_reference(name):
    """On every ordered pair, with every node of the lattice as candidate
    meet node, the partition clause and the pointed lift give one verdict,
    true for the meet node alone."""
    lat = lattice_of(name)
    for i, a in enumerate(lat.nodes):
        for j, b in enumerate(lat.nodes):
            for k, node in enumerate(lat.nodes):
                verdict = meet_verdict(_check_meet, a, b, node)
                assert verdict == (k == lat.meet(i, j))
                assert verdict == \
                    meet_verdict(reference_pointed_meet, a, b, node)


def orbit_components(n, maps):
    """networkx's connected components of the graph on 0..n-1 that joins
    each x to its image under each of the maps."""
    graph = networkx.Graph()
    graph.add_nodes_from(range(n))
    for images in maps:
        graph.add_edges_from(enumerate(images))
    return {frozenset(c) for c in networkx.connected_components(graph)}


def blocks_of(labels):
    out = {}
    for x, v in enumerate(labels):
        out.setdefault(v, set()).add(x)
    return set(map(frozenset, out.values()))


@pytest.mark.parametrize("name", sorted(LATTICE_BASES))
def test_meet_node_orbits_are_networkx_components(name):
    """The orbits of Π_a ∩ Π_b, found by networkx from the covering
    transformations alone, are the meet node's orbits and the blocks of
    U's pairing by the two orbit projections."""
    lat = lattice_of(name)
    u, ts = lat.universal.total, lat.cov_group.transformations
    for i, a in enumerate(lat.nodes):
        for j, b in enumerate(lat.nodes):
            meet = orbit_of(lat.nodes[lat.meet(i, j)])
            common = [ts[e] for e in
                      set(a.subgroup.elements) & set(b.subgroup.elements)]
            pa, pb = orbit_of(a).projection, orbit_of(b).projection
            for n, attr, orbits in (
                    (u.n_objects, "obj_map", meet.obj_orbits),
                    (u.n_arrows, "arr_map", meet.arr_orbits)):
                want = orbit_components(
                    n, [getattr(t, attr) for t in common])
                assert set(map(frozenset, orbits)) == want
                assert blocks_of(zip(getattr(pb, attr),
                                     getattr(pa, attr))) == want


@pytest.mark.parametrize("name", sorted(LATTICE_BASES))
def test_meet_component_is_the_marked_block_of_the_product(name):
    """The breadth-first walk of the meet clause reaches exactly the
    marked block of the full fibered product: the same object pairs and
    the same arrow pairs, each once.  The block is also networkx's
    connected component of the product's dom–cod graph."""
    lat = lattice_of(name)
    marked = lat.universal.mark
    for a in lat.nodes:
        for b in lat.nodes:
            # (second factor, first factor), as in fibered_product
            start = (orbit_of(b).projection.obj_map[marked],
                     orbit_of(a).projection.obj_map[marked])
            obj_pairs, walk = _lift_walk(a.covering, b.covering.morphism,
                                         start)
            arr_pairs = [(u, v) for u, v, _, _ in walk]
            assert obj_pairs[0] == start
            prod = fibered_product(a.covering, b.covering)
            total = prod.covering.total
            marked_obj = prod.obj_pairs.index(start)
            parts = components(total)
            block = parts.blocks[parts.index[marked_obj]]
            block_arrows = [k for x in block for k in total._into[x]]
            assert len(obj_pairs) == len(set(obj_pairs)) == len(block)
            assert set(obj_pairs) == {prod.obj_pairs[x] for x in block}
            assert len(arr_pairs) == len(set(arr_pairs)) == \
                len(block_arrows)
            assert set(arr_pairs) == \
                {prod.arr_pairs[k] for k in block_arrows}
            graph = networkx.Graph()
            graph.add_nodes_from(total.objects)
            graph.add_edges_from(zip(total.dom, total.cod))
            assert networkx.node_connected_component(graph, marked_obj) \
                == set(block)


def test_meet_builds_no_groupoid(lat_s3, monkeypatch):
    """The meet clause builds no groupoid, and calls none of the
    constructions that the pointed lift or the full product need."""
    import gpdcov.classify as classify

    def refuse(*args, **kwargs):
        raise AssertionError("called by meet_covering")

    for name in ("covering_of_lifts", "lift_morphism", "fibered_product",
                 "pullback_covering"):
        monkeypatch.setattr(classify, name, refuse)
    monkeypatch.setattr(FiniteGroupoid, "__init__", refuse)
    for a in lat_s3.nodes:
        for b in lat_s3.nodes:
            assert meet_covering(a, b) is \
                lat_s3.nodes[lat_s3.meet(lat_s3.index_of(a),
                                         lat_s3.index_of(b))]


def relabelled(node, attr, change):
    """A stand-in for node's orbit groupoid whose labels on objects or
    arrows (``attr``) are rewritten by ``change``."""
    proj = orbit_of(node).projection
    maps = {"obj_map": proj.obj_map, "arr_map": proj.arr_map}
    maps[attr] = change(list(maps[attr]))
    return SimpleNamespace(projection=SimpleNamespace(**maps))


def merge_two_blocks(labels):
    return [0 if v == 1 else v for v in labels]


def split_one_block(labels):
    x = labels.index(labels[0], 1)  # a second member of block 0
    labels[x] = max(labels) + 1
    return labels


@pytest.mark.parametrize("attr", ["obj_map", "arr_map"])
@pytest.mark.parametrize("change", [merge_two_blocks, split_one_block])
def test_meet_rejects_a_k_that_merges_or_splits_blocks(lat_s3, monkeypatch,
                                                      attr, change):
    """A candidate whose labels merge two pair blocks, or split one, on
    objects or on arrows alone, fails; the true meet, here a itself,
    passes."""
    a = [n for n in lat_s3.nodes if n.subgroup.order == 2][0]
    _check_meet(a, a, a)
    k, orbit, fake = object(), orbit_of, relabelled(a, attr, change)
    monkeypatch.setitem(globals(), "orbit_of",
                        lambda n: fake if n is k else orbit(n))
    with pytest.raises(TheoremViolation, match=MEET_LAW):
        _check_meet(a, a, k)


def swapped(start):
    return start[::-1]


def next_in_fiber(start):
    return start[0], start[1] + 1


@pytest.mark.parametrize("name, i, j, restart", [
    # the swapped pair: another component, of another size
    ("codiscrete-2-x-s3-shuffled", 1, 3, swapped),
    # a = b regular of fold 2: the other component, of the same size
    ("fixture-s3", 4, 4, next_in_fiber),
])
def test_meet_rejects_a_walk_from_a_wrong_pair(monkeypatch, name, i, j,
                                               restart):
    """With the true meet node as k, a walk started at a pair outside the
    marked component fails; started at the pair of marks, it passes."""
    lat = lattice_of(name)
    a, b, k = lat.nodes[i], lat.nodes[j], lat.nodes[lat.meet(i, j)]
    mark = lat.universal.mark
    start = (orbit_of(b).projection.obj_map[mark],
             orbit_of(a).projection.obj_map[mark])
    assert restart(start) != start
    _check_meet(a, b, k)
    walk = _lift_walk
    monkeypatch.setitem(globals(), "_lift_walk",
                        lambda p, f, s: walk(p, f, restart(s)))
    with pytest.raises(TheoremViolation, match=MEET_LAW):
        _check_meet(a, b, k)


@pytest.mark.parametrize("name", sorted(LATTICE_BASES))
def test_join_table_is_the_generated_subgroup(name):
    """The join table, read from the node list as the least node above
    both, names the node of Subgroup.join on every ordered pair."""
    lat = lattice_of(name)
    subs = [node.subgroup for node in lat.nodes]
    for i, s in enumerate(subs):
        for j, t in enumerate(subs):
            assert lat.join(i, j) == lat.index_of(lat.node_for_subgroup(
                s.join(t)))


def test_join_table_closes_no_subgroup(s3, monkeypatch):
    """Building the tables closes no subgroup: the meet intersects
    element sets and the join is read from the node list."""
    lat = build_lattice(s3, 0)

    def refuse(*args, **kwargs):
        raise AssertionError("subgroup closed while building the tables")

    monkeypatch.setattr(FiniteGroup, "closure", refuse)
    again = GaloisLattice(lat.base, lat.base_object, lat.universal,
                          lat.cov_group, lat.nodes)
    n = len(lat)
    assert [[again.join(i, j) for j in range(n)] for i in range(n)] == \
        [[lat.join(i, j) for j in range(n)] for i in range(n)]


# -- the pair laws on the universal fiber's objects ----------------------------

ORDER_REVERSAL = "clause: order reversal"


def assert_object_laws_agree(lat, every_candidate=True):
    """On every ordered pair, the object-level laws of build_lattice give
    the verdicts of the per-pair clauses they replaced: _orbit_map_exists
    on the order, and _check_meet and _check_join on each candidate node
    (every node, or the table's meet and join nodes only), each true for
    the table's node alone.  The meet law is _meet_holds, which
    meet_covering runs too."""
    includes, joins = _object_laws(lat)
    for i, a in enumerate(lat.nodes):
        for j, b in enumerate(lat.nodes):
            assert includes(i, j) == _orbit_map_exists(a, b) == \
                lat.subgroup_leq(i, j)
            meet, join = lat.meet(i, j), lat.join(i, j)
            for k in range(len(lat)) if every_candidate else {meet, join}:
                node = lat.nodes[k]
                assert _meet_holds(a, b, node) == \
                    meet_verdict(_check_meet, a, b, node) == (k == meet)
                assert joins(i, j, k) == join_clause_holds(a, b, node) == \
                    (k == join)


@pytest.mark.parametrize("name", sorted(LATTICE_BASES))
def test_object_laws_match_the_per_pair_clauses(name):
    assert_object_laws_agree(lattice_of(name))


def test_the_meet_walk_must_reach_the_image_alone(lat_s3, monkeypatch):
    """The meet law's walk clause alone: a twin of an order-2 node keeps
    its labels, but its covering's transports are relabelled by the
    permutation σ of its quotient's objects that fixes the marked one.
    The product with the node then pairs the marks' orbit as {(σ(x), x)},
    as large as the image {(x, x)} of U, with as many blocks, but not the
    same set."""
    import gpdcov.classify as classify
    r = next(k for k, n in enumerate(lat_s3.nodes) if n.subgroup.order == 2)
    node, twin_id = lat_s3.nodes[r], len(lat_s3)
    labels = node.labels
    fixed = labels[lat_s3.universal.mark]
    b, c = sorted(set(labels) - {fixed})
    sigma = {fixed: fixed, b: c, c: b}
    twin = SimpleNamespace(labels=labels, covering=SimpleNamespace(
        mark=node.covering.mark, total=node.covering.total))
    moved = tuple({sigma[x]: sigma[y] for x, y in move.items()}
                  for move in transports(node.covering))
    monkeypatch.setattr(classify, "transports", lambda p: moved
                        if p is twin.covering else transports(p))
    includes, joins = _object_laws(SimpleNamespace(
        base=lat_s3.base, universal=lat_s3.universal,
        nodes=(*lat_s3.nodes, twin)))
    assert includes(r, twin_id) and joins(r, twin_id, r)
    assert _meet_holds(node, node, node)
    assert not _meet_holds(node, twin, node)


def test_the_pair_laws_read_no_arrow_of_u(s3, monkeypatch):
    """Past the per-node checks, the lattice is verified with no
    factor_through, covering check or lift walk, and every partition it
    makes is of object labels."""
    import gpdcov.classify as classify
    lat = build_lattice(s3, 0)

    def refuse(*args, **kwargs):
        raise AssertionError("called by the pair laws")

    for name in ("factor_through", "verified_covering", "meet_covering"):
        monkeypatch.setattr(classify, name, refuse)
    for name in ("_lift_walk", "_check_meet"):  # the oracles, here
        monkeypatch.setitem(globals(), name, refuse)
    sizes, part = [], classify.partition
    monkeypatch.setattr(classify, "partition",
                        lambda n, pairs: sizes.append(n) or part(n, pairs))
    classify._verify_lattice(lat)
    assert len(sizes) == len(lat) ** 2
    assert max(sizes) == lat.universal.total.n_objects < \
        lat.universal.total.n_arrows


def reverse_the_subgroup_order(monkeypatch):
    leq = GaloisLattice.subgroup_leq
    monkeypatch.setattr(GaloisLattice, "subgroup_leq",
                        lambda self, i, j: leq(self, j, i))


def name_the_join_as_meet(monkeypatch):
    monkeypatch.setattr(GaloisLattice, "meet", GaloisLattice.join)


def name_a_conjugate_as_meet(monkeypatch):
    """Where the meet is an order-2 node, name another one: the three are
    conjugate in S3, so their quotients are equivalent coverings."""
    meet = GaloisLattice.meet

    def conjugate(self, i, j):
        k = meet(self, i, j)
        twos = [m for m, n in enumerate(self.nodes) if n.subgroup.order == 2]
        return {twos[0]: twos[1], twos[1]: twos[0]}.get(k, k)

    monkeypatch.setattr(GaloisLattice, "meet", conjugate)


PAIR_CORRUPTIONS = [(reverse_the_subgroup_order, ORDER_REVERSAL),
                    (name_the_join_as_meet, MEET_LAW),
                    (name_a_conjugate_as_meet, MEET_LAW)]


@pytest.mark.parametrize("corrupt, clause", PAIR_CORRUPTIONS)
def test_build_lattice_raises_each_pair_clause(s3, monkeypatch, corrupt,
                                               clause):
    corrupt(monkeypatch)
    with pytest.raises(TheoremViolation, match=clause):
        build_lattice(s3, 0)


@pytest.mark.parametrize("corrupt, clause", PAIR_CORRUPTIONS)
def test_cli_exits_3_on_each_pair_clause(capsys, monkeypatch, corrupt,
                                         clause):
    corrupt(monkeypatch)
    assert main(["lattice", str(FIXTURES / "s3.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert clause in captured.err


# -- the node clauses of build_lattice -----------------------------------------

def break_label_compatibility(monkeypatch):
    """The A3 node's two blocks trade one member each: still two blocks of
    three, but the base's action no longer respects them."""
    import gpdcov.classify as classify
    part = classify.partition

    def traded(n, pairs):
        out = part(n, pairs)
        if len(out.blocks) != 2:
            return out
        labels = list(out.index)
        x, y = out.blocks[0][-1], out.blocks[1][-1]
        labels[x], labels[y] = labels[y], labels[x]
        return part(n, _same_image_pairs(labels))

    monkeypatch.setattr(classify, "partition", traded)


def label_a_node_as_its_conjugate(monkeypatch):
    """Each order-2 node is handed the first one's labels, which its
    conjugate subgroup fixes."""
    import gpdcov.classify as classify
    first = []

    def node(sub, covering, labels, *rest):
        if sub.order == 2:
            first.append(labels)
            labels = first[0]
        return CoveringClass(sub, covering, labels, *rest)

    monkeypatch.setattr(classify, "CoveringClass", node)


def miscount_the_fold(monkeypatch):
    import gpdcov.classify as classify
    fold = classify.fold
    monkeypatch.setattr(classify, "fold", lambda p: fold(p) + 1)


def flip_regularity(monkeypatch):
    import gpdcov.classify as classify
    is_regular = classify.is_regular
    monkeypatch.setattr(classify, "is_regular", lambda p: not is_regular(p))


def lose_the_vertex_group_isomorphism(monkeypatch):
    import gpdcov.classify as classify
    monkeypatch.setattr(classify, "find_isomorphism", lambda *args: None)


NODE_CORRUPTIONS = [
    (break_label_compatibility, "clause: label compatibility"),
    (label_a_node_as_its_conjugate, "clause: bijection round trip"),
    (miscount_the_fold, "clause: fold formula"),
    (flip_regularity, "clause: regularity"),
    (lose_the_vertex_group_isomorphism, "clause: quotient vertex group")]


@pytest.mark.parametrize("corrupt, clause", NODE_CORRUPTIONS)
def test_build_lattice_raises_each_node_clause(s3, monkeypatch, corrupt,
                                               clause):
    corrupt(monkeypatch)
    with pytest.raises(TheoremViolation, match=clause):
        build_lattice(s3, 0)


@pytest.mark.parametrize("corrupt, clause", NODE_CORRUPTIONS)
def test_cli_exits_3_on_each_node_clause(capsys, monkeypatch, corrupt,
                                         clause):
    corrupt(monkeypatch)
    assert main(["lattice", str(FIXTURES / "s3.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert clause in captured.err
