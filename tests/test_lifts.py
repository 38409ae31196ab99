"""The lift-built coverings against the hand-built ones.

``covering_from_subgroup``, ``exponential``, ``presheaf_to_covering``,
``pullback_covering`` and ``omega`` build their totals through
``covering_of_lifts``.
The constructions they replaced, which build identity, inverse and
composition tables by hand, are kept verbatim below as ``reference_*``.
On the generated groupoids of ``test_index.py`` and on coverings of them,
both must give the same ids, tables and labels.  The search of
``all_morphisms`` restricted to the morphisms over f is compared with
filtering the full enumeration, ``reference_morphisms_over``.
"""

import itertools
import re
from pathlib import Path

import networkx
import pytest

from gpdcov import (Covering, FiniteGroup, FiniteGroupoid, GroupoidMorphism,
                    TheoremViolation, all_morphisms, check_covering,
                    codiscrete_groupoid, covering_from_subgroup,
                    covering_morphisms, covering_to_presheaf,
                    disjoint_union, exponential, fiber, fiber_transport,
                    fold, group_groupoid, is_connected, monodromy, omega,
                    pullback_covering, require_covering, trivial_groupoid,
                    universal_cover, vertex_group)
from gpdcov import covering as covering_module
from gpdcov.classify import PullbackCovering
from gpdcov.documents import load_groupoid
from gpdcov.covering import (_iso_over, _seeded_lift, components,
                             compose_morphisms, covering_of_lifts,
                             factor_through, find_covering_isomorphism,
                             glue_morphism, groupoid_isomorphisms,
                             lift_morphism)
from gpdcov.groupoid import relabeled, validate
from gpdcov.selftest import _lift_triples
from gpdcov.topos import ExponentialCovering, Omega, presheaf_to_covering

from test_index import CORPUS

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# -- the hand-built constructions, verbatim ----------------------------------

def reference_covering_from_subgroup(g, g0, gamma):
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

    coset_of = {}
    cosets = []
    for a in g._out[g0]:
        if a in coset_of:
            continue
        coset = tuple(sorted(g.compose_arrows(a, t) for t in gamma_arrows))
        for b in coset:
            coset_of[b] = len(cosets)
        cosets.append(coset)
    # canonical object order: by least member arrow
    order = sorted(range(len(cosets)), key=lambda i: cosets[i][0])
    rank = {old: new for new, old in enumerate(order)}
    cosets = [cosets[i] for i in order]
    coset_of = {a: rank[i] for a, i in coset_of.items()}

    arrows = []  # (source coset, base arrow)
    for ci, coset in enumerate(cosets):
        arrows.extend((ci, barr) for barr in g._out[g.cod[coset[0]]])
    arr_index = {key: i for i, key in enumerate(arrows)}

    def target(ci, barr):
        return coset_of[g.compose_arrows(barr, cosets[ci][0])]

    dom = tuple(ci for ci, _ in arrows)
    cod = tuple(target(ci, barr) for ci, barr in arrows)
    identity = tuple(
        arr_index[(ci, g.identity[g.cod[cosets[ci][0]]])]
        for ci in range(len(cosets)))
    inverse = tuple(
        arr_index[(target(ci, barr), g.inverse[barr])]
        for ci, barr in arrows)
    # out_of[c]: the ids of the total arrows out of coset c, ascending.
    out_of = [[] for _ in cosets]
    for i, (ci, _) in enumerate(arrows):
        out_of[ci].append(i)
    compose = {}
    for j, (cj, bj) in enumerate(arrows):
        for i in out_of[target(cj, bj)]:
            compose[(i, j)] = arr_index[
                (cj, g.compose_arrows(arrows[i][1], bj))]
    total = FiniteGroupoid(
        len(cosets), dom, cod, identity, compose, inverse,
        obj_labels=tuple("[" + g.arr_labels[c[0]] + "]" for c in cosets),
        arr_labels=tuple(f"[{g.arr_labels[cosets[ci][0]]}]·"
                         f"{g.arr_labels[barr]}" for ci, barr in arrows))
    proj = GroupoidMorphism(
        total, g,
        tuple(g.cod[c[0]] for c in cosets),
        tuple(barr for _, barr in arrows))
    cov = check_covering(proj, coset_of[g.identity[g0]])
    if not isinstance(cov, Covering):
        raise TheoremViolation(
            f"coset construction failed the covering check: {cov.message}")
    return cov


def reference_exponential(p, q):
    """The covering whose fiber over each base object is the full set of
    maps Ob(fiber of q) -> Ob(fiber of p), with arrows transporting maps
    through both coverings' fiber transports."""
    if p.base != q.base:
        raise ValueError("coverings must share a base")
    base = p.base
    p_fibers = {c: fiber(p, c).objects for c in base.objects}
    q_fibers = {c: fiber(q, c).objects for c in base.objects}
    objects = []
    for c in base.objects:
        for assignment in itertools.product(p_fibers[c],
                                            repeat=len(q_fibers[c])):
            objects.append((c, assignment))
    index = {key: i for i, key in enumerate(objects)}

    p_transport = {g: fiber_transport(p, g).obj_map for g in base.arrows}
    q_transport = {g: fiber_transport(q, g).obj_map for g in base.arrows}

    def transported(g: int, cod_obj: int) -> int:
        """Domain object of the unique arrow over g into cod_obj."""
        c, assignment = objects[cod_obj]
        d = base.dom[g]
        amap = dict(zip(q_fibers[c], assignment))
        new_assignment = tuple(
            p_transport[g][amap[q_transport[base.inverse[g]][y]]]
            for y in q_fibers[d])
        return index[(d, new_assignment)]

    arrows = []
    for i, (c, _) in enumerate(objects):
        arrows.extend((g, i) for g in base._into[c])
    arrows.sort()
    apos = {key: k for k, key in enumerate(arrows)}
    dom = tuple(transported(g, i) for g, i in arrows)
    cod = tuple(i for _, i in arrows)
    identity = tuple(apos[(base.identity[c], i)]
                     for i, (c, _) in enumerate(objects))
    inverse = tuple(apos[(base.inverse[g], dom[k])]
                    for k, (g, _) in enumerate(arrows))
    compose = {}
    for k1, (g1, i1) in enumerate(arrows):
        for k2, (g2, i2) in enumerate(arrows):
            if i2 == dom[k1]:
                compose[(k1, k2)] = apos[(base.compose_arrows(g1, g2), i1)]
    gpd = FiniteGroupoid(
        len(objects), dom, cod, identity, compose, inverse,
        obj_labels=tuple(
            base.obj_labels[c] + "|" + ",".join(
                p.total.obj_labels[v] for v in assignment)
            for c, assignment in objects),
        arr_labels=tuple(f"{base.arr_labels[g]}@{i}" for g, i in arrows))
    proj = GroupoidMorphism(
        gpd, base,
        tuple(c for c, _ in objects),
        tuple(g for g, _ in arrows))
    cov = check_covering(proj)
    if not isinstance(cov, Covering):
        raise TheoremViolation(
            f"exponential projection failed the covering check: "
            f"{cov.message}")
    return ExponentialCovering(covering=cov, first=p, second=q,
                               objects=tuple(objects),
                               arrows=tuple(arrows), _index=index)


def reference_presheaf_to_covering(ps):
    """The covering of elements: one total object per (base object,
    element), one arrow into (c, v) per base arrow g into c, with domain
    (dom g, F(g)(v))."""
    ps.validate()
    base = ps.base
    objects = [(c, v) for c in base.objects for v in ps.sets[c]]
    opos = {key: i for i, key in enumerate(objects)}
    arrows = []
    for i, (c, _) in enumerate(objects):
        arrows.extend((g, i) for g in base._into[c])
    arrows.sort()
    apos = {key: k for k, key in enumerate(arrows)}

    def dom_obj(g, i):
        c, v = objects[i]
        return opos[(base.dom[g], ps.maps[g][v])]

    dom = tuple(dom_obj(g, i) for g, i in arrows)
    cod = tuple(i for _, i in arrows)
    identity = tuple(apos[(base.identity[c], i)]
                     for i, (c, _) in enumerate(objects))
    inverse = tuple(apos[(base.inverse[g], dom[k])]
                    for k, (g, _) in enumerate(arrows))
    compose = {}
    for k1, (g1, i1) in enumerate(arrows):
        for k2, (g2, i2) in enumerate(arrows):
            if i2 == dom[k1]:
                compose[(k1, k2)] = apos[(base.compose_arrows(g1, g2), i1)]
    gpd = FiniteGroupoid(
        len(objects), dom, cod, identity, compose, inverse,
        obj_labels=tuple(f"{base.obj_labels[c]}·{v}" for c, v in objects),
        arr_labels=tuple(f"{base.arr_labels[g]}·{objects[i][1]}"
                         for g, i in arrows))
    proj = GroupoidMorphism(
        gpd, base,
        tuple(c for c, _ in objects),
        tuple(g for g, _ in arrows))
    cov = check_covering(proj)
    if not isinstance(cov, Covering):
        raise TheoremViolation(
            f"covering of elements failed the covering check: "
            f"{cov.message}")
    return cov


def reference_pullback_covering(p, f):
    if f.target != p.base:
        raise ValueError("morphism must land in the covering's base")
    h = f.source
    t = p.total
    obj_pairs = tuple((x, y) for x in h.objects for y in t.objects
                      if f.obj_map[x] == p.morphism.obj_map[y])
    arr_pairs = tuple((a, b) for a in h.arrows for b in t.arrows
                      if f.arr_map[a] == p.morphism.arr_map[b])
    opos = {pair: i for i, pair in enumerate(obj_pairs)}
    apos = {pair: i for i, pair in enumerate(arr_pairs)}
    dom = tuple(opos[(h.dom[a], t.dom[b])] for a, b in arr_pairs)
    cod = tuple(opos[(h.cod[a], t.cod[b])] for a, b in arr_pairs)
    identity = tuple(apos[(h.identity[x], t.identity[y])]
                     for x, y in obj_pairs)
    inverse = tuple(apos[(h.inverse[a], t.inverse[b])] for a, b in arr_pairs)
    compose = {}
    for i, (a1, b1) in enumerate(arr_pairs):
        for j, (a2, b2) in enumerate(arr_pairs):
            if h.cod[a2] == h.dom[a1] and t.cod[b2] == t.dom[b1]:
                compose[(i, j)] = apos[(h.compose_arrows(a1, a2),
                                        t.compose_arrows(b1, b2))]
    gpd = FiniteGroupoid(
        len(obj_pairs), dom, cod, identity, compose, inverse,
        obj_labels=tuple(f"({h.obj_labels[x]},{t.obj_labels[y]})"
                         for x, y in obj_pairs),
        arr_labels=tuple(f"({h.arr_labels[a]},{t.arr_labels[b]})"
                         for a, b in arr_pairs))
    proj1 = GroupoidMorphism(gpd, h,
                             tuple(x for x, _ in obj_pairs),
                             tuple(a for a, _ in arr_pairs))
    proj2 = GroupoidMorphism(gpd, t,
                             tuple(y for _, y in obj_pairs),
                             tuple(b for _, b in arr_pairs))
    cov = check_covering(proj1)
    if not isinstance(cov, Covering):
        raise TheoremViolation(
            f"pullback projection failed the covering check: {cov.message}")
    return PullbackCovering(covering=cov, to_total=proj2,
                            obj_pairs=obj_pairs, arr_pairs=arr_pairs)


def reference_omega(g):
    two = disjoint_union(g, g)
    two = relabeled(
        two,
        obj_labels=tuple(lbl + ":t" for lbl in g.obj_labels)
        + tuple(lbl + ":f" for lbl in g.obj_labels),
        arr_labels=tuple(lbl + ":t" for lbl in g.arr_labels)
        + tuple(lbl + ":f" for lbl in g.arr_labels))
    proj = GroupoidMorphism(
        two, g,
        tuple(g.objects) + tuple(g.objects),
        tuple(g.arrows) + tuple(g.arrows))
    cov = check_covering(proj)
    if not isinstance(cov, Covering):
        raise TheoremViolation(f"classifier is not a covering: "
                               f"{cov.message}")
    no, na = g.n_objects, g.n_arrows
    true = GroupoidMorphism(g, two, tuple(g.objects), tuple(g.arrows))
    false = GroupoidMorphism(g, two,
                             tuple(x + no for x in g.objects),
                             tuple(a + na for a in g.arrows))
    return Omega(covering=cov, true=true, false=false,
                 true_objects=tuple(range(no)),
                 false_objects=tuple(range(no, 2 * no)))


def reference_seeded_iso_over(p, f):
    """An isomorphism g: f.source -> total(p) with p∘g = f, found by
    seeding unique lifting at every fiber object with matching loop-image
    group; None when no seed works."""
    src = f.source
    root = 0
    base_pt = f.obj_map[root]
    loop_imgs = {f.arr_map[a] for a in src.loops(root)}
    for cand in p.fibers[base_pt]:
        cand_imgs = {p.morphism.arr_map[a] for a in p.total.loops(cand)}
        if loop_imgs != cand_imgs:
            continue
        g = lift_morphism(p, f, root, cand)
        if g is not None and g.is_bijective():
            return g
    return None


def reference_find_covering_isomorphism(p, q):
    """An isomorphism phi: total(p) -> total(q) with q∘phi = p, matching
    components via seeded lifting; None if the coverings differ.  Bases
    must coincide; totals may be disconnected."""
    if p.base != q.base:
        raise ValueError("coverings must share a base")
    if p.total.n_objects != q.total.n_objects \
            or p.total.n_arrows != q.total.n_arrows:
        return None
    p_parts = components(p.total).blocks
    q_parts = components(q.total).blocks

    def block_pieces(block):
        root = block[0]
        base_pt = p.morphism.obj_map[root]
        loop_imgs = {p.morphism.arr_map[a] for a in p.total.loops(root)}
        found = []
        for j, qblock in enumerate(q_parts):
            if len(qblock) != len(block):
                continue
            for cand in qblock:
                if q.morphism.obj_map[cand] != base_pt:
                    continue
                cand_imgs = {q.morphism.arr_map[a]
                             for a in q.total.loops(cand)}
                if loop_imgs != cand_imgs:
                    continue
                piece = _seeded_lift(q, p.morphism, root, cand)
                found.append((j, piece))
        return found

    options = [block_pieces(block) for block in p_parts]

    def backtrack(i, used, acc):
        if i == len(p_parts):
            return list(acc)
        for j, piece in options[i]:
            if j in used:
                continue
            got = backtrack(i + 1, used | {j}, acc + [piece])
            if got is not None:
                return got
        return None

    combo = backtrack(0, frozenset(), [])
    if combo is None:
        return None
    phi = glue_morphism(p.total, q.total, combo)
    if not (phi.is_bijective() and phi.is_functorial()):
        return None
    if compose_morphisms(q.morphism, phi) != p.morphism:
        return None
    return phi


# -- comparison ---------------------------------------------------------------

def reference_morphisms_over(q, f, cap=200000):
    """The morphisms m: f.source -> q.source with q∘m = f, in the order of
    the full enumeration, by filtering that enumeration."""
    return [m for m in all_morphisms(f.source, q.source, cap=cap)
            if compose_morphisms(q, m) == f]


def assert_same_groupoid(got, want):
    assert got.n_objects == want.n_objects
    assert got.dom == want.dom and got.cod == want.cod
    assert got.identity == want.identity
    assert got.inverse == want.inverse
    assert got.compose == want.compose
    assert got.obj_labels == want.obj_labels
    assert got.arr_labels == want.arr_labels


def assert_same_morphism(got, want):
    assert got.obj_map == want.obj_map and got.arr_map == want.arr_map
    assert_same_groupoid(got.source, want.source)
    assert got.target is want.target


def assert_same_covering(got, want):
    assert_same_morphism(got.morphism, want.morphism)
    assert got.witnesses == want.witnesses
    assert got.marked_object == want.marked_object
    assert_fibers_match_scan(got)


def assert_fibers_match_scan(cov):
    """``fibers[y]`` against a scan of the object map; over a connected
    base, the fold is the size of the first fiber."""
    obj_map = cov.morphism.obj_map
    assert cov.fibers == tuple(
        tuple(x for x in cov.total.objects if obj_map[x] == y)
        for y in cov.base.objects)
    if is_connected(cov.base) and cov.total.n_objects:
        assert fold(cov) == len(cov.fibers[0])


# -- inputs: the generated groupoids and coverings of them -----------------

CONNECTED = sorted(name for name, g in CORPUS.items() if is_connected(g))
DISCONNECTED = sorted(name for name, g in CORPUS.items()
                      if not is_connected(g))
MAX_FOLD = 3  # keeps fold^fold exponential fibers small


def subgroup_covers(g, max_fold=None):
    """covering_from_subgroup at object 0 for every subgroup of the vertex
    group, ordered by the subgroup's elements."""
    vg = vertex_group(g, 0)
    return [covering_from_subgroup(g, 0, sub) for sub in vg.subgroups()
            if max_fold is None or sub.index <= max_fold]


def small_covers(name):
    """Coverings of one generated base with fold at most MAX_FOLD: coset
    covers when connected, plus the identity and the classifier."""
    g = CORPUS[name]
    covers = [require_covering(GroupoidMorphism.identity(g)),
              omega(g).covering]
    if is_connected(g):
        covers += subgroup_covers(g, MAX_FOLD)
    return covers


@pytest.mark.parametrize("name", CONNECTED)
def test_covering_from_subgroup_matches_reference(name):
    g = CORPUS[name]
    for x in sorted({0, g.n_objects - 1}):
        for sub in vertex_group(g, x).subgroups():
            assert_same_covering(covering_from_subgroup(g, x, sub),
                                 reference_covering_from_subgroup(g, x, sub))


@pytest.mark.parametrize("name", CONNECTED + DISCONNECTED)
def test_omega_matches_reference(name):
    got, want = omega(CORPUS[name]), reference_omega(CORPUS[name])
    assert_same_covering(got.covering, want.covering)
    for side in ("true", "false"):
        m, r = getattr(got, side), getattr(want, side)
        assert (m.obj_map, m.arr_map) == (r.obj_map, r.arr_map)
        assert m.source is r.source and m.target is got.covering.total
    assert got.true_objects == want.true_objects
    assert got.false_objects == want.false_objects


@pytest.mark.parametrize("name", CONNECTED + DISCONNECTED)
def test_exponential_matches_reference(name):
    covers = small_covers(name)
    for p, q in itertools.product(covers, repeat=2):
        got, want = exponential(p, q), reference_exponential(p, q)
        assert_same_covering(got.covering, want.covering)
        assert got.objects == want.objects and got.arrows == want.arrows
        assert got._index == want._index


@pytest.mark.parametrize("name", CONNECTED + DISCONNECTED)
def test_presheaf_to_covering_matches_reference(name):
    for cov in small_covers(name):
        ps = covering_to_presheaf(cov)
        assert_same_covering(presheaf_to_covering(ps),
                             reference_presheaf_to_covering(ps))


def _morphisms_into(name):
    """Morphisms into a generated base: the projections of its small
    coverings, and for connected bases every morphism from C2, whose
    images miss most of the base."""
    g = CORPUS[name]
    out = [cov.morphism for cov in small_covers(name)]
    if is_connected(g):
        out += list(all_morphisms(group_groupoid(FiniteGroup.cyclic(2)), g))
    return out


@pytest.mark.parametrize("name", CONNECTED + DISCONNECTED)
def test_pullback_covering_matches_reference(name):
    for p in small_covers(name):
        for f in _morphisms_into(name):
            got, want = pullback_covering(p, f), reference_pullback_covering(
                p, f)
            assert_same_covering(got.covering, want.covering)
            assert_same_morphism(got.to_total, want.to_total)
            assert got.obj_pairs == want.obj_pairs
            assert got.arr_pairs == want.arr_pairs


def test_loop_inclusion_pullback_matches_reference():
    """A pullback along a non-surjective inclusion of one vertex group."""
    g = CORPUS["codiscrete-2-x-s3-shuffled"]
    sub = CORPUS["loop-subgroupoid"]
    loops = g.loops(0)
    incl = GroupoidMorphism(sub, g, (0,), loops)
    for p in subgroup_covers(g):
        got, want = pullback_covering(p, incl), reference_pullback_covering(
            p, incl)
        assert_same_covering(got.covering, want.covering)
        assert got.arr_pairs == want.arr_pairs


@pytest.mark.parametrize("name", CONNECTED + DISCONNECTED)
def test_monodromy_orbits_are_networkx_components(name):
    """The orbit of x under the monodromy action is networkx's connected
    component of x in the graph on the fiber with the edges x — x·k.  An
    object off the fiber has no orbit."""
    for cov in small_covers(name):
        for b in cov.base.objects:
            if not cov.fibers[b]:
                continue
            act = monodromy(cov, b)
            graph = networkx.Graph()
            graph.add_nodes_from(act.carrier)
            graph.add_edges_from((x, act.act(x, k)) for x in act.carrier
                                 for k in range(act.group.order))
            for x in act.carrier:
                assert act.orbit(x) == tuple(sorted(
                    networkx.node_connected_component(graph, x)))
            assert act.is_transitive() == networkx.is_connected(graph)
            off = [x for x in cov.total.objects if x not in act.carrier]
            if off:
                with pytest.raises(ValueError, match="not in the fiber"):
                    act.orbit(off[0])


# -- the shared pieces --------------------------------------------------------

def test_covering_of_lifts_names_the_construction():
    """A lift table that is not a covering fails the covering check, and
    the violation names the construction."""
    g = CORPUS["s3"]
    e = g.identity[0]
    # two total objects, but every arrow is lifted only into object 0
    arrows = [(a, 0, 0) for a in g.arrows] + [(e, 1, 1)]
    with pytest.raises(TheoremViolation, match="^test lifts failed the "
                                               "covering check"):
        covering_of_lifts(g, (0, 0), arrows, ("a", "b"),
                          [str(k) for k in range(len(arrows))],
                          "test lifts")


def reference_lift_table(base, over, arrows, obj_labels, arr_labels):
    """The projection that ``covering_of_lifts`` built before it checked
    that the lifts are an action, unverified."""
    lift = {(g, c): k for k, (g, _, c) in enumerate(arrows)}
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
    return GroupoidMorphism(total, base, over, tuple(g for g, _, _ in arrows))


def test_covering_of_lifts_refuses_lifts_that_are_no_action():
    """Fold-2 lifts over the S3 fixture that swap the two points along a
    set S of arrows.  They are an action exactly when S is the kernel's
    complement of a homomorphism to C2: for S empty and for the odd
    permutations.  Every other S used to give a covering whose total is
    not a groupoid, as swapping along one non-identity arrow shows; now
    each is refused, and the two actions give the table of before."""
    base = load_groupoid(str(FIXTURES / "s3.json"))
    labels = [str(k) for k in range(2 * base.n_arrows)]
    actions = []
    for swapped in itertools.product((0, 1), repeat=base.n_arrows):
        arrows = [(g, c ^ swapped[g], c) for g in base.arrows
                  for c in (0, 1)]
        args = (base, (0, 0), arrows, ("p", "q"), labels)
        before = reference_lift_table(*args)
        if not validate(before.source).ok:
            with pytest.raises(TheoremViolation, match="^swap lifts failed "
                                                       "the covering check"):
                covering_of_lifts(*args, "swap lifts")
            continue
        assert isinstance(check_covering(before), Covering)
        assert covering_of_lifts(*args, "swap lifts").morphism == before
        actions.append(swapped)
    vg = vertex_group(base, 0)  # arrow ids are element ids here
    sign = tuple(int(vg.element_order(g) == 2) for g in base.arrows)
    assert actions == [(0,) * base.n_arrows, sign]
    one = base.arrows[1]  # not the identity
    broken = reference_lift_table(
        base, (0, 0), [(g, c ^ (g == one), c) for g in base.arrows
                       for c in (0, 1)], ("p", "q"), labels)
    assert "compose-endpoints" in {
        v.kind for v in validate(broken.source).violations}


def _fold_two(pull):
    """Fold-2 lift triples over the six arrows of S3: the lift of g into
    c starts at pull(g, c)."""
    return [(g, pull(g, c), c) for g in range(6) for c in (0, 1)]


#: i2's arrows are id_x, id_y, f: x -> y and g: y -> x; p lies over x
#: and q over y, and the lifts of the identity covering are these.
I2_LIFTS = [(0, 0, 0), (1, 1, 1), (2, 0, 1), (3, 1, 0)]
ONE_PER_ARROW = "not one per base arrow into each object's image"


@pytest.mark.parametrize("fixture, arrows, fault", [
    ("s3", _fold_two(lambda g, c: c)[1:], ONE_PER_ARROW),
    ("s3", _fold_two(lambda g, c: 1 - c), "identity does not fix p"),
    ("s3", _fold_two(lambda g, c: c if g == 0 else 0),
     "transport along (23) is not injective"),
    ("s3", _fold_two(lambda g, c: c ^ (g == 1)),
     "lifts of (23)∘(12) are not those of its factors"),
    ("i2", I2_LIFTS[:2] + [(2, 1, 1), (3, 1, 0)], ONE_PER_ARROW),
    ("i2", I2_LIFTS[:2] + [(2, 0, 0), (3, 1, 0)], ONE_PER_ARROW),
])
def test_covering_of_lifts_names_each_action_fault(fixture, arrows, fault):
    base = load_groupoid(str(FIXTURES / f"{fixture}.json"))
    over = (0, 0) if fixture == "s3" else (0, 1)
    with pytest.raises(TheoremViolation, match="^lifts failed the "
                       f"covering check: .*{re.escape(fault)}$"):
        covering_of_lifts(base, over, arrows, ("p", "q"),
                          [str(k) for k in range(len(arrows))], "lifts")


@pytest.mark.parametrize("name", CONNECTED + DISCONNECTED)
def test_every_covering_of_the_corpus_is_an_action(name):
    """The lifts of each covering the corpus builds, including the ones
    not built from lifts, pass the action check."""
    covers = small_covers(name)
    covers += [exponential(p, q).covering for p in covers[:2]
               for q in covers[:2]]
    for cov in covers:
        m = cov.morphism
        arrows = [(m.arr_map[k], m.source.dom[k], m.source.cod[k])
                  for k in m.source.arrows]
        lift = {(g, c): k for k, (g, _, c) in enumerate(arrows)}
        assert covering_module._action_fault(
            cov.base, m.obj_map, arrows, lift, m.source.obj_labels) is None


def test_factor_through_recovers_the_quotient_map():
    g = CORPUS["codiscrete-2-x-c3"]
    ident = GroupoidMorphism.identity(g)
    for cov in subgroup_covers(g):
        assert factor_through(cov.morphism, cov.morphism) == ident
    u = universal_cover(g)
    with pytest.raises(ValueError, match="fiber over object 0 maps to"):
        factor_through(u.morphism, GroupoidMorphism.identity(u.total))


def test_factor_through_names_a_missed_id():
    g = CORPUS["codiscrete-2-x-c3"]
    one = FiniteGroupoid(1, (0,), (0,), (0,), {(0, 0): 0}, (0,))
    point = GroupoidMorphism(one, g, (0,), (g.identity[0],))
    with pytest.raises(ValueError, match="^object 1 is not hit$"):
        factor_through(point, GroupoidMorphism.identity(one))


# -- the isomorphism search and the fiber presheaf ----------------------------

def assert_same_or_none(got, want):
    assert (got is None) == (want is None)
    if got is not None:
        assert (got.obj_map, got.arr_map) == (want.obj_map, want.arr_map)
        assert got.source is want.source


@pytest.mark.parametrize("name", CONNECTED + DISCONNECTED)
def test_iso_search_matches_reference(name):
    """``find_covering_isomorphism`` against the per-candidate search, and
    ``_iso_over`` on connected totals against the seeded search of
    ``equivalent_coverings``, along the identity and some isomorphisms of
    the base."""
    covers = small_covers(name)
    for p, q in itertools.product(covers, repeat=2):
        assert_same_or_none(find_covering_isomorphism(p, q),
                            reference_find_covering_isomorphism(p, q))
        if not (is_connected(p.total) and is_connected(q.total)) \
                or p.total.n_objects != q.total.n_objects \
                or p.total.n_arrows != q.total.n_arrows:
            continue
        bases = [GroupoidMorphism.identity(p.base)] + list(
            itertools.islice(groupoid_isomorphisms(q.base, p.base), 3))
        for psi in bases:
            f = compose_morphisms(psi, q.morphism)
            assert_same_or_none(_iso_over(f, p),
                                reference_seeded_iso_over(p, f))


def _no_groupoids(self, *args, **kwargs):
    raise AssertionError("a groupoid was built")


@pytest.mark.parametrize("name", CONNECTED + DISCONNECTED)
def test_presheaf_maps_match_fiber_transport(name, monkeypatch):
    """The maps of ``covering_to_presheaf`` are the object parts of
    ``fiber_transport``, key order included, and building them builds no
    groupoid."""
    for cov in small_covers(name):
        want = {g: fiber_transport(cov, g).obj_map for g in cov.base.arrows}
        with monkeypatch.context() as patch:
            patch.setattr(FiniteGroupoid, "__init__", _no_groupoids)
            ps = covering_to_presheaf(cov)
        assert [list(ps.maps[g].items()) for g in cov.base.arrows] == \
            [list(want[g].items()) for g in cov.base.arrows]


# -- the search over f --------------------------------------------------------

REFERENCE_CAP = 2000  # past it the full enumeration takes seconds per base


def maps_of(morphisms):
    return [(m.obj_map, m.arr_map) for m in morphisms]


def morphisms_over(q, f, **kwargs):
    return list(all_morphisms(f.source, q.source, over=(q, f), **kwargs))


def test_search_over_f_matches_reference_on_lift_triples():
    """The lift pairs of acceptance #4 except the six along the S3 fold-6
    projection, which the acceptance check itself covers."""
    triples = [(p, f) for p, f, label in _lift_triples()
               if label != "S3 cover fold 6"]
    assert len(triples) == 48
    for p, f in triples:
        got = morphisms_over(p.morphism, f)
        assert maps_of(got) == maps_of(reference_morphisms_over(p.morphism,
                                                                f))
        assert all(m.source is f.source and m.target is p.total
                   for m in got)


@pytest.mark.parametrize("name", CONNECTED)
def test_search_over_f_matches_reference(name):
    """Every pair whose full enumeration stays within REFERENCE_CAP; the
    pairs along a covering projection are all compared with
    ``covering_morphisms`` below."""
    compared = 0
    for p in small_covers(name):
        for f in _morphisms_into(name):
            try:
                want = reference_morphisms_over(p.morphism, f,
                                                cap=REFERENCE_CAP)
            except ValueError:
                continue
            assert maps_of(morphisms_over(p.morphism, f)) == maps_of(want)
            compared += 1
    assert compared >= len(small_covers(name))


@pytest.mark.parametrize("name", CONNECTED + DISCONNECTED)
def test_search_over_a_covering_matches_covering_morphisms(name):
    for p, q in itertools.product(small_covers(name), repeat=2):
        assert maps_of(morphisms_over(p.morphism, q.morphism)) == \
            maps_of(covering_morphisms(q, p))


def test_search_over_f_does_not_assume_a_covering():
    """q: codiscrete(2) -> trivial is no covering, and all four
    endomorphisms of codiscrete(2) lie over it."""
    i2 = codiscrete_groupoid(2)
    q = GroupoidMorphism(i2, trivial_groupoid(), (0, 0), (0,) * i2.n_arrows)
    want = reference_morphisms_over(q, q)
    assert len(want) == 4
    assert maps_of(morphisms_over(q, q)) == maps_of(want)


def test_search_over_f_bounds_and_visits_only_the_fiber(monkeypatch):
    """The bound counts the restricted candidates, and homomorphisms are
    enumerated into the fiber objects only."""
    g = codiscrete_groupoid(3)
    point = trivial_groupoid()
    f = GroupoidMorphism(point, g, (1,), (g.identity[1],))
    q = GroupoidMorphism.identity(g)
    assert maps_of(morphisms_over(q, f, cap=1)) == maps_of([f])
    with pytest.raises(ValueError, match="bound exceeds 1"):
        list(all_morphisms(point, g, cap=1))
    calls = []
    original = covering_module.all_homomorphisms

    def counted(source, target):
        calls.append(target.at)
        return original(source, target)

    monkeypatch.setattr(covering_module, "all_homomorphisms", counted)
    f = GroupoidMorphism.identity(CORPUS["codiscrete-2-x-c3"])
    for p in small_covers("codiscrete-2-x-c3"):
        calls.clear()
        morphisms_over(p.morphism, f)
        assert calls == list(p.fibers[0]) != list(p.total.objects)


def test_search_over_f_rejects_mismatched_maps():
    g = codiscrete_groupoid(2)
    ident = GroupoidMorphism.identity(g)
    with pytest.raises(ValueError, match="over="):
        list(all_morphisms(trivial_groupoid(), g, over=(ident, ident)))


# -- lift-built coverings are proved once --------------------------------------

def assert_proved_by_its_lifts(cov):
    """A covering built by ``covering_of_lifts`` passes the check it no
    longer runs: ``check_covering`` gives the same witnesses, in the same
    order, and the same mark, and the total is a groupoid."""
    again = check_covering(cov.morphism, cov.marked_object)
    assert isinstance(again, Covering)
    assert [list(w.items()) for w in again.witnesses] == \
        [list(w.items()) for w in cov.witnesses]
    assert again.marked_object == cov.marked_object
    assert validate(cov.total).ok


@pytest.mark.parametrize("name", CONNECTED + DISCONNECTED)
def test_lift_built_coverings_pass_the_covering_check(name):
    """Every covering the corpus builds from lifts: coset covers of every
    subgroup (the universal cover among them), the classifier,
    exponentials, coverings of elements and pullbacks."""
    g = CORPUS[name]
    covers = small_covers(name)
    built = [omega(g).covering]
    if is_connected(g):
        built += subgroup_covers(g) + [universal_cover(g)]
    built += [exponential(p, q).covering
              for p, q in itertools.product(covers, repeat=2)]
    built += [presheaf_to_covering(covering_to_presheaf(cov))
              for cov in covers]
    built += [pullback_covering(p, f).covering for p in covers
              for f in _morphisms_into(name)]
    for cov in built:
        assert_proved_by_its_lifts(cov)


def test_swap_actions_pass_the_covering_check():
    """The two swap sets over the S3 fixture that are actions (see
    ``test_covering_of_lifts_refuses_lifts_that_are_no_action``)."""
    base = load_groupoid(str(FIXTURES / "s3.json"))
    labels = [str(k) for k in range(2 * base.n_arrows)]
    built = 0
    for swapped in itertools.product((0, 1), repeat=base.n_arrows):
        arrows = [(g, c ^ swapped[g], c) for g in base.arrows
                  for c in (0, 1)]
        for mark in (None, 1):
            try:
                cov = covering_of_lifts(base, (0, 0), arrows, ("p", "q"),
                                        labels, "swap lifts", mark)
            except TheoremViolation:
                continue
            assert_proved_by_its_lifts(cov)
            built += 1
    assert built == 4


def reference_transport_arrows(p, f_arrow):
    """The arrow map of ``fiber_transport`` as it was: s ↦ a2⁻¹∘s∘a1,
    with a1, a2 the lifts of f into dom s and cod s."""
    total, arr_map = p.total, {}
    for s in fiber(p, p.base.cod[f_arrow]).arrows:
        a1 = p.lift(f_arrow, total.dom[s])
        a2 = p.lift(f_arrow, total.cod[s])
        arr_map[s] = total.compose_arrows(
            total.compose_arrows(total.inverse[a2], s), a1)
    return arr_map


@pytest.mark.parametrize("name", CONNECTED + DISCONNECTED)
def test_fiber_transport_arrows_match_reference(name):
    for cov in small_covers(name):
        for f in cov.base.arrows:
            got = fiber_transport(cov, f).arr_map
            assert list(got.items()) == list(
                reference_transport_arrows(cov, f).items())
