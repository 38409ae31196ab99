import random
from pathlib import Path

import pytest

from gpdcov import (Covering, CoveringFailure, FiniteGroup,
                    GroupoidMorphism, all_morphisms, check_covering,
                    compose_morphisms, covering_from_subgroup,
                    covering_morphisms, covering_transformations,
                    equivalent_coverings, fiber, fibered_product,
                    fiber_transport, fold, generators, group_groupoid,
                    is_connected, is_weak_equivalence, lift_arrow,
                    lift_morphism, monodromy, omega, orbit_groupoid,
                    pushforward_vertex, require_covering, universal_cover,
                    verified_covering, vertex_group)
from gpdcov.covering import find_covering_isomorphism
from gpdcov.documents import load_covering
from gpdcov.errors import TheoremViolation

from test_index import CORPUS, CORRUPTIONS
from test_lifts import small_covers


def test_identity_is_covering(c4):
    out = check_covering(GroupoidMorphism.identity(c4))
    assert isinstance(out, Covering)
    assert fold(out) == 1


def test_fold_map_is_covering(c4):
    om = omega(c4)
    out = check_covering(om.covering.morphism)
    assert isinstance(out, Covering)
    assert fold(out) == 2


def test_collapse_is_not_covering(i2, t1):
    collapse = GroupoidMorphism(i2, t1, (0, 0), (0, 0, 0, 0))
    out = check_covering(collapse)
    assert isinstance(out, CoveringFailure)
    assert out.at_object == 0
    assert (out.total_star_size, out.base_star_size) == (2, 1)
    with pytest.raises(ValueError):
        require_covering(collapse)


def test_check_covering_rejects_nonfunctorial(c4, t1):
    bad = GroupoidMorphism(c4, c4, (0,), (0, 2, 1, 3))
    with pytest.raises(ValueError):
        check_covering(bad)


def test_fiber_examples(id_c4, cov02, c4):
    fb = fiber(id_c4, 0)
    assert fb.objects == (0,) and len(fb.arrows) == 1  # only the identity
    om = omega(c4)
    fb2 = fiber(om.covering, 0)
    assert len(fb2.objects) == 2
    assert all(len(fb2.groupoid.loops(x)) == 1
               for x in fb2.groupoid.objects)
    assert len(fiber(cov02, 0).objects) == 2
    with pytest.raises(ValueError):
        fiber(cov02, 9)


def test_fiber_transport_identity(cov02, c4):
    tr = fiber_transport(cov02, c4.identity[0])
    assert all(tr.obj_map[x] == x for x in tr.obj_map)
    assert all(tr.arr_map[a] == a for a in tr.arr_map)


def test_fiber_transport_generator_cycles(c4_univ):
    # objects of the universal total are the singleton classes of the
    # four loops, in arrow order; transporting along the generator shifts
    # every class down by one
    tr = fiber_transport(c4_univ, 1)
    assert tr.obj_map == {b: (b + 3) % 4 for b in range(4)}


def test_fiber_transport_contravariant(c4_univ, c4):
    for f in range(4):
        for g in range(4):
            tf = fiber_transport(c4_univ, f)
            tg = fiber_transport(c4_univ, g)
            tfg = fiber_transport(c4_univ, c4.compose_arrows(f, g))
            for x in tfg.obj_map:
                assert tfg.obj_map[x] == tg.obj_map[tf.obj_map[x]]


def test_transport_then_inverse_is_identity(cov02, c4):
    tr = fiber_transport(cov02, 1)
    back = fiber_transport(cov02, c4.inverse[1])
    for x in tr.obj_map:
        assert back.obj_map[tr.obj_map[x]] == x


def test_lift_arrow(c4_univ, cov02, c4):
    # identity lifts to the identity
    for x in c4_univ.total.objects:
        e = c4.identity[0]
        assert lift_arrow(c4_univ, e, x) == c4_univ.total.identity[x]
    # uniqueness oracle: scan the star directly
    for at in c4_univ.total.objects:
        for a in range(4):
            lifted = lift_arrow(c4_univ, a, at)
            matches = [b for b in c4_univ.total.arrows
                       if c4_univ.total.cod[b] == at
                       and c4_univ.morphism.arr_map[b] == a]
            assert matches == [lifted]
    # the loop 2 lifts to loops on the half cover
    for at in cov02.total.objects:
        lifted = lift_arrow(cov02, 2, at)
        assert cov02.total.dom[lifted] == at
    with pytest.raises(ValueError):
        lift_arrow(cov02, 1, 99)


def test_pushforward_examples(c4_univ, id_c4, cov02):
    assert pushforward_vertex(c4_univ, 0).elements == (0,)
    assert pushforward_vertex(id_c4, 0).elements == (0, 1, 2, 3)
    got = pushforward_vertex(cov02, cov02.marked_object)
    arrows = tuple(got.parent.arrows[k] for k in got.elements)
    assert arrows == (0, 2)


def test_lift_morphism_examples(c4, c4_univ, cov02, t1):
    # lifting the projection against itself with the identity seed
    m = lift_morphism(cov02, cov02.morphism, cov02.marked_object,
                      cov02.marked_object)
    assert m == GroupoidMorphism.identity(cov02.total)
    # constant morphism from the point lifts everywhere
    const = GroupoidMorphism(t1, c4, (0,), (c4.identity[0],))
    for seed in c4_univ.total.objects:
        got = lift_morphism(c4_univ, const, 0, seed)
        assert got is not None and got.obj_map == (seed,)
    # the identity of the base does not lift to a proper cover
    assert lift_morphism(cov02, GroupoidMorphism.identity(c4), 0,
                         cov02.marked_object) is None
    with pytest.raises(ValueError):
        lift_morphism(cov02, GroupoidMorphism.identity(c4), 0, 99)


def test_lift_morphism_requires_connected_source(c4, cov02):
    from gpdcov import disjoint_union
    two = disjoint_union(c4, c4)
    m = GroupoidMorphism(two, c4, (0, 0), tuple(range(4)) + tuple(range(4)))
    with pytest.raises(ValueError, match="^lifting requires a connected "
                                         "source$"):
        lift_morphism(cov02, m, 0, 0)


def test_monodromy(id_c4, c4_univ, cov02):
    act = monodromy(id_c4, 0)
    assert act.carrier == (0,)
    assert act.stabilizer(0).order == 4
    act = monodromy(c4_univ, 0)
    assert len(act.carrier) == 4 and act.is_transitive()
    # regular right action: the table is the right translation table
    for x in act.carrier:
        assert sorted(act.act(x, k) for k in range(4)) == [0, 1, 2, 3]
        assert act.stabilizer(x).order == 1
    act = monodromy(cov02, 0)
    assert len(act.orbit(act.carrier[0])) == 2
    assert act.stabilizer(cov02.marked_object).elements == (0, 2)


def test_orbit_stabilizer_product(s3_covers):
    for cov in s3_covers.values():
        act = monodromy(cov, 0)
        for x in act.carrier:
            assert len(act.orbit(x)) * act.stabilizer(x).order == 6


def test_fold_equals_index(s3_covers, cov02):
    for elems, cov in s3_covers.items():
        assert fold(cov) == 6 // len(elems)
    assert fold(cov02) == 2


def test_fold_preconditions(c4):
    from gpdcov import disjoint_union
    two = disjoint_union(c4, c4)
    bad = require_covering(GroupoidMorphism(
        c4, two, (0,), tuple(range(4))))
    with pytest.raises(ValueError):
        fold(bad)  # base disconnected


def test_weak_equivalence(c4, c4_univ, t1, i2):
    assert is_weak_equivalence(GroupoidMorphism.identity(c4))
    assert not is_weak_equivalence(c4_univ.morphism)
    incl = GroupoidMorphism(t1, i2, (0,), (i2.identity[0],))
    assert is_weak_equivalence(incl)


def test_weak_equivalence_plus_covering_is_iso(s3_covers, id_c4):
    for cov in s3_covers.values():
        assert is_weak_equivalence(cov.morphism) == \
            cov.morphism.is_bijective()
    assert is_weak_equivalence(id_c4.morphism)


def test_lifting_composites_composes_lifts(cov02, c4_univ, c4):
    # witnesses compose: the lift of f∘h into x is the lift of f into x
    # composed with the lift of h into its domain
    for cov in (cov02, c4_univ):
        for at in cov.total.objects:
            for f in c4.arrows:
                for h in c4.arrows:
                    lf = lift_arrow(cov, f, at)
                    lh = lift_arrow(cov, h, cov.total.dom[lf])
                    combined = cov.total.compose_arrows(lf, lh)
                    assert combined == lift_arrow(
                        cov, c4.compose_arrows(f, h), at)


def test_arrow_between_coverings_is_covering(c4, c4_univ, cov02,
                                             s3_univ, s3_covers):
    triangles = [(cov02, c4_univ)]
    triangles += [(cov, s3_univ) for cov in s3_covers.values()]
    for below, above in triangles:
        seed = next(x for x in below.total.objects
                    if below.morphism.obj_map[x] ==
                    above.morphism.obj_map[above.marked_object])
        r = lift_morphism(below, above.morphism, above.marked_object,
                          seed)
        assert r is not None
        assert compose_morphisms(below.morphism, r) == above.morphism
        assert isinstance(check_covering(r), Covering)


def test_connected_coverings_are_epi(c4, cov02):
    target = group_groupoid(FiniteGroup.symmetric(3))
    seen = {}
    for m in all_morphisms(c4, target):
        key = tuple(compose_morphisms(m, cov02.morphism).arr_map)
        assert key not in seen or seen[key] == (m.obj_map, m.arr_map)
        seen[key] = (m.obj_map, m.arr_map)


def test_covering_morphisms_counts(id_c4, cov02, c4_univ):
    # nothing maps the identity covering into a proper cover
    assert covering_morphisms(id_c4, cov02) == []
    # exactly one projection from the half cover down to the identity
    assert len(covering_morphisms(cov02, id_c4)) == 1
    # the universal cover maps onto the half cover once per fiber point
    assert len(covering_morphisms(c4_univ, cov02)) == 2
    assert len(covering_morphisms(c4_univ, c4_univ)) == 4


def test_equivalence_self_and_fold_invariant(cov02, c4_univ):
    pair = equivalent_coverings(cov02, cov02)
    assert pair is not None
    assert pair.phi == GroupoidMorphism.identity(cov02.total)
    assert equivalent_coverings(cov02, c4_univ) is None  # folds differ


def test_equivalence_with_base_isomorphism():
    # same group presented with permuted element ids: covers correspond
    # through a nontrivial base isomorphism
    c4 = FiniteGroup.cyclic(4)
    sigma = (0, 1, 3, 2)
    inv = tuple(sigma.index(i) for i in range(4))
    table = [[sigma[c4.mult(inv[i], inv[j])] for j in range(4)]
             for i in range(4)]
    other = FiniteGroup(table)
    g1 = group_groupoid(c4)
    g2 = group_groupoid(other)
    assert g1 != g2
    from gpdcov import covering_from_subgroup
    vg1 = vertex_group(g1, 0)
    vg2 = vertex_group(g2, 0)
    cov1 = covering_from_subgroup(g1, 0, vg1.subgroup([0, 2]))
    cov2 = covering_from_subgroup(g2, 0, vg2.subgroup([0, 3]))
    with pytest.raises(ValueError):
        equivalent_coverings(cov1, cov2, fixed_base=True)
    pair = equivalent_coverings(cov1, cov2, fixed_base=False)
    assert pair is not None
    assert compose_morphisms(cov1.morphism, pair.phi) == \
        compose_morphisms(pair.psi, cov2.morphism)


def test_find_covering_isomorphism_disconnected(c4):
    om1 = omega(c4).covering
    om2 = omega(c4).covering
    iso = find_covering_isomorphism(om1, om2)
    assert iso is not None
    assert compose_morphisms(om2.morphism, iso) == om1.morphism


def _with_swapped_witness(cov, at):
    """cov rebuilt directly, with the lifts of two base arrows into ``at``
    swapped: no longer a consistent lifting witness."""
    wits = [dict(w) for w in cov.witnesses]
    g, h = list(wits[at])[:2]
    wits[at][g], wits[at][h] = wits[at][h], wits[at][g]
    return Covering(cov.morphism, wits, cov.marked_object)


def test_inconsistent_witness_fails_the_lift_walk(c4_univ):
    """A swapped witness entry lifts some object to two objects; the walk
    shared by lift_morphism and covering_transformations reports it."""
    broken = _with_swapped_witness(c4_univ, c4_univ.mark)
    inconsistent = "^lift propagation inconsistent at object"
    with pytest.raises(TheoremViolation, match=inconsistent):
        lift_morphism(broken, broken.morphism, broken.mark, broken.mark)
    with pytest.raises(TheoremViolation, match=inconsistent):
        covering_transformations(broken)


def test_pushforward_injectivity_guard(c4, t1):
    # a non-covering morphism with a non-injective loop map must be
    # caught, not silently accepted
    collapse = GroupoidMorphism(c4, t1, (0,), (0, 0, 0, 0))
    fake = Covering(collapse, [{0: 0}])
    from gpdcov.errors import TheoremViolation
    with pytest.raises(TheoremViolation):
        pushforward_vertex(fake, 0)


# -- the read-only Covering and its checked constructor ----------------------

COVERING_ATTRIBUTES = ("morphism", "witnesses", "marked_object", "mark",
                       "fibers")


@pytest.mark.parametrize("name", COVERING_ATTRIBUTES + ("extra",))
def test_covering_attributes_are_read_only(cov02, name):
    with pytest.raises(AttributeError):
        setattr(cov02, name, 0)
    if name != "extra":
        with pytest.raises(AttributeError):
            delattr(cov02, name)


def _built_coverings():
    """One covering from each public path that makes one."""
    c4 = group_groupoid(FiniteGroup.cyclic(4))
    u = universal_cover(c4)
    half = covering_from_subgroup(c4, 0, vertex_group(c4, 0).subgroup([0, 2]))
    root = Path(__file__).resolve().parent.parent
    return {
        "check_covering": check_covering(GroupoidMorphism.identity(c4)),
        "universal_cover": u,
        "covering_from_subgroup": half,
        "orbit_groupoid": orbit_groupoid(
            covering_transformations(u).as_action()).covering,
        "fibered_product": fibered_product(half, half).covering,
        "load_covering": load_covering(
            str(root / "tests" / "golden" / "universal-s3.out")),
    }


BUILT_COVERINGS = _built_coverings()


@pytest.mark.parametrize("name", sorted(BUILT_COVERINGS))
def test_covering_witnesses_are_read_only(name):
    cov = BUILT_COVERINGS[name]
    k, lifted = next(iter(cov.witnesses[0].items()))
    with pytest.raises(TypeError):
        cov.witnesses[0][k] = cov.total.n_arrows
    with pytest.raises(TypeError):
        del cov.witnesses[0][k]
    with pytest.raises(TypeError):
        cov.witnesses[0][cov.base.n_arrows] = 0
    assert cov.lift(k, 0) == lifted


def test_mark_defaults_to_zero(c4, cov02):
    idc = require_covering(GroupoidMorphism.identity(c4))
    assert idc.marked_object is None and idc.mark == 0
    assert cov02.marked_object is not None
    assert cov02.mark == cov02.marked_object
    marked = require_covering(GroupoidMorphism.identity(c4), 0)
    assert marked.marked_object == 0 and marked.mark == 0


def test_verified_covering_returns_the_marked_covering(c4):
    om = omega(c4)
    out = verified_covering(om.covering.morphism, "classifier", 1)
    assert isinstance(out, Covering)
    assert out.marked_object == 1 and out.mark == 1
    assert out.witnesses == om.covering.witnesses
    assert out.fibers == ((0, 1),)


def test_verified_covering_names_a_nonfunctorial_morphism(c4):
    bad = GroupoidMorphism(c4, c4, (0,), (0, 2, 1, 3))
    with pytest.raises(TheoremViolation,
                       match="^twisted map failed the covering check: "
                             "morphism is not functorial"):
        verified_covering(bad, "twisted map")


def test_verified_covering_names_a_failed_star_check(i2, t1):
    collapse = GroupoidMorphism(i2, t1, (0, 0), (0, 0, 0, 0))
    assert isinstance(check_covering(collapse), CoveringFailure)
    with pytest.raises(TheoremViolation,
                       match="^collapse failed the covering check: star "
                             "map not injective"):
        verified_covering(collapse, "collapse")


# -- functoriality on the generating set against the full scan ---------------

def reference_functoriality_violations(m: GroupoidMorphism) -> list:
    """The functoriality check that walks the whole source composition
    table, kept verbatim as an oracle."""
    src, dst = m.source, m.target
    bad = []
    for a in src.arrows:
        fa = m.arr_map[a]
        if dst.dom[fa] != m.obj_map[src.dom[a]]:
            bad.append(f"arrow {a}: image dom mismatch")
        if dst.cod[fa] != m.obj_map[src.cod[a]]:
            bad.append(f"arrow {a}: image cod mismatch")
    for x in src.objects:
        if m.arr_map[src.identity[x]] != dst.identity[m.obj_map[x]]:
            bad.append(f"object {x}: identity not preserved")
    for (f, h), v in src.compose.items():
        img = dst.compose.get((m.arr_map[f], m.arr_map[h]))
        if img != m.arr_map[v]:
            bad.append(f"pair ({f}, {h}): composition not preserved")
    return bad


def _identities_and_lifts(name):
    """Morphisms out of one generated groupoid and its coverings: the
    identity, the projections of its small covers, and for a connected
    base the covering transformations of each connected cover and the
    lifts of the universal projection through every cover."""
    g = CORPUS[name]
    covers = small_covers(name)
    out = [GroupoidMorphism.identity(g)] + [p.morphism for p in covers]
    if is_connected(g):
        u = universal_cover(g)
        over = u.morphism.obj_map[u.mark]
        for p in covers:
            if is_connected(p.total):
                out += covering_transformations(p).transformations
            out += [lift_morphism(p, u.morphism, u.mark, seed)
                    for seed in p.fibers[over]]
    return out


def _mutations(m: GroupoidMorphism, rng):
    """m with one arrow image moved to a parallel arrow (when some
    non-identity arrow has one), with one arrow image moved to any other
    arrow, and with one object image moved."""
    src, dst = m.source, m.target

    def moved(a, choices):
        arr_map = list(m.arr_map)
        arr_map[a] = rng.choice(choices)
        return GroupoidMorphism(src, dst, m.obj_map, arr_map)

    def parallel(a):
        fa = m.arr_map[a]
        return [b for b in dst.hom(dst.dom[fa], dst.cod[fa]) if b != fa]

    movable = [a for a in src.arrows
               if a not in src.identity and parallel(a)]
    if movable:
        a = rng.choice(movable)
        yield moved(a, parallel(a))
    a = rng.choice(src.arrows)
    others = [b for b in dst.arrows if b != m.arr_map[a]]
    if others:
        yield moved(a, others)
    x = rng.choice(src.objects)
    others = [y for y in dst.objects if y != m.obj_map[x]]
    if others:
        obj_map = list(m.obj_map)
        obj_map[x] = rng.choice(others)
        yield GroupoidMorphism(src, dst, obj_map, m.arr_map)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_functoriality_matches_full_scan(name):
    rng = random.Random(name)
    parallel = 0
    for m in _identities_and_lifts(name):
        assert m.functoriality_violations() == \
            reference_functoriality_violations(m) == []
        for bad in _mutations(m, rng):
            got = bad.functoriality_violations()
            assert got and got == reference_functoriality_violations(bad)
            parallel += all("composition" in msg for msg in got)
    g = CORPUS[name]
    if any(len(g.loops(x)) > 1 for x in g.objects):
        assert parallel  # some mutation is caught by composition alone


def test_functoriality_without_generators_scans_the_table():
    """A source table with an entry missing has no certified generating
    set; the full scan then runs and matches the oracle, on the inclusion
    and on the map sending each arrow to its inverse."""
    g = CORPUS["codiscrete-2-x-s3-shuffled"]
    for seed in range(3):
        broken = CORRUPTIONS["missing-entry"](g, random.Random(seed))
        assert generators(broken) is None
        shifted = [g.inverse[a] for a in g.arrows]
        for m in (GroupoidMorphism(broken, g, g.objects, g.arrows),
                  GroupoidMorphism(broken, g, g.objects, shifted)):
            assert m.functoriality_violations() == \
                reference_functoriality_violations(m)


# -- arrows that the reduced functor certificate never reads ------------------

def _moved_to_parallels(m: GroupoidMorphism, a: int):
    """m with the image of the arrow a moved to each other arrow parallel
    to it: dom, cod and identities stay right, so only composition can
    catch the move."""
    fa, dst = m.arr_map[a], m.target
    for b in dst.hom(dst.dom[fa], dst.cod[fa]):
        if b != fa:
            arr_map = list(m.arr_map)
            arr_map[a] = b
            yield GroupoidMorphism(m.source, dst, m.obj_map, arr_map)


def _assert_caught_by_composition(bad: GroupoidMorphism):
    assert not bad._keeps_composites_on(generators(bad.source))
    got = bad.functoriality_violations()
    assert got and got == reference_functoriality_violations(bad)
    assert all("composition not preserved" in msg for msg in got)


@pytest.mark.parametrize("name", ["codiscrete-2-x-s3-shuffled",
                                  "codiscrete-3-x-c2-shuffled",
                                  "union-of-products", "opposite"])
def test_functoriality_catches_moves_on_arrows_it_skips(name):
    """The certificate reads, as left factor, one arrow of each inverse
    pair of the generating set and no identity.  A wrong image on the
    inverse of a spanning-tree arrow alone, or on a loop outside the
    generating set alone, is still caught by the certificate, with the
    full scan's messages: on the identity morphism, and on the universal
    projection of a connected groupoid."""
    g = CORPUS[name]
    gens = set(generators(g))
    tree_inverses = [a for a in gens
                     if g.dom[a] != g.cod[a] and g.inverse[a] < a]
    other_loops = [a for x in g.objects for a in g.loops(x)
                   if a not in gens]
    assert tree_inverses and other_loops
    identity = GroupoidMorphism.identity(g)
    for a in tree_inverses + other_loops:
        for bad in _moved_to_parallels(identity, a):
            _assert_caught_by_composition(bad)
    if is_connected(g):
        p = universal_cover(g).morphism
        u = p.source
        u_gens = generators(u)
        skipped = [a for a in u_gens
                   if u.dom[a] != u.cod[a] and u.inverse[a] < a]
        assert skipped
        for a in skipped:
            for bad in _moved_to_parallels(p, a):
                _assert_caught_by_composition(bad)
