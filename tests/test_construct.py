import random

import pytest

from gpdcov import (Covering, FiniteGroup, GroupAction, GroupoidMorphism,
                    NonFreeActionError, all_morphisms, check_covering,
                    codiscrete_groupoid, compose_morphisms,
                    covering_from_subgroup, covering_transformations,
                    equivalent_coverings, find_groupoid_isomorphism,
                    TheoremViolation, lift_morphism, orbit_groupoid,
                    partition, pushforward_vertex, quotient_comparison,
                    quotient_covering, universal_cover, vertex_group)
from gpdcov.classify import _quotient_to_base


def swap_action(i2):
    # codiscrete arrows are indexed i*n+j: 0 = id_x, 1 = x->y, 2 = y->x,
    # 3 = id_y; the swap exchanges the identities and the two crossings
    group = FiniteGroup.cyclic(2)
    return GroupAction(group, i2,
                       ((0, 1), (1, 0)),
                       ((0, 1, 2, 3), (3, 2, 1, 0)))


def test_covering_from_whole_group_is_identity_class(c4, id_c4):
    vg = vertex_group(c4, 0)
    cov = covering_from_subgroup(c4, 0, vg.full_subgroup())
    assert cov.total.n_objects == 1
    assert equivalent_coverings(id_c4, cov) is not None


def test_covering_from_half_subgroup(cov02):
    assert cov02.total.n_objects == 2
    got = pushforward_vertex(cov02, cov02.marked_object)
    assert tuple(got.parent.arrows[k] for k in got.elements) == (0, 2)


def test_covering_from_trivial_is_codiscrete(c4_univ, s3_univ):
    assert find_groupoid_isomorphism(
        c4_univ.total, codiscrete_groupoid(4)) is not None
    assert find_groupoid_isomorphism(
        s3_univ.total, codiscrete_groupoid(6)) is not None
    for x in c4_univ.total.objects:
        for y in c4_univ.total.objects:
            assert len(c4_univ.total.hom(x, y)) == 1


@pytest.mark.parametrize("base_name", ["c4", "s3"])
def test_pushforward_recovery_all_subgroups(base_name, c4, s3):
    base = {"c4": c4, "s3": s3}[base_name]
    vg = vertex_group(base, 0)
    for sub in vg.subgroups():
        cov = covering_from_subgroup(base, 0, sub)
        got = pushforward_vertex(cov, cov.marked_object)
        assert got.elements == sub.elements


def test_covering_from_subgroup_input_checks(c4, s3, i2):
    vg_s3 = vertex_group(s3, 0)
    with pytest.raises(ValueError):
        covering_from_subgroup(c4, 0, vg_s3.trivial_subgroup())
    from gpdcov import disjoint_union
    two = disjoint_union(c4, c4)
    with pytest.raises(ValueError):
        covering_from_subgroup(two, 0, vertex_group(two, 0)
                               .trivial_subgroup())


def test_universal_cover_trivial_base(t1):
    cov = universal_cover(t1, 0)
    assert cov.total.n_objects == 1
    assert equivalent_coverings(
        cov, check_covering(GroupoidMorphism.identity(t1))) is not None


def test_universal_cover_lifts_over_everything(c4, c4_univ, s3, s3_covers):
    # over every covering of the base there is a projection from the
    # universal cover (trivial subgroup condition)
    for cov in s3_covers.values():
        u = universal_cover(s3, 0)
        seed = next(x for x in cov.total.objects
                    if cov.morphism.obj_map[x] == 0)
        r = lift_morphism(cov, u.morphism, u.marked_object, seed)
        assert r is not None
        assert compose_morphisms(cov.morphism, r) == u.morphism


def test_group_action_validation(i2, c4):
    act = swap_action(i2)
    assert act.is_free()
    with pytest.raises(ValueError):
        GroupAction(FiniteGroup.cyclic(2), i2,
                    ((1, 0), (0, 1)),  # identity must act trivially
                    ((3, 2, 1, 0), (0, 1, 2, 3)))
    # inversion on the one-object groupoid fixes the object: not free
    inv_maps = tuple(c4.inverse[a] for a in c4.arrows)
    action = GroupAction(FiniteGroup.cyclic(2), c4,
                         ((0,), (0,)),
                         (tuple(c4.arrows), inv_maps))
    assert not action.is_free()
    with pytest.raises(NonFreeActionError) as err:
        orbit_groupoid(action)
    assert err.value.element == 1 and err.value.obj == 0


def test_orbit_of_trivial_action_is_the_space(c4):
    orb = orbit_groupoid(GroupAction.trivial(c4))
    assert find_groupoid_isomorphism(orb.quotient, c4) is not None


def test_orbit_of_swap_action(i2):
    orb = orbit_groupoid(swap_action(i2))
    assert orb.quotient.n_objects == 1
    assert orb.quotient.n_arrows == 2
    assert isinstance(orb.covering, Covering)


def test_orbit_full_cov_action_recovers_base(c4, c4_univ):
    grp = covering_transformations(c4_univ)
    orb = orbit_groupoid(grp.as_action())
    assert find_groupoid_isomorphism(orb.quotient, c4) is not None


def test_orbit_subaction_matches_coset_cover(c4, c4_univ, cov02):
    grp = covering_transformations(c4_univ)
    from gpdcov import cov_normalizer_iso
    ni = cov_normalizer_iso(c4_univ)
    pi = grp.group.subgroup([ni.mapping[0], ni.mapping[2]])
    orb = orbit_groupoid(grp.action_of_subgroup(pi))
    quot = _quotient_to_base(c4_univ, orb)
    assert equivalent_coverings(cov02, quot) is not None


def test_orbit_universal_property(i2, c4):
    orb = orbit_groupoid(swap_action(i2))
    # every orbit-constant morphism into a small target factors through
    # the quotient exactly once; brute force over all candidates
    for target in (orb.quotient, c4):
        candidates = list(all_morphisms(orb.quotient, target))
        for m in candidates:
            f = compose_morphisms(m, orb.projection)
            factorizations = [
                cand for cand in candidates
                if compose_morphisms(cand, orb.projection) == f]
            assert len(factorizations) == 1
    # a morphism NOT constant on orbits admits no factorization
    ident = GroupoidMorphism.identity(i2)
    assert all(
        compose_morphisms(m, orb.projection) != ident
        for m in all_morphisms(orb.quotient, i2))


def test_orbit_composition_representative_independent(c4_univ):
    grp = covering_transformations(c4_univ)
    action = grp.as_action()
    orb = orbit_groupoid(action)
    sp = action.space
    rng = random.Random(7)
    arr_orbit = {}
    for i, blk in enumerate(orb.arr_orbits):
        for a in blk:
            arr_orbit[a] = i
    for (i, j), expected in orb.quotient.compose.items():
        for _ in range(5):
            a = rng.choice(orb.arr_orbits[i])
            b = rng.choice(orb.arr_orbits[j])
            aligner = next(
                k for k in range(action.group.order)
                if action.obj_maps[k][sp.dom[a]] == sp.cod[b])
            composite = sp.compose_arrows(action.arr_maps[aligner][a], b)
            assert arr_orbit[composite] == expected


def test_quotient_comparison(id_c4, c4_univ, cov02, s3_covers):
    for cov in (id_c4, c4_univ, cov02):
        cmp = quotient_comparison(cov)
        assert cmp.iso.is_bijective()
        assert compose_morphisms(cmp.iso, cov.morphism) == \
            cmp.orbit.projection
    flip_cover = s3_covers[(0, 2)]
    with pytest.raises(ValueError):
        quotient_comparison(flip_cover)  # not regular


def test_quotient_covering_by_singletons_relabels(i2):
    singletons = partition(i2.n_objects, ())
    cov = quotient_covering(i2, singletons, partition(i2.n_arrows, ()),
                            "identity quotient", 1)
    assert cov.morphism.is_bijective() and cov.marked_object == 1
    assert cov.base == i2
    assert cov.base.obj_labels == ("[x]", "[y]")


@pytest.mark.parametrize("arr_pairs, message", [
    # id_x with x->y: two members out of x
    ([(0, 1), (2, 3)], "arrow block 0 has two members out of one object"),
    # id_x with id_y, but x->y alone: nothing out of y composes with x->y
    ([(0, 3)], "arrow block 1 has no member out of object 1"),
])
def test_quotient_covering_names_what_on_failure(i2, arr_pairs, message):
    """On i2, arrows are 0 = id_x, 1 = x->y, 2 = y->x, 3 = id_y."""
    one_object = partition(i2.n_objects, [(0, 1)])
    with pytest.raises(TheoremViolation, match=f"^test quotient: {message}"):
        quotient_covering(i2, one_object, partition(i2.n_arrows, arr_pairs),
                          "test quotient")
