import random

import pytest

from gpdcov import (CovGroup, FiniteGroup, GroupoidMorphism, TheoremViolation,
                    all_morphisms, compose_morphisms, cov_normalizer_iso,
                    covering_transformations, fold, generators,
                    group_groupoid, induced_f_sharp, is_isomorphic,
                    is_regular, lift_morphism, principal_action_check,
                    pushforward_vertex, universal_cover)
from gpdcov.groups import find_isomorphism

from test_index import CORPUS
from test_lifts import CONNECTED, subgroup_covers


def test_identity_covering_has_trivial_cov_group(id_c4):
    grp = covering_transformations(id_c4)
    assert grp.order == 1


def test_universal_cov_groups(c4_univ, s3_univ):
    assert is_isomorphic(covering_transformations(c4_univ).group,
                         FiniteGroup.cyclic(4))
    assert is_isomorphic(covering_transformations(s3_univ).group,
                         FiniteGroup.symmetric(3))


def test_cov_group_of_s3_coset_covers(s3_covers, s3):
    from gpdcov import vertex_group
    vg = vertex_group(s3, 0)
    flip = vg.generated_subgroup([vg.index_of_name("(12)")])
    rot = vg.generated_subgroup([vg.index_of_name("(123)")])
    assert covering_transformations(s3_covers[flip.elements]).order == 1
    grp = covering_transformations(s3_covers[rot.elements])
    assert grp.order == 2


def test_cov_group_complete_versus_brute_force(cov02, c4_univ):
    for cov in (cov02, c4_univ):
        grp = covering_transformations(cov)
        brute = [
            m for m in all_morphisms(cov.total, cov.total)
            if m.is_bijective()
            and compose_morphisms(cov.morphism, m) == cov.morphism]
        assert {(t.obj_map, t.arr_map) for t in grp.transformations} == \
            {(m.obj_map, m.arr_map) for m in brute}


def test_regularity(c4, cov02, c4_univ, s3_covers, s3):
    assert is_regular(cov02) and is_regular(c4_univ)
    from gpdcov import vertex_group
    vg = vertex_group(s3, 0)
    flip = vg.generated_subgroup([vg.index_of_name("(12)")])
    assert not is_regular(s3_covers[flip.elements])
    for elems, cov in s3_covers.items():
        sub = vg.subgroup(elems)
        assert is_regular(cov) == sub.is_normal()


def test_transformations_are_fixed_point_free(s3_covers, c4_univ):
    covers = list(s3_covers.values()) + [c4_univ]
    for cov in covers:
        grp = covering_transformations(cov)
        for i, t in enumerate(grp.transformations):
            if i == grp.group.identity:
                continue
            assert all(t.obj_map[x] != x for x in cov.total.objects)


def test_transformations_determined_by_one_object(s3_covers):
    for cov in s3_covers.values():
        grp = covering_transformations(cov)
        for i, t1 in enumerate(grp.transformations):
            for j, t2 in enumerate(grp.transformations):
                if i < j:
                    assert all(t1.obj_map[x] != t2.obj_map[x]
                               for x in cov.total.objects)


def test_cov_order_is_normalizer_index(s3_covers, cov02, id_c4):
    for cov in list(s3_covers.values()) + [cov02, id_c4]:
        grp = covering_transformations(cov)
        ni = cov_normalizer_iso(cov)
        assert grp.order == ni.normalizer.order // ni.pushforward.order
        assert ni.quotient.order == grp.order


def test_regular_cov_order_is_fold(s3_covers, cov02, c4_univ):
    for cov in list(s3_covers.values()) + [cov02, c4_univ]:
        if is_regular(cov):
            assert covering_transformations(cov).order == fold(cov)


def test_normalizer_iso_examples(c4_univ, s3_covers, s3):
    ni = cov_normalizer_iso(c4_univ)
    assert ni.normalizer.order == 4 and ni.quotient.order == 4
    from gpdcov import vertex_group
    vg = vertex_group(s3, 0)
    rot = vg.generated_subgroup([vg.index_of_name("(123)")])
    ni = cov_normalizer_iso(s3_covers[rot.elements])
    assert ni.quotient.order == 2
    assert find_isomorphism(ni.quotient, FiniteGroup.cyclic(2)) is not None
    flip = vg.generated_subgroup([vg.index_of_name("(12)")])
    ni = cov_normalizer_iso(s3_covers[flip.elements])
    assert ni.quotient.order == 1 and ni.cov.order == 1


def test_principal_action(cov02, id_c4, c4_univ, s3_covers, s3):
    assert principal_action_check(cov02)
    assert principal_action_check(id_c4)
    assert principal_action_check(c4_univ)
    assert is_isomorphic(covering_transformations(cov02).group,
                         FiniteGroup.cyclic(2))
    from gpdcov import vertex_group
    vg = vertex_group(s3, 0)
    flip = vg.generated_subgroup([vg.index_of_name("(12)")])
    with pytest.raises(ValueError):
        principal_action_check(s3_covers[flip.elements])


def _lift_cover_of(f, p, q):
    """A morphism between universal totals covering f, by unique lifting."""
    target = compose_morphisms(f, q.morphism)
    return lift_morphism(p, target, q.marked_object, p.marked_object)


def test_f_sharp_identity(c4, c4_univ):
    ident = GroupoidMorphism.identity(c4)
    f_tilde = _lift_cover_of(ident, c4_univ, c4_univ)
    grp = covering_transformations(c4_univ)
    for g in range(grp.order):
        assert induced_f_sharp(ident, f_tilde, c4_univ, c4_univ, g) == g


def test_f_sharp_inversion_transport(c4, c4_univ):
    # the base automorphism a -> a^(-1) transports transformations the
    # same way through the defining square and through the two
    # vertex-group isomorphisms
    inv = GroupoidMorphism(c4, c4, (0,), tuple(c4.inverse))
    f_tilde = _lift_cover_of(inv, c4_univ, c4_univ)
    assert f_tilde is not None
    grp = covering_transformations(c4_univ)
    ni = cov_normalizer_iso(c4_univ)  # quotient = whole vertex group
    vertex_of = {ni.mapping[i]: ni.normalizer.elements[c[0]]
                 for i, c in enumerate(
                     _cosets_of(ni))}
    for g in range(grp.order):
        got = induced_f_sharp(inv, f_tilde, c4_univ, c4_univ, g)
        # route two: pull g back to a loop, push through inv, map forward
        a = vertex_of[g]
        image_loop = inv.arr_map[ni.pushforward.parent.arrows[a]]
        k = ni.pushforward.parent.index_by_arrow[image_loop]
        expected = ni.mapping[_coset_index_of(ni, k)]
        assert got == expected


def _cosets_of(ni):
    push_inside = ni.pushforward
    norm = ni.normalizer
    from gpdcov.groups import Subgroup
    inside = Subgroup(norm.as_group(),
                      [norm.elements.index(k)
                       for k in push_inside.elements])
    return inside.right_cosets()


def _coset_index_of(ni, vertex_elem):
    cosets = _cosets_of(ni)
    pos = ni.normalizer.elements.index(vertex_elem)
    for i, coset in enumerate(cosets):
        if pos in coset:
            return i
    raise AssertionError("element not in the normalizer")


def test_f_sharp_collapse_to_point(c4, t1, c4_univ):
    collapse = GroupoidMorphism(c4, t1, (0,), (0, 0, 0, 0))
    t1_univ = universal_cover(t1, 0)
    f_tilde = _lift_cover_of(collapse, t1_univ, c4_univ)
    assert f_tilde is not None
    grp = covering_transformations(c4_univ)
    for g in range(grp.order):
        assert induced_f_sharp(collapse, f_tilde, t1_univ, c4_univ, g) == 0


def test_f_sharp_rejects_non_cover(c4, c4_univ, cov02):
    ident = GroupoidMorphism.identity(c4)
    with pytest.raises(ValueError):
        induced_f_sharp(ident, GroupoidMorphism.identity(c4_univ.total),
                        c4_univ, cov02, 0)  # cov02 is not universal


# -- the closure check of CovGroup against the composing loop -----------------

def reference_cov_table(transformations, marked: int) -> tuple:
    """The composition table of Cov, built by composing every pair of
    transformations and comparing the composite with the transformation
    named by its image of the marked object, as CovGroup once did."""
    key = {t.obj_map[marked]: i for i, t in enumerate(transformations)}
    table = []
    for t1 in transformations:
        row = []
        for t2 in transformations:
            comp = compose_morphisms(t1, t2)
            idx = key.get(comp.obj_map[marked])
            if idx is None or transformations[idx] != comp:
                raise TheoremViolation(
                    "covering transformations are not closed under "
                    "composition")
            row.append(idx)
        table.append(tuple(row))
    return tuple(table)


def _connected_covers(name):
    g = CORPUS[name]
    return subgroup_covers(g) + [universal_cover(g)]


def _outcome(build):
    try:
        return build()
    except TheoremViolation as exc:
        return str(exc)


@pytest.mark.parametrize("name", CONNECTED)
def test_cov_table_matches_composing_every_pair(name):
    for p in _connected_covers(name):
        cov = covering_transformations(p)
        assert cov.group.table == reference_cov_table(cov.transformations,
                                                      cov.marked)


def _automorphism(total, perm):
    """The automorphism of a codiscrete groupoid that permutes its
    objects by ``perm``."""
    return GroupoidMorphism(
        total, total, perm,
        [total.hom(perm[total.dom[a]], perm[total.cod[a]])[0]
         for a in total.arrows])


@pytest.mark.parametrize("name", ["codiscrete-2-x-c3", "s3",
                                  "codiscrete-2-x-s3-shuffled"])
def test_cov_group_rejects_what_the_composing_loop_rejects(name):
    """A set that misses a transformation, or holds an automorphism that
    agrees with a transformation on the marked object only, is refused
    with the composing loop's message."""
    p = universal_cover(CORPUS[name])
    cov = covering_transformations(p)
    ts, marked = cov.transformations, cov.marked
    rng = random.Random(name)
    others = [i for i in range(cov.order) if i != cov.group.identity]
    dropped = list(ts)
    del dropped[rng.choice(others)]
    # The universal total is codiscrete: every object permutation is an
    # automorphism.  Keep the marked image of ts[k] and move two others.
    k = rng.choice(others)
    perm = list(ts[k].obj_map)
    x, y = rng.sample([z for z in p.total.objects if z != marked], 2)
    perm[x], perm[y] = perm[y], perm[x]
    impostor = list(ts)
    impostor[k] = _automorphism(p.total, perm)
    for bad in (dropped, impostor):
        got = _outcome(lambda: CovGroup(p, bad, cov.base_object, marked))
        want = _outcome(lambda: reference_cov_table(bad, marked))
        assert got == want == ("covering transformations are not closed "
                               "under composition")


GROUP_BASES = {"c4": group_groupoid(FiniteGroup.cyclic(4)),
               "s3": CORPUS["s3"],
               "loop-subgroupoid": CORPUS["loop-subgroupoid"]}


@pytest.mark.parametrize("name", sorted(GROUP_BASES))
def test_cov_group_rejects_a_transformation_moved_on_an_inverse_arrow(name):
    """Closure is compared on the arrows a ≤ a⁻¹ of the total's generating
    set, so never directly on the greater arrow of an inverse pair.  A
    transformation moved on one such arrow alone (no longer a functor) is
    still refused with the composing loop's message: over a group, every
    arrow of the universal total is the image of a compared tree arrow
    under some transformation, so the moved arrow is read through a
    composite.  Over a base with several objects some arrows lie in no
    such orbit, and CovGroup, whose inputs must be functors, can accept
    such a move there."""
    p = universal_cover(GROUP_BASES[name])
    cov = covering_transformations(p)
    total, ts = p.total, cov.transformations
    skipped = [a for a in generators(total) if total.inverse[a] < a]
    assert skipped
    for k, t in enumerate(ts):
        for c in skipped:
            arr_map = list(t.arr_map)
            arr_map[c] = total.inverse[arr_map[c]]
            bad = list(ts)
            bad[k] = GroupoidMorphism(total, total, t.obj_map, arr_map)
            got = _outcome(lambda: CovGroup(p, bad, cov.base_object,
                                            cov.marked))
            want = _outcome(lambda: reference_cov_table(bad, cov.marked))
            assert got == want == ("covering transformations are not "
                                   "closed under composition")
