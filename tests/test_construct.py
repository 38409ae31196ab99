import random
from types import SimpleNamespace

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
from gpdcov.groups import generating_set

from test_classify import LATTICE_BASES, lattice_of


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


# -- the action law on generators against the scan of every pair -------------

def reference_validate_action(action):
    """GroupAction.validate as it scanned every element and every pair,
    kept verbatim as an oracle."""
    self = action
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


def _node_actions(name):
    lat = lattice_of(name)
    return [lat.cov_group.action_of_subgroup(n.subgroup) for n in lat.nodes]


@pytest.mark.parametrize("name", sorted(LATTICE_BASES))
def test_node_actions_pass_the_reference(name):
    """Building each node action runs validate; the scan accepts it too."""
    for action in _node_actions(name):
        reference_validate_action(action)


def test_validate_checks_functoriality_on_generators_only(monkeypatch):
    """On an action that passes, ρ(e) and the generators' actions are the
    only maps checked for functoriality."""
    cov = lattice_of("fixture-s3").cov_group
    calls = []
    original = GroupoidMorphism.functoriality_violations
    monkeypatch.setattr(GroupoidMorphism, "functoriality_violations",
                        lambda m: calls.append(m) or original(m))
    cov.as_action()
    assert len(calls) == 1 + len(generating_set(cov.group)) < cov.order


def _outcome(group, space, obj_maps, arr_maps, build):
    try:
        build(group, space, obj_maps, arr_maps)
    except ValueError as exc:
        return str(exc)
    return None


def _corruptions(action):
    """(label, obj_maps, arr_maps): one arrow image changed in a
    non-generator element's map, to a parallel arrow and to any other
    arrow, alone and with a second image moved to keep a bijection; two
    non-generator elements' maps swapped; a generator whose arrow map
    swaps two arrows' images, and all maps conjugated by that swap, which
    keeps the action law; object or arrow images out of range, high
    or negative, on each non-generator and on a generator; and maps one
    entry short or long."""
    g, sp = action.group, action.space
    gens = generating_set(g)
    others = [k for k in range(g.order) if k != g.identity
              and k not in gens]
    rng = random.Random(g.order * 1000 + sp.n_arrows)
    oms, ams = list(map(list, action.obj_maps)), \
        list(map(list, action.arr_maps))

    def edited(maps, k, i, v):
        out = [list(row) for row in maps]
        out[k][i] = v
        return out

    k, r = rng.choice(others), rng.choice(list(sp.arrows))
    fr = ams[k][r]
    for b in (sp.hom(sp.dom[fr], sp.cod[fr]) + (fr - 1, fr + 1)):
        if b != fr and 0 <= b < sp.n_arrows:
            yield "arrow changed", oms, edited(ams, k, r, b)
            # the same change with the image of b's preimage moved to fr,
            # so that ρ(k) stays a bijection
            yield "arrow changed", oms, edited(
                edited(ams, k, r, b), k, ams[k].index(b), fr)
    k1, k2 = rng.sample(others, 2)
    swapped_o, swapped_a = list(oms), list(ams)
    swapped_o[k1], swapped_o[k2] = oms[k2], oms[k1]
    swapped_a[k1], swapped_a[k2] = ams[k2], ams[k1]
    yield "two elements swapped", swapped_o, swapped_a
    a = rng.choice(gens)
    r1, r2 = rng.sample([r for r in sp.arrows if r not in sp.identity], 2)
    twisted = [list(row) for row in ams]
    twisted[a][r1], twisted[a][r2] = ams[a][r2], ams[a][r1]
    yield "generator not functorial", oms, twisted
    # conjugated by the swap σ of r1 and r2 on arrows, the maps still
    # satisfy the action law, but not every one of them is a functor
    sigma = list(sp.arrows)
    sigma[r1], sigma[r2] = r2, r1
    yield "generator not functorial", oms, [[sigma[row[sigma[r]]]
                                             for r in sp.arrows]
                                            for row in ams]
    for k in others + [a]:
        for bad in (sp.n_objects, -1):
            yield "object out of range", edited(oms, k, 0, bad), ams
        for bad in (sp.n_arrows, -1):
            yield "arrow out of range", oms, edited(ams, k, r, bad)
    for k in (rng.choice(others), a):
        for maps in (oms, ams):
            for row in (maps[k][:-1], maps[k] + maps[k][:1]):
                out = [list(r) for r in maps]
                out[k] = row
                yield ("map of the wrong length",
                       *((out, ams) if maps is oms else (oms, out)))


@pytest.mark.parametrize("name", ["fixture-c4", "fixture-s3", "s3",
                                  "codiscrete-2-x-s3-shuffled",
                                  "loop-subgroupoid"])
def test_validate_raises_the_reference_message_on_corruptions(name):
    action = lattice_of(name).cov_group.as_action()
    labels = set()
    for label, oms, ams in _corruptions(action):
        args = (action.group, action.space, oms, ams)
        want = _outcome(*args, lambda *a: reference_validate_action(
            SimpleNamespace(group=a[0], space=a[1],
                            obj_maps=tuple(map(tuple, a[2])),
                            arr_maps=tuple(map(tuple, a[3])))))
        assert want is not None, label
        assert _outcome(*args, GroupAction) == want, label
        labels.add(label)
    assert len(labels) == 6
