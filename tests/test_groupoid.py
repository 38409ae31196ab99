import json
from pathlib import Path

import pytest

from gpdcov import (FiniteGroup, FiniteGroupoid, GroupAction,
                    GroupoidMorphism, codiscrete_groupoid,
                    component_subgroupoid, components, disjoint_union,
                    exponential, fiber, fibered_product,
                    find_groupoid_isomorphism, group_groupoid, is_connected,
                    omega, opposite, orbit_groupoid, presheaf_to_covering,
                    pushout_covering, star, subgroupoid, trivial_groupoid,
                    universal_cover, validate, vertex_group)
from gpdcov.documents import parse_groupoid
from gpdcov.groupoid import relabeled
from gpdcov.groups import find_isomorphism
from gpdcov.topos import covering_to_presheaf


def test_trivial_groupoid_valid(t1):
    assert validate(t1).ok
    assert t1.n_objects == 1 and t1.n_arrows == 1


def test_c4_all_triples_brute_force(c4):
    # independent associativity oracle: modular arithmetic on arrow ids
    for f in range(4):
        for h in range(4):
            assert c4.compose_arrows(f, h) == (f + h) % 4
            for k in range(4):
                left = c4.compose_arrows(c4.compose_arrows(f, h), k)
                right = c4.compose_arrows(f, c4.compose_arrows(h, k))
                assert left == right
    assert validate(c4).ok


def test_validate_names_corrupted_triple(c4):
    compose = dict(c4.compose)
    compose[(1, 2)] = 0  # the true composite is 3
    broken = FiniteGroupoid(1, c4.dom, c4.cod, c4.identity, compose,
                            c4.inverse)
    report = validate(broken)
    assert not report.ok
    assoc = [v for v in report.violations if v.kind == "associativity"]
    assert assoc and any({1, 2} <= set(v.ids) for v in assoc)


def test_validate_reports_partiality():
    g = trivial_groupoid()
    compose = dict(g.compose)
    del compose[(0, 0)]
    broken = FiniteGroupoid(1, g.dom, g.cod, g.identity, compose, g.inverse)
    report = validate(broken)
    assert any(v.kind == "compose-partiality" for v in report.violations)


def test_star_examples(t1, c4, i2):
    assert star(t1, 0).arrows == (0,)
    assert len(star(c4, 0).arrows) == 4
    # star at x in the codiscrete two-object groupoid: id_x and the arrow
    # from y; oracle by direct enumeration
    sx = star(i2, 0)
    expected = tuple(a for a in i2.arrows if i2.cod[a] == 0)
    assert sx.arrows == expected and len(expected) == 2
    with pytest.raises(ValueError):
        star(c4, 5)


def test_nonempty_sieves_are_maximal(c4, i2, s3):
    # closing any single arrow into x under precomposition recovers star(x)
    for g in (c4, i2, s3):
        for x in g.objects:
            full = set(star(g, x).arrows)
            for seed in full:
                sieve = {seed}
                changed = True
                while changed:
                    changed = False
                    for f in list(sieve):
                        for h in g.arrows:
                            if g.cod[h] == g.dom[f]:
                                fh = g.compose_arrows(f, h)
                                if fh not in sieve:
                                    sieve.add(fh)
                                    changed = True
                assert sieve == full


def test_star_size_decomposition(c4, i2):
    for g in (c4, i2):
        for x in g.objects:
            total = sum(len(g.hom(y, x)) for y in g.objects)
            assert len(star(g, x).arrows) == total
    assert len(star(c4, 0).arrows) == 4  # one object: the group order


def test_components(c4, i2):
    assert len(components(c4)) == 1
    assert len(components(i2)) == 1
    two = disjoint_union(c4, c4)
    parts = components(two)
    assert parts.blocks == ((0,), (1,))
    assert is_connected(c4) and not is_connected(two)


def test_vertex_groups(c4, i2, cov02):
    assert vertex_group(i2, 0).order == 1
    vg = vertex_group(c4, 0)
    assert find_isomorphism(vg, FiniteGroup.cyclic(4)) is not None
    # loops upstairs in the half cover, by direct enumeration
    total = cov02.total
    for x in total.objects:
        loops = [a for a in total.arrows
                 if total.dom[a] == x and total.cod[a] == x]
        assert len(loops) == 2
        assert find_isomorphism(vertex_group(total, x),
                                FiniteGroup.cyclic(2)) is not None


def test_vertex_groups_conjugate_along_arrows(s3_covers):
    cov = s3_covers[(0, 2)]  # three objects, each with a two-element group
    total = cov.total
    for a in total.arrows:
        x, y = total.dom[a], total.cod[a]
        image = {total.compose_arrows(total.compose_arrows(a, l),
                                      total.inverse[a])
                 for l in total.loops(x)}
        assert image == set(total.loops(y))


def test_disjoint_union_counts(t1, c4):
    two = disjoint_union(t1, t1)
    assert two.n_objects == 2 and two.n_arrows == 2
    assert validate(two).ok
    big = disjoint_union(c4, c4)
    assert big.n_objects == 2 and big.n_arrows == 8
    assert len(components(big)) == 2
    empty = FiniteGroupoid(0, (), (), (), {}, ())
    assert disjoint_union(c4, empty) == c4


def test_opposite_involution(c4, i2, t1):
    for g in (c4, i2, t1):
        assert opposite(opposite(g)) == g
        assert validate(opposite(g)).ok
    assert opposite(t1) == t1


def test_opposite_c4_iso_via_inversion(c4):
    op = opposite(c4)
    inv = GroupoidMorphism(c4, op, (0,), tuple(c4.inverse))
    assert inv.is_functorial() and inv.is_bijective()


def test_opposite_i2_iso(i2):
    iso = find_groupoid_isomorphism(i2, opposite(i2))
    assert iso is not None


def test_codiscrete_structure():
    g = codiscrete_groupoid(3)
    assert validate(g).ok
    for x in g.objects:
        for y in g.objects:
            assert len(g.hom(x, y)) == 1


def test_group_groupoid_round_trip():
    s3 = FiniteGroup.symmetric(3)
    g = group_groupoid(s3)
    assert validate(g).ok
    vg = vertex_group(g, 0)
    assert vg.table == s3.table  # arrow id = element id, no twist


# -- frozen tables ------------------------------------------------------------

def _public_builds():
    """One groupoid from each public builder, by name."""
    fixture = Path(__file__).resolve().parent.parent / "fixtures" / "s3.json"
    s3 = group_groupoid(FiniteGroup.symmetric(3))
    two = codiscrete_groupoid(2)
    univ = universal_cover(s3)
    orb = orbit_groupoid(GroupAction.trivial(univ.total))
    push = pushout_covering(orb.covering, orb.covering)
    prod = fibered_product(univ, univ)
    c3_univ = universal_cover(group_groupoid(FiniteGroup.cyclic(3)))
    expo = exponential(c3_univ, c3_univ)
    om = omega(s3)
    back = presheaf_to_covering(covering_to_presheaf(univ))
    return {
        "parse_groupoid": parse_groupoid(json.loads(fixture.read_text())),
        "trivial_groupoid": trivial_groupoid(),
        "codiscrete_groupoid": two,
        "group_groupoid": s3,
        "disjoint_union": disjoint_union(two, s3),
        "opposite": opposite(s3),
        "relabeled": relabeled(s3, obj_labels=("o",)),
        "subgroupoid": subgroupoid(s3, [0], [s3.identity[0]])[0],
        "component_subgroupoid": component_subgroupoid(
            disjoint_union(two, s3), [2])[0],
        "fiber": fiber(univ, 0).groupoid,
        "universal_cover.total": univ.total,
        "universal_cover.base": univ.base,
        "orbit_groupoid.total": orb.covering.total,
        "orbit_groupoid.base": orb.quotient,
        "pushout_covering.total": push.orbit_covering.total,
        "pushout_covering.base": push.quotient,
        "fibered_product.total": prod.covering.total,
        "fibered_product.base": prod.covering.base,
        "exponential.total": expo.covering.total,
        "exponential.base": expo.covering.base,
        "omega.total": om.covering.total,
        "omega.base": om.covering.base,
        "presheaf_to_covering.total": back.total,
        "presheaf_to_covering.base": back.base,
    }


PUBLIC_BUILDS = _public_builds()


@pytest.mark.parametrize("name", sorted(PUBLIC_BUILDS))
def test_public_builders_return_frozen_tables(name):
    g = PUBLIC_BUILDS[name]
    key, value = next(iter(g.compose.items()))
    with pytest.raises(TypeError):
        g.compose[key] = value
    with pytest.raises(TypeError):
        del g.compose[key]
    with pytest.raises(TypeError):
        g.compose[(g.n_arrows, g.n_arrows)] = 0
    assert g.compose[key] == value
    for table in (g.dom, g.cod, g.identity, g.inverse):
        assert isinstance(table, tuple)


def test_constructor_keeps_its_own_copy(c4):
    dom, compose = list(c4.dom), dict(c4.compose)
    g = FiniteGroupoid(1, dom, c4.cod, c4.identity, compose, c4.inverse)
    compose[(1, 2)] = 0
    del compose[(0, 0)]
    dom[0] = 5
    assert g == c4 and dict(g.compose) == dict(c4.compose)
    assert g.dom == c4.dom and validate(g).ok
