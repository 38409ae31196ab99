"""Property tests on generated groupoids: codiscrete(k) × G for
permutation groups G ≤ S_4 and k ≤ 3, disjoint unions of two of them,
with every id shuffled.

The certified checks are compared with their full-scan oracles:
:func:`validate` with ``reference_validate`` on single-entry
corruptions, and ``functoriality_violations`` with
``reference_functoriality_violations`` on identity morphisms with moved
arrow images.  On coset covers of connected codiscrete(k) × G with k ≤ 2
and |G| ≤ 6, the search of ``all_morphisms`` over f is compared with
``reference_morphisms_over``, and on their lattices ``meet_covering``
with ``reference_meet_covering`` and the join clause with
``reference_join_clause`` on every ordered pair.  hypothesis is
imported directly: without it this module fails to collect instead of
being skipped.
"""

import random

from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from gpdcov import (FiniteGroup, GroupoidMorphism, build_lattice,
                    covering_from_subgroup, disjoint_union, generators,
                    meet_covering, validate, vertex_group)

from test_classify import assert_join_clauses_agree, reference_meet_covering
from test_covering import reference_functoriality_violations
from test_index import (CORRUPTIONS, closure_under_composition,
                        codiscrete_times_group, reference_validate, shuffled)
from test_lifts import maps_of, morphisms_over, reference_morphisms_over

MAX_ARROWS = 72  # keeps the triple scan of reference_validate quick

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.filter_too_much])


def permutation_group(gens) -> FiniteGroup:
    """The group that the permutations ``gens`` of 0..3 generate, with
    elements in ascending order and (a·b)(i) = a(b(i))."""
    elements = {tuple(range(4))}
    frontier = list(elements)
    while frontier:
        p = frontier.pop()
        for g in gens:
            q = tuple(g[i] for i in p)
            if q not in elements:
                elements.add(q)
                frontier.append(q)
    elements = sorted(elements)
    index = {p: i for i, p in enumerate(elements)}
    return FiniteGroup([[index[tuple(a[i] for i in b)] for b in elements]
                        for a in elements])


@st.composite
def products(draw, budget=MAX_ARROWS):
    """codiscrete(k) × G with at most ``budget`` arrows when k = 1 allows
    it, else None."""
    gens = draw(st.lists(st.permutations(range(4)), min_size=1,
                         max_size=2))
    group = permutation_group(gens)
    k = draw(st.integers(1, 3))
    while k > 1 and k * k * group.order > budget:
        k -= 1
    if group.order > budget:
        return None
    return codiscrete_times_group(k, group)


@st.composite
def groupoids(draw):
    """One product, or the disjoint union of two, with shuffled ids."""
    g = draw(products())
    if g is None:
        g = codiscrete_times_group(1, FiniteGroup.trivial())
    if draw(st.booleans()):
        h = draw(products(MAX_ARROWS - g.n_arrows))
        if h is not None:
            g = disjoint_union(g, h)
    return shuffled(g, draw(st.integers(0, 2 ** 16)))


@SETTINGS
@given(groupoids())
def test_generators_generate(g):
    gens = generators(g)
    assert gens is not None
    assert set(g.identity) <= set(gens)
    assert {g.inverse[a] for a in gens} == set(gens)
    assert closure_under_composition(g, gens) == set(g.arrows)


@SETTINGS
@given(groupoids(), st.sampled_from(sorted(CORRUPTIONS)),
       st.integers(0, 2 ** 16))
def test_validate_matches_reference_on_a_corruption(g, corruption, seed):
    assert validate(g).ok and reference_validate(g).ok
    try:
        broken = CORRUPTIONS[corruption](g, random.Random(seed))
    except IndexError:  # g has no entry of the kind this corruption needs
        reject()
    report = validate(broken)
    assert not report.ok
    assert report.violations == reference_validate(broken).violations


@SETTINGS
@given(groupoids(), st.lists(st.tuples(st.integers(0), st.integers(0),
                                       st.booleans()),
                             min_size=1, max_size=3))
def test_functoriality_matches_reference_on_moved_arrows(g, moves):
    """Each move sends one arrow to some arrow: one parallel to it when
    the move's flag is set, else any arrow."""
    identity = GroupoidMorphism.identity(g)
    assert identity.functoriality_violations() == \
        reference_functoriality_violations(identity) == []
    arr_map = list(g.arrows)
    for i, j, parallel in moves:
        a = i % g.n_arrows
        choices = g.hom(g.dom[a], g.cod[a]) if parallel else g.arrows
        arr_map[a] = choices[j % len(choices)]
    m = GroupoidMorphism(g, g, g.objects, arr_map)
    assert m.functoriality_violations() == \
        reference_functoriality_violations(m)


# Subgroups of S_3 on 0..2, cyclic subgroups of S_4 and subgroups of the
# Klein four-group: every G here has |G| ≤ 6.
SMALL_GROUP_GENERATORS = st.one_of(
    st.lists(st.permutations(range(3)).map(lambda p: tuple(p) + (3,)),
             min_size=1, max_size=2),
    st.permutations(range(4)).map(lambda p: [p]),
    st.lists(st.sampled_from([(1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]),
             min_size=1, max_size=2))


@SETTINGS
@given(SMALL_GROUP_GENERATORS, st.integers(1, 2), st.integers(0, 2 ** 16),
       st.data())
def test_search_over_f_matches_reference_on_coset_covers(gens, k, seed,
                                                         data):
    """p is a coset cover and f the identity or another coset cover's
    projection, whose total has at most three objects so that the full
    enumeration of the oracle stays small."""
    g = shuffled(codiscrete_times_group(k, permutation_group(gens)), seed)
    x = data.draw(st.sampled_from(g.objects))
    subgroups = vertex_group(g, x).subgroups()
    p = covering_from_subgroup(g, x, data.draw(st.sampled_from(subgroups)))
    f = GroupoidMorphism.identity(g)
    if data.draw(st.booleans()):
        small = [h for h in subgroups if k * h.index <= 3]
        f = covering_from_subgroup(
            g, x, data.draw(st.sampled_from(small))).morphism
    assert maps_of(morphisms_over(p.morphism, f)) == \
        maps_of(reference_morphisms_over(p.morphism, f))


@settings(SETTINGS, max_examples=80)
@given(SMALL_GROUP_GENERATORS, st.integers(1, 2), st.integers(0, 2 ** 16),
       st.data())
def test_meet_matches_reference_on_generated_lattices(gens, k, seed, data):
    """The meet grown from the marked pair names the same node as the
    component of the full fibered product, for every ordered pair."""
    g = shuffled(codiscrete_times_group(k, permutation_group(gens)), seed)
    lat = build_lattice(g, data.draw(st.sampled_from(g.objects)))
    for a in lat.nodes:
        for b in lat.nodes:
            assert meet_covering(a, b) is reference_meet_covering(a, b)


@settings(SETTINGS, max_examples=80)
@given(SMALL_GROUP_GENERATORS, st.integers(1, 2), st.integers(0, 2 ** 16),
       st.data())
def test_join_matches_reference_on_generated_lattices(gens, k, seed, data):
    """The join clause on joined orbit partitions and the pushout
    reference give one verdict on every ordered pair with every node as
    candidate join node, and accept the join node alone."""
    g = shuffled(codiscrete_times_group(k, permutation_group(gens)), seed)
    assert_join_clauses_agree(
        build_lattice(g, data.draw(st.sampled_from(g.objects))))
