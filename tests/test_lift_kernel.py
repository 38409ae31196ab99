"""The one lifting kernel against the lift path it replaced.

``lift_morphism``, ``covering_morphisms``, the isomorphism search behind
``find_covering_isomorphism`` and ``equivalent_coverings``, and
``covering_transformations`` all read their lifts from the witnesses
through one kernel, ``covering._lifter``, which certifies each lift once.
The path it replaced, a walk per seed and then a second proof of the glued
lift, is kept verbatim in ``tests/test_lifts.py`` as ``reference_*``.
Both must give the same maps, in the same order, and the same None on the
inputs here; the kernel must refuse every inconsistent witness by name,
where the old path let some through or raised a bare ``KeyError``.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpdcov import (Covering, FiniteGroup, GroupoidMorphism,
                    TheoremViolation, check_covering, covering_from_subgroup,
                    covering_morphisms, disjoint_union, group_groupoid,
                    is_connected, lift_morphism, require_covering,
                    universal_cover, vertex_group)
from gpdcov import covering as covering_module
from gpdcov.covering import _iso_over, find_covering_isomorphism

from test_cov_kernel import swapped_witnesses
from test_index import CORPUS
from test_lifts import (CONNECTED, DISCONNECTED, _morphisms_into,
                        assert_same_or_none, maps_of,
                        reference_covering_morphisms, reference_iso_over,
                        reference_lift_morphism, small_covers,
                        subgroup_covers)

INCONSISTENT = "^lift propagation inconsistent at object [0-9]+$"


def three_copies(g):
    """The identity covering of g three times over: a disconnected total
    whose three components each lift onto each of the others."""
    two = disjoint_union(g, g)
    total = disjoint_union(two, g)
    return require_covering(GroupoidMorphism(
        total, g, [x % g.n_objects for x in total.objects],
        [a % g.n_arrows for a in total.arrows]))


def covers_of(name):
    return small_covers(name) + [three_copies(CORPUS[name])]


def assert_same_lift(p, f, f0, seed):
    assert_same_or_none(lift_morphism(p, f, f0, seed),
                        reference_lift_morphism(p, f, f0, seed))


def assert_same_search(p, q):
    """covering_morphisms, find_covering_isomorphism and _iso_over of the
    pair against the old path."""
    assert maps_of(covering_morphisms(p, q)) == \
        maps_of(reference_covering_morphisms(p, q))
    same_size = (p.total.n_objects, p.total.n_arrows) == \
        (q.total.n_objects, q.total.n_arrows)
    assert_same_or_none(
        find_covering_isomorphism(p, q),
        reference_iso_over(p.morphism, q) if same_size else None)
    assert_same_or_none(_iso_over(p.morphism, q),
                        reference_iso_over(p.morphism, q))


# -- the kernel against the old path ------------------------------------------

@pytest.mark.parametrize("name", CONNECTED + DISCONNECTED)
def test_lift_morphism_matches_reference_at_every_seed(name):
    """Every pair of a small covering and a morphism into the base, lifted
    from each source object at every seed over it; a disconnected source
    is refused by both with the same message."""
    lifted = 0
    for p in small_covers(name):
        for f in _morphisms_into(name):
            if not is_connected(f.source):
                with pytest.raises(ValueError) as got:
                    lift_morphism(p, f, 0, p.fibers[f.obj_map[0]][0])
                with pytest.raises(ValueError) as want:
                    reference_lift_morphism(p, f, 0,
                                            p.fibers[f.obj_map[0]][0])
                assert str(got.value) == str(want.value)
                continue
            for f0 in f.source.objects:
                for seed in p.fibers[f.obj_map[f0]]:
                    assert_same_lift(p, f, f0, seed)
                    lifted += 1
    assert lifted or not is_connected(CORPUS[name])


@pytest.mark.parametrize("name", CONNECTED + DISCONNECTED)
def test_searches_match_reference_on_every_ordered_pair(name):
    """The small coverings (the identity, the classifier and coset covers)
    and three copies of the identity, every ordered pair."""
    for p, q in itertools.product(covers_of(name), repeat=2):
        assert_same_search(p, q)


def test_three_copies_lift_onto_each_other():
    g = CORPUS["codiscrete-2-x-c3"]
    three = three_copies(g)
    assert len(covering_morphisms(three, three)) == 27
    iso = find_covering_isomorphism(three, three)
    assert iso is not None and iso.is_bijective()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(CONNECTED), st.data())
def test_matches_reference_on_generated_coset_covers(name, data):
    """Two coset covers of one base: the searches between them, and the
    lift of one projection through the other at every seed."""
    g = CORPUS[name]
    covers = []
    for _ in range(2):
        g0 = data.draw(st.integers(0, g.n_objects - 1))
        vg = vertex_group(g, g0)
        gens = data.draw(st.lists(st.integers(0, vg.order - 1), max_size=3))
        covers.append(covering_from_subgroup(g, g0, vg.generated_subgroup(
            gens)))
    p, q = covers
    assert_same_search(p, q)
    assert_same_search(q, p)
    for seed in q.fibers[p.morphism.obj_map[p.mark]]:
        assert_same_lift(q, p.morphism, p.mark, seed)


# -- inconsistent witnesses and non-functorial input --------------------------

def assert_each_lift_names(b, x):
    for lift in (lambda: lift_morphism(b, b.morphism, b.mark, b.mark),
                 lambda: covering_morphisms(b, b),
                 lambda: find_covering_isomorphism(b, b)):
        with pytest.raises(TheoremViolation) as exc:
            lift()
        assert str(exc.value) == f"lift propagation inconsistent at object {x}"


def test_every_lift_refuses_swapped_witnesses_by_name():
    """Every single swap of consecutive witness entries, on the coset and
    universal covers of the connected corpus bases, is refused by name by
    each lift; the old path raised a bare KeyError on 568 of them and
    returned maps that are no functors over the base from
    covering_morphisms on 421 more."""
    swaps = 0
    for name in CONNECTED:
        g = CORPUS[name]
        for p in subgroup_covers(g) + [universal_cover(g)]:
            for b in swapped_witnesses(p):
                swaps += 1
                with pytest.raises(TheoremViolation, match=INCONSISTENT):
                    lift_morphism(b, b.morphism, b.mark, b.mark)
                with pytest.raises(TheoremViolation, match=INCONSISTENT):
                    covering_morphisms(b, b)
                with pytest.raises(TheoremViolation, match=INCONSISTENT):
                    find_covering_isomorphism(b, b)
    assert swaps == 1567


def test_a_read_off_the_fiber_names_the_least_such_object():
    """On the universal cover of codiscrete-2-x-c3, with the lifts of base
    arrows 1 and 6 into object 0 swapped, the tree read sends objects 2
    and 3 into each other's fibers, and the arrow read then leaves the
    fiber: each lift names 2, the least source object off its fiber."""
    p = universal_cover(CORPUS["codiscrete-2-x-c3"])
    wits = [dict(w) for w in p.witnesses]
    wits[0][1], wits[0][6] = wits[0][6], wits[0][1]
    assert p.morphism.obj_map == (0, 0, 0, 1, 1, 1)
    assert_each_lift_names(Covering(p.morphism, wits, p.marked_object), 2)


def test_a_witness_missing_a_lift_is_named():
    """A witness that lacks one lift fails the read at its object, which
    each lift names."""
    p = universal_cover(CORPUS["codiscrete-2-x-c3"])
    wits = [dict(w) for w in p.witnesses]
    del wits[4][max(wits[4])]
    assert_each_lift_names(Covering(p.morphism, wits, p.marked_object), 4)


def test_lift_morphism_refuses_a_non_functorial_map():
    """The caller's error, in check_covering's words, not a library
    fault."""
    c4 = group_groupoid(FiniteGroup.cyclic(4))
    ident = require_covering(GroupoidMorphism.identity(c4))
    swap = GroupoidMorphism(c4, c4, (0,), (0, 2, 1, 3))
    with pytest.raises(ValueError) as want:
        check_covering(swap)
    assert str(want.value).startswith("morphism is not functorial: ")
    with pytest.raises(ValueError) as got:
        lift_morphism(ident, swap, 0, 0)
    assert str(got.value) == str(want.value)


def test_each_lift_is_certified_once(monkeypatch):
    """One certificate per lift read: once for lift_morphism, once per
    fiber object for covering_morphisms on a universal cover, and once for
    the isomorphism search, which stops at the first lift that passes."""
    u = universal_cover(CORPUS["codiscrete-2-x-s3-shuffled"])
    calls = []
    certify = covering_module._lift_fault
    monkeypatch.setattr(covering_module, "_lift_fault",
                        lambda *args: calls.append(args) or certify(*args))
    lift_morphism(u, u.morphism, u.mark, u.mark)
    assert len(calls) == 1
    assert len(covering_morphisms(u, u)) == len(u.fibers[0]) == 6
    assert len(calls) == 7
    assert find_covering_isomorphism(u, u) is not None
    assert len(calls) == 8
