"""Covering transformations read from the witnesses, against the lift path.

``covering_transformations`` reads each transformation from the covering's
witnesses along one spanning tree of the total and certifies it arrow by
arrow.  The code it replaced, one ``lift_morphism`` per fiber object, is
kept verbatim below as ``reference_covering_transformations``, on the old
lift path (``reference_lift_morphism`` of ``tests/test_lifts.py``).  Both
must give the same object maps, arrow maps, group tables and names on every
corpus here, and both must refuse a covering whose witnesses are swapped.
``CovGroup`` certifies the maps it is given, and the per-arrow clauses of
``functoriality_violations`` are compared with the loop they replaced.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpdcov import (CovGroup, Covering, FiniteGroup, FiniteGroupoid,
                    GroupoidMorphism, TheoremViolation, covering_from_subgroup,
                    covering_to_presheaf, covering_transformations,
                    exponential, generators, group_groupoid, is_connected,
                    omega, presheaf_to_covering, pullback_covering,
                    trivial_groupoid, universal_cover, vertex_group)
from gpdcov import covering as covering_module
from gpdcov import transform as transform_module

from test_classify import LATTICE_BASES, lattice_of, orbit_of
from test_index import CORPUS, codiscrete_times_group
from test_lifts import (CONNECTED, _morphisms_into,
                        reference_lift_morphism, small_covers,
                        subgroup_covers)


def reference_covering_transformations(p: Covering) -> CovGroup:
    """Enumerate Cov(total/base) for a connected covering.

    For each fiber object x over the reference base object, unique
    lifting of p through itself with seed x gives the only possible
    transformation sending the marked object to x.  It exists iff the
    pushforward loop group at x contains the marked one; both are
    conjugate, so then they are equal, the reverse lift exists too, and
    the lift is an isomorphism (checked).
    """
    if not (is_connected(p.total) and is_connected(p.base)):
        raise ValueError("covering transformations require a connected "
                         "covering")
    marked = p.mark
    base_obj = p.morphism.obj_map[marked]
    lifts = (reference_lift_morphism(p, p.morphism, marked, cand)
             for cand in p.fibers[base_obj])
    found = [h for h in lifts if h is not None]
    if not all(h.is_bijective() for h in found):
        raise TheoremViolation("seeded transformation is not an isomorphism")
    return CovGroup(p, found, base_obj, marked)


def assert_same_cov(p):
    got = covering_transformations(p)
    want = reference_covering_transformations(p)
    assert [(t.obj_map, t.arr_map) for t in got.transformations] == \
        [(t.obj_map, t.arr_map) for t in want.transformations]
    assert got.group.table == want.group.table
    assert got.group.names == want.group.names
    assert (got.base_object, got.marked) == (want.base_object, want.marked)


def connected(covers):
    return [p for p in covers
            if is_connected(p.total) and is_connected(p.base)]


@pytest.mark.parametrize("name", CONNECTED)
def test_matches_reference_on_the_lift_corpus(name):
    """Every connected cover that ``tests/test_lifts.py`` builds: coset
    covers of every subgroup, the universal cover, the identity, the
    classifier, exponentials, coverings of elements and pullbacks."""
    g = CORPUS[name]
    covers = small_covers(name)
    built = covers + [omega(g).covering, universal_cover(g)]
    built += subgroup_covers(g)
    built += [exponential(p, q).covering
              for p, q in itertools.product(covers, repeat=2)]
    built += [presheaf_to_covering(covering_to_presheaf(cov))
              for cov in covers]
    built += [pullback_covering(p, f).covering for p in covers
              for f in _morphisms_into(name)]
    built = connected(built)
    assert built
    for p in built:
        assert_same_cov(p)


@pytest.mark.parametrize("name", sorted(LATTICE_BASES))
def test_matches_reference_on_lattice_nodes(name):
    """The node covering and the orbit covering of every lattice node."""
    for node in lattice_of(name).nodes:
        assert_same_cov(node.covering)
        assert_same_cov(orbit_of(node).covering)


UNIVERSAL_SHAPES = {
    "C16": group_groupoid(FiniteGroup.cyclic(16)),
    "C24": group_groupoid(FiniteGroup.cyclic(24)),
    "S4": group_groupoid(FiniteGroup.symmetric(4)),
    "I3xC8": codiscrete_times_group(3, FiniteGroup.cyclic(8)),
    "I4xS3": codiscrete_times_group(4, FiniteGroup.symmetric(3)),
}


@pytest.mark.parametrize("name", sorted(UNIVERSAL_SHAPES))
def test_matches_reference_on_universal_workload_shapes(name):
    assert_same_cov(universal_cover(UNIVERSAL_SHAPES[name]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.sampled_from(CONNECTED), st.data())
def test_matches_reference_on_generated_coset_covers(name, data):
    g = CORPUS[name]
    g0 = data.draw(st.integers(0, g.n_objects - 1))
    vg = vertex_group(g, g0)
    gens = data.draw(st.lists(st.integers(0, vg.order - 1), max_size=3))
    sub = vg.generated_subgroup(gens)
    assert_same_cov(covering_from_subgroup(g, g0, sub))


def swapped_witnesses(p):
    """p rebuilt with the lifts of two base arrows into one object swapped,
    for each object and each pair of consecutive witness keys."""
    for at in p.total.objects:
        keys = list(p.witnesses[at])
        for g, h in zip(keys, keys[1:]):
            wits = [dict(w) for w in p.witnesses]
            wits[at][g], wits[at][h] = wits[at][h], wits[at][g]
            yield Covering(p.morphism, wits, p.marked_object)


@pytest.mark.parametrize("name", CONNECTED)
def test_both_refuse_swapped_witnesses(name):
    """The new path names an object; the lift path refuses too, though
    some swaps reach it as a KeyError from a walk off the fiber."""
    g = CORPUS[name]
    for p in subgroup_covers(g) + [universal_cover(g)]:
        for broken in swapped_witnesses(p):
            with pytest.raises(TheoremViolation,
                               match="^lift propagation inconsistent at "
                                     "object [0-9]+$"):
                covering_transformations(broken)
            with pytest.raises((TheoremViolation, KeyError)):
                reference_covering_transformations(broken)


def test_kernel_certifies_each_transformation_once(monkeypatch):
    p = universal_cover(CORPUS["codiscrete-2-x-s3-shuffled"])
    calls = []
    certify = covering_module._lift_fault
    for module in (covering_module, transform_module):
        monkeypatch.setattr(module, "_lift_fault",
                            lambda *args: calls.append(args) or certify(*args))
    cov = covering_transformations(p)
    assert len(calls) == cov.order == 6
    CovGroup(p, cov.transformations, cov.base_object, cov.marked)
    assert len(calls) == 2 * cov.order


# -- CovGroup checks that its maps are functors over the projection -----------

CLOSURE = "covering transformations are not closed under composition"


@pytest.mark.parametrize("name, moves, past_closure", [
    ("codiscrete-2-x-c3", 15, 9), ("codiscrete-3-x-c2-shuffled", 10, 8)])
def test_cov_group_refuses_every_move_on_an_inverse_arrow(
        name, moves, past_closure):
    """A transformation moved on the greater arrow c of an inverse pair in
    the generating set, t(c) ↦ t(c)⁻¹, is no functor.  Each such move is
    refused: by the closure check as before, or, for those that pass it
    (``past_closure``, which CovGroup once accepted; 6 of the 10 and 4 of
    the 5 moves of a transformation other than the identity), by the
    certificate, which names the clause, the transformation and the
    arrow."""
    p = universal_cover(CORPUS[name])
    cov = covering_transformations(p)
    total, ts = p.total, cov.transformations
    skipped = [a for a in generators(total) if total.inverse[a] < a]
    messages = []
    for k, c in itertools.product(range(cov.order), skipped):
        arr_map = list(ts[k].arr_map)
        arr_map[c] = total.inverse[arr_map[c]]
        bad = list(ts)
        bad[k] = GroupoidMorphism(total, total, ts[k].obj_map, arr_map)
        with pytest.raises(TheoremViolation) as exc:
            CovGroup(p, bad, cov.base_object, cov.marked)
        clause = ("dom t(a) = t(dom a)" if total.dom[c] != total.cod[c]
                  else "p(t(a)) = p(a)")
        assert str(exc.value) in (CLOSURE, (
            f"covering transformation h{ts[k].obj_map[cov.marked]} breaks "
            f"{clause} at arrow {c}"))
        messages.append(str(exc.value))
    assert len(messages) == moves
    assert sum(m != CLOSURE for m in messages) == past_closure


def test_cov_group_accepts_its_own_transformations():
    for name in ("codiscrete-2-x-c3", "codiscrete-3-x-c2-shuffled", "s3"):
        p = universal_cover(CORPUS[name])
        cov = covering_transformations(p)
        again = CovGroup(p, cov.transformations[::-1], cov.base_object,
                         cov.marked)
        assert again.group.table == cov.group.table


# -- the per-arrow clauses of functoriality_violations ------------------------

def reference_functoriality_violations(m):
    """The dom/cod/identity loop as it was, then the same composition
    certificate and scan as ``GroupoidMorphism.functoriality_violations``."""
    src, dst = m.source, m.target
    arr = m.arr_map
    bad = []
    for a in src.arrows:
        fa = arr[a]
        if dst.dom[fa] != m.obj_map[src.dom[a]]:
            bad.append(f"arrow {a}: image dom mismatch")
        if dst.cod[fa] != m.obj_map[src.cod[a]]:
            bad.append(f"arrow {a}: image cod mismatch")
    for x in src.objects:
        if arr[src.identity[x]] != dst.identity[m.obj_map[x]]:
            bad.append(f"object {x}: identity not preserved")
    if not bad and m._keeps_composites_on(generators(src)):
        return bad
    for (f, h), v in src.compose.items():
        img = dst.compose.get((arr[f], arr[h]))
        if img != arr[v]:
            bad.append(f"pair ({f}, {h}): composition not preserved")
    return bad


EMPTY = FiniteGroupoid(0, (), (), (), {}, ())


def _morphism_pool():
    pool = [GroupoidMorphism.identity(EMPTY),
            GroupoidMorphism.identity(trivial_groupoid())]
    for name in ("s3", "codiscrete-2-x-c3", "codiscrete-3-x-c2-shuffled",
                 "union-shuffled", "pair-subgroupoid"):
        g = CORPUS[name]
        pool.append(GroupoidMorphism.identity(g))
        if is_connected(g):
            u = universal_cover(g)
            pool.append(u.morphism)
            pool += covering_transformations(u).transformations[:2]
    return pool


MORPHISMS = _morphism_pool()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(range(len(MORPHISMS))), st.data())
def test_functoriality_violations_match_the_loop(k, data):
    m = MORPHISMS[k]
    obj_map, arr_map = list(m.obj_map), list(m.arr_map)
    for images, bound in ((obj_map, m.target.n_objects),
                          (arr_map, m.target.n_arrows)):
        if images:
            changes = data.draw(st.lists(st.tuples(
                st.integers(0, len(images) - 1), st.integers(0, bound - 1)),
                max_size=3))
            for i, v in changes:
                images[i] = v
    mutated = GroupoidMorphism(m.source, m.target, obj_map, arr_map)
    assert mutated.functoriality_violations() == \
        reference_functoriality_violations(mutated)


def test_functoriality_violations_on_the_smallest_groupoids():
    """itemgetter returns a bare item for one index and refuses none."""
    t1 = trivial_groupoid()
    for m in (GroupoidMorphism.identity(EMPTY),
              GroupoidMorphism.identity(t1)):
        assert m.functoriality_violations() == []
    two = FiniteGroupoid(2, (0, 1), (0, 1), (0, 1), {(0, 0): 0, (1, 1): 1},
                         (0, 1))
    bad = GroupoidMorphism(t1, two, (0,), (1,))
    assert bad.functoriality_violations() == \
        reference_functoriality_violations(bad) == [
            "arrow 0: image dom mismatch", "arrow 0: image cod mismatch",
            "object 0: identity not preserved"]
