"""The one closure kernel of ``groups`` against the code it replaced.

``FiniteGroup.closure`` closed a seed under two-sided products and
inverses, and ``generating_set`` re-closed from scratch for each new
generator; both are kept verbatim below as ``reference_*``.  Now a
closure is {e} closed under left products by the seed, and one running
closure picks the generators.  In a finite group the two closures are
equal, and each greedy pick depends only on membership, so the
generating sets are equal too.  The orders are also checked against
sympy's permutation groups, and Light's test against the triple scan.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from gpdcov import FiniteGroup, components, vertex_group
from gpdcov.groups import _associative, generating_set

from test_index import CORPUS
from test_reader import GROUPS, LOOP5, outcome, reference_group_check


def reference_closure(group, seed) -> frozenset:
    """Smallest subset containing ``seed`` closed under product/inverse."""
    known = {group.identity}
    frontier = []
    for a in seed:
        if a not in known:
            known.add(a)
            frontier.append(a)
    while frontier:
        nxt = []
        for a in list(known):
            for b in frontier:
                for c in (group.mult(a, b), group.mult(b, a)):
                    if c not in known:
                        known.add(c)
                        nxt.append(c)
        for b in frontier:
            inv = group.inverse(b)
            if inv not in known:
                known.add(inv)
                nxt.append(inv)
        frontier = nxt
    return frozenset(known)


def reference_generating_set(group) -> tuple:
    """A small generating set found greedily (empty for the trivial group)."""
    gens = []
    have = reference_closure(group, ())
    for a in range(group.order):
        if a not in have:
            gens.append(a)
            have = reference_closure(group, gens)
            if len(have) == group.order:
                break
    return tuple(gens)


def _corpus_groups():
    """The vertex groups at each component root of the corpus groupoids,
    the groups of the table tests, and S4; one of each table."""
    groups = {}
    for g in CORPUS.values():
        for block in components(g).blocks:
            vg = vertex_group(g, block[0])
            groups.setdefault(vg.table, vg)
    for grp in GROUPS + [FiniteGroup.symmetric(4)]:
        groups.setdefault(grp.table, grp)
    return list(groups.values())


def test_closure_and_generating_set_match_reference():
    """Every seed of at most two elements, and every subgroup's
    elements, close to the same set; the generating sets are equal."""
    groups = _corpus_groups()
    assert max(grp.order for grp in groups) == 24
    for grp in groups:
        seeds = [s for k in range(3)
                 for s in itertools.combinations(range(grp.order), k)]
        seeds += [sub.elements for sub in grp.subgroups()]
        for seed in seeds:
            assert grp.closure(seed) == reference_closure(grp, seed), seed
        assert generating_set(grp) == reference_generating_set(grp)


S4, S5 = FiniteGroup.symmetric(4), FiniteGroup.symmetric(5)
PERMS = {4: sorted(itertools.permutations(range(4))),
         5: sorted(itertools.permutations(range(5)))}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([(4, S4), (5, S5)]).flatmap(
    lambda ng: st.tuples(st.just(ng), st.lists(
        st.integers(0, ng[1].order - 1), max_size=3))))
def test_closure_order_is_sympy_group_order(case):
    """``FiniteGroup.symmetric(n)`` numbers the permutations of 0..n-1 in
    lexicographic order; the closure of a seed has the order of the
    permutation group it generates."""
    (n, grp), seed = case
    perms = [Permutation(list(PERMS[n][a])) for a in seed]
    want = PermutationGroup(perms or [Permutation(n - 1)]).order()
    assert len(grp.closure(seed)) == want


def _identity(table):
    n = len(table)
    return next((e for e in range(n)
                 if all(table[e][a] == a == table[a][e] for a in range(n))),
                None)


def test_light_test_matches_the_triple_scan():
    """Each group table, each table with one entry of one changed, and
    C2 × LOOP5, that has an identity and inverses: Light's test passes
    exactly when the scan of all triples finds no failure."""
    c2_loop = [[(x + y) % 2 + 2 * LOOP5[x // 2][y // 2] for y in range(10)]
               for x in range(10)]
    tables = [c2_loop] + [[list(row) for row in grp.table] for grp in GROUPS]
    for grp in GROUPS:
        table = [list(row) for row in grp.table]
        for a, b in itertools.product(range(grp.order), repeat=2):
            for v in set(range(grp.order)) - {table[a][b]}:
                tables.append([row[:] for row in table])
                tables[-1][a][b] = v
    seen = set()
    for table in tables:
        want = outcome(reference_group_check, table)
        if want != (None,) and "associativity" not in want[1]:
            continue  # no identity or no inverses: Light's test never runs
        seen.add(want == (None,))
        rows = tuple(map(tuple, table))
        assert _associative(rows, _identity(rows)) == (want == (None,))
    assert seen == {True, False}
