"""Recompute the known-answer table by brute force, without gpdcov.

    python3 perfbench/check_answers.py
    python3 -m pytest perfbench/check_answers.py

Every subgroup is reached from the trivial one by adjoining elements one
at a time and closing, so the breadth-first search below finds them all.
"""

from __future__ import annotations

import itertools
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from answers import GROUPS, equivariant_maps  # noqa: E402
from inputs import GENERATORS, PermGroup, compose_perm, invert_perm  # noqa: E402


def closure(perms, seed):
    ident = tuple(range(len(perms[0])))
    found = {ident} | set(seed)
    frontier = list(found)
    while frontier:
        nxt = []
        for x in frontier:
            for y in list(found):
                for z in (compose_perm(x, y), compose_perm(y, x)):
                    if z not in found:
                        found.add(z)
                        nxt.append(z)
        frontier = nxt
    return frozenset(found)


def subgroups(perms):
    trivial = closure(perms, ())
    found = {trivial}
    frontier = [trivial]
    while frontier:
        nxt = []
        for h in frontier:
            for g in perms:
                if g not in h:
                    k = closure(perms, h | {g})
                    if k not in found:
                        found.add(k)
                        nxt.append(k)
        frontier = nxt
    return found


def is_normal(perms, h):
    return all(compose_perm(compose_perm(g, x), invert_perm(g)) in h
               for g in perms for x in h)


def test_group_table_entries():
    for name, (order, indices, normal) in GROUPS.items():
        perms = PermGroup(name).perms
        assert len(perms) == order, name
        subs = subgroups(perms)
        assert tuple(sorted(order // len(h) for h in subs)) == indices, name
        assert sum(1 for h in subs if is_normal(perms, h)) == normal, name


def test_tables_are_groups():
    for name in GENERATORS:
        g = PermGroup(name)
        rng = range(g.order)
        assert all(g.table[0][a] == a == g.table[a][0] for a in rng)
        assert all(g.table[a][g.inverse[a]] == 0 for a in rng)
        assert all(g.table[g.table[a][b]][c] == g.table[a][g.table[b][c]]
                   for a in rng for b in rng for c in rng)


def _naive_equivariant_maps(g, orbit_r, orbit_p, orbit_q):
    pairs = list(itertools.product(orbit_r, orbit_p))
    count = 0
    for images in itertools.product(orbit_q, repeat=len(pairs)):
        f = dict(zip(pairs, images))
        if all(f[(h[r], h[p])] == h[f[(r, p)]]
               for h in g.perms for r, p in pairs):
            count += 1
    return count


def test_equivariant_map_count():
    for name in ("C4", "D4", "C2xC4", "A4"):
        g = PermGroup(name)
        small = min(g.orbits(), key=len)
        big = max(g.orbits(), key=len)
        for r, p, q in ((small, small, small), (small, small, big),
                        (big, small, small), (small, big, small)):
            assert equivariant_maps(g, r, p, q) == \
                _naive_equivariant_maps(g, r, p, q), name


if __name__ == "__main__":
    for fn in (test_group_table_entries, test_tables_are_groups,
               test_equivariant_map_count):
        fn()
        print("ok", fn.__name__)
