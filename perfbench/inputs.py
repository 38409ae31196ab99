"""Seeded input documents for the gpdcov benchmark.

Groups are generated from permutation generators; the groupoids I_k × G
and the covers of the topos workload are written out directly as tables.
Nothing here imports gpdcov, so the inputs, like the known answers, do not
depend on the program under test.

The seed relabels ids: it shuffles the order of group elements, objects
and arrows in every document.  Names stay canonical, so the known answers
(counts, folds, orders) are the same for every seed.

Conventions follow gpdcov's document format: a ``compose`` entry
``[f, h, fh]`` means f∘h with h applied first, and a covering's star at a
total object is the set of arrows into it.
"""

from __future__ import annotations

import json
import os


def compose_perm(p, q):
    """p∘q, q applied first."""
    return tuple(p[i] for i in q)


def invert_perm(p):
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def from_cycles(n, cycles):
    p = list(range(n))
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            p[a] = b
    return tuple(p)


def _cyclic(n):
    return n, [[tuple(range(n))]]


# name -> (points, generators as lists of cycles).  Where a group is given
# on more points than it needs, the extra orbit is a second transitive
# G-set for the topos workload: C4 and D4 also act on 2 points, A4 on the
# three pairings of {0, 1, 2, 3}.
GENERATORS = {
    "C4": (6, [[(0, 1, 2, 3), (4, 5)]]),
    "C8": _cyclic(8),
    "C12": _cyclic(12),
    "C16": _cyclic(16),
    "C24": _cyclic(24),
    "C2xC4": (6, [[(0, 1)], [(2, 3, 4, 5)]]),
    "D4": (6, [[(0, 1, 2, 3), (4, 5)], [(0, 2)]]),
    "S3": (3, [[(0, 1, 2)], [(0, 1)]]),
    "A4": (7, [[(0, 1, 2), (4, 6, 5)], [(0, 1), (2, 3)]]),
    "S4": (4, [[(0, 1, 2, 3)], [(0, 1)]]),
}


class PermGroup:
    """A permutation group with elements in canonical (sorted) order;
    element 0 is the identity, named ``e``, the others ``g1``, ``g2``..."""

    def __init__(self, name):
        n, gens = GENERATORS[name]
        gens = [from_cycles(n, g) for g in gens]
        ident = tuple(range(n))
        found = {ident}
        frontier = [ident]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = compose_perm(x, g)
                    if y not in found:
                        found.add(y)
                        nxt.append(y)
            frontier = nxt
        self.name = name
        self.points = n
        self.perms = sorted(found)
        self.order = len(self.perms)
        self.names = ["e"] + [f"g{k}" for k in range(1, self.order)]
        index = {p: k for k, p in enumerate(self.perms)}
        self.table = [[index[compose_perm(p, q)] for q in self.perms]
                      for p in self.perms]
        self.inverse = [index[invert_perm(p)] for p in self.perms]

    def orbits(self):
        """Orbits of the points, each sorted, ordered by least point."""
        seen, out = set(), []
        for x in range(self.points):
            if x not in seen:
                orb = sorted({p[x] for p in self.perms})
                seen.update(orb)
                out.append(orb)
        return out


def group_doc(g: PermGroup, rng):
    """One-object groupoid as a group table, elements in seeded order."""
    order = rng.sample(range(g.order), g.order)
    return {
        "elements": [g.names[k] for k in order],
        "group_table": [[g.names[g.table[a][b]] for b in order]
                        for a in order],
        "object": "*",
    }


def product_doc(k: int, g: PermGroup, rng):
    """I_k × G: one arrow i -> j per group element, for all i, j < k."""
    objs = rng.sample(range(k), k)

    def name(i, j, x):
        return f"{g.names[x]}:{i}>{j}"

    arrows = [(i, j, x) for i in range(k) for j in range(k)
              for x in range(g.order)]
    rng.shuffle(arrows)
    compose = []
    for j, l, y in arrows:
        for i in range(k):
            for x in range(g.order):
                compose.append([name(j, l, y), name(i, j, x),
                                name(i, l, g.table[y][x])])
    return {
        "objects": [f"x{i}" for i in objs],
        "arrows": [{"name": name(i, j, x), "dom": f"x{i}", "cod": f"x{j}"}
                   for i, j, x in arrows],
        "compose": compose,
        "inverse": {name(i, j, x): name(j, i, g.inverse[x])
                    for i, j, x in arrows},
    }


def action_cover_doc(g: PermGroup, orbit, base_file: str, rng):
    """The covering of the one-object groupoid G by its action groupoid on
    one orbit of the points, where x·p = p⁻¹(x).

    The total has an arrow (x, p) : x·p -> x over each element p, so the
    star at x maps bijectively onto G; (x, p)∘(x·p, q) = (x, p∘q).
    """
    inv_perm = [invert_perm(p) for p in g.perms]

    def act(x, p):
        return inv_perm[p][x]

    def name(x, p):
        return f"{g.names[p]}@p{x}"

    objs = rng.sample(orbit, len(orbit))
    arrows = [(x, p) for x in orbit for p in range(g.order)]
    rng.shuffle(arrows)
    compose = [[name(x, p), name(act(x, p), q), name(x, g.table[p][q])]
               for x, p in arrows for q in range(g.order)]
    total = {
        "objects": [f"p{x}" for x in objs],
        "arrows": [{"name": name(x, p), "dom": f"p{act(x, p)}",
                    "cod": f"p{x}"} for x, p in arrows],
        "compose": compose,
        "inverse": {name(x, p): name(act(x, p), g.inverse[p])
                    for x, p in arrows},
    }
    return {
        "source": total,
        "target": base_file,
        "objects": {f"p{x}": "*" for x in objs},
        "arrows": {name(x, p): g.names[p] for x, p in arrows},
    }


def write_doc(directory: str, fname: str, doc) -> str:
    path = os.path.join(directory, fname)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path
