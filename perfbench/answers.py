"""Known answers for every benchmark job, independent of gpdcov.

The group data below are the standard subgroup counts of the ladder
groups: for each group, its order, the sorted indices of all its
subgroups, and how many subgroups are normal.  ``check_answers.py``
recomputes each entry by brute force from the permutation generators in
``inputs.py``.  The Galois correspondence turns them into lattice
answers: one node per subgroup, fold = index, regular = normal.

Each ``*_check`` function returns a checker that takes a job's stdout and
returns None when it is right, or a message saying what is wrong.
"""

from __future__ import annotations

import json

from inputs import PermGroup

GROUPS = {
    "C4": (4, (1, 2, 4), 3),
    "C8": (8, (1, 2, 4, 8), 4),
    "C12": (12, (1, 2, 3, 4, 6, 12), 6),
    "C16": (16, (1, 2, 4, 8, 16), 5),
    "C24": (24, (1, 2, 3, 4, 6, 8, 12, 24), 8),
    "C2xC4": (8, (1, 2, 2, 2, 4, 4, 4, 8), 8),
    "D4": (8, (1, 2, 2, 2, 4, 4, 4, 4, 4, 8), 6),
    "S3": (6, (1, 2, 3, 3, 3, 6), 3),
    "A4": (12, (1, 3, 4, 4, 4, 4, 6, 6, 6, 12), 3),
    "S4": (24, (1, 2) + (3,) * 3 + (4,) * 4 + (6,) * 7 + (8,) * 4
           + (12,) * 9 + (24,), 4),
}


def _json(check):
    def run(stdout):
        try:
            doc = json.loads(stdout)
        except ValueError as exc:
            return f"stdout is not JSON: {exc}"
        return check(doc)
    return run


def _expect(what, got, want):
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


def lattice_check(group):
    _, indices, normal = GROUPS[group]

    def check(doc):
        nodes = doc["nodes"]
        return (_expect("node count", len(nodes), len(indices))
                or _expect("folds", tuple(sorted(n["fold"] for n in nodes)),
                           indices)
                or _expect("regular nodes",
                           sum(1 for n in nodes if n["regular"]), normal))
    return _json(check)


def groupoid_size_check(objects, arrows):
    """A covering document whose total has the given object and arrow
    counts."""
    def check(doc):
        total = doc["source"]
        return (_expect("total objects", len(total["objects"]), objects)
                or _expect("total arrows", len(total["arrows"]), arrows))
    return _json(check)


def universal_check(group, k):
    """The universal cover of I_k × G is simply connected on k·|G|
    objects, so it is the codiscrete groupoid with (k·|G|)² arrows."""
    n = k * GROUPS[group][0]
    return groupoid_size_check(n, n * n)


def cov_group_check(group):
    """Cov of a universal cover is the base's vertex group."""
    order = GROUPS[group][0]
    return _json(lambda doc: _expect("cov-group order", doc["order"], order))


def regular_check():
    return _json(lambda doc: _expect("regular", doc, {"regular": True}))


def expo_check(group, fold_p, fold_q):
    """Over a one-object base the fiber of p^q is the set of all maps
    fiber(q) -> fiber(p); each total object has one arrow per element."""
    objects = fold_p ** fold_q
    return groupoid_size_check(objects, objects * GROUPS[group][0])


def equivariant_maps(g: PermGroup, orbit_r, orbit_p, orbit_q) -> int:
    """|Hom_G(R × P, Q)| for transitive G-sets given as orbits of g's
    points: each orbit of R × P contributes the number of points of Q fixed
    by the stabilizer of one of its members."""
    seen, count = set(), 1
    for r in orbit_r:
        for p in orbit_p:
            if (r, p) in seen:
                continue
            stab = [h for h in g.perms if h[r] == r and h[p] == p]
            seen.update((h[r], h[p]) for h in g.perms)
            count *= sum(1 for q in orbit_q
                         if all(h[q] == q for h in stab))
    return count


def adjunction_check(g: PermGroup, orbit_r, orbit_p, orbit_q):
    homs = equivariant_maps(g, orbit_r, orbit_p, orbit_q)
    want = {"bijection": True, "exponential_hom_count": homs,
            "product_hom_count": homs}
    return _json(lambda doc: _expect("adjunction", doc, want))


def presheaf_check(fold):
    """The fiber presheaf of a fold-k cover of a one-object base."""
    return _json(lambda doc: _expect("fiber size", len(doc["sets"]["*"]),
                                     fold))


def omega_check(group):
    """Two copies of the one-object base G."""
    return groupoid_size_check(2, 2 * GROUPS[group][0])


def subobjects_check():
    """Omega has two components, so 2² subobjects."""
    return _json(lambda doc: _expect("subobjects", doc["count"], 4))


def selftest_check(stdout):
    lines = stdout.splitlines()
    if len(lines) != 10:
        return f"expected 10 criterion lines, got {len(lines)}"
    bad = [ln for ln in lines if not ln.startswith("PASS")]
    return f"failed criteria: {bad}" if bad else None
