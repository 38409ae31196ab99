"""Finite groupoids stored as explicit composition tables.

A groupoid is a category in which every arrow is invertible.  Objects and
arrows are dense small integers; composition is a partial table keyed by
composable pairs.  ``compose(f, h)`` is defined exactly when
``cod(h) == dom(f)`` and denotes "h first, then f" — the composite
f∘h : dom(h) -> cod(f).

The *star* of an object x is the set of arrows INTO x (codomain x).  In a
groupoid any nonempty sieve on x is already all of star(x), so stars play
the role of canonical neighborhoods; every lifting construction in this
package works star-by-star under this codomain convention.

Each groupoid carries a per-object star index, built once at construction
in O(arrows): ``_into[x]`` and ``_out[x]`` hold the ids of the arrows into
and out of x, in ascending order.  :func:`star` reads it in O(|star x|),
``hom(x, y)`` and ``loops`` in O(|star y|).  :func:`partition` is the
package's one union-find; :func:`components` computes the partition into
connected components with it on its first call and keeps it.

:func:`generators` finds, on its first call, a generating set A of the
groupoid that is closed under inverses and holds every identity, checks
that A generates, and keeps it.  Laws closed under composition are then
checked on part of A, as :func:`generators` details: :func:`validate`
checks associativity on the triples (f, a, k) with a in A not an identity
(F. W. Light's test), compared a row at a time, so a groupoid that
passes costs |compose| lookups and one list comparison per pair (f, a)
to validate; the scan of all composable triples runs only when that
test fails, to name every offending triple.

Each groupoid is built once, by its one constructor, and is immutable:
``compose`` is a read-only mapping.  All operations are pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

from .groups import FiniteGroup

_NOT_YET = object()  # a cache slot that has not been filled


class FiniteGroupoid:
    """Extensional finite groupoid: object count, arrow endpoint tables,
    identity/inverse tables and a full composition table.

    The one constructor makes shape checks, freezes one copy of
    ``compose`` (a write raises ``TypeError``) and builds the star index;
    :func:`validate` reports on the category and groupoid laws.  The
    builders in this module always return law-abiding instances.
    """

    def __init__(self, n_objects, dom, cod, identity, compose, inverse,
                 obj_labels=None, arr_labels=None):
        self.n_objects = int(n_objects)
        self.dom = tuple(dom)
        self.cod = tuple(cod)
        if len(self.dom) != len(self.cod):
            raise ValueError("dom and cod tables must have equal length")
        self.identity = tuple(identity)
        if len(self.identity) != self.n_objects:
            raise ValueError("one identity arrow per object required")
        self.compose = MappingProxyType(dict(compose))
        self.inverse = tuple(inverse)
        if len(self.inverse) != len(self.dom):
            raise ValueError("inverse table must cover all arrows")
        self.obj_labels = tuple(map(str, range(self.n_objects)
                                    if obj_labels is None else obj_labels))
        self.arr_labels = tuple(map(str, range(len(self.dom))
                                    if arr_labels is None else arr_labels))
        if len(self.obj_labels) != self.n_objects:
            raise ValueError("object label count mismatch")
        if len(self.arr_labels) != len(self.dom):
            raise ValueError("arrow label count mismatch")
        # The star index.  Out-of-range endpoints are left out of it, so
        # that validate() can still report them.
        n = self.n_objects
        into = [[] for _ in range(n)]
        out = [[] for _ in range(n)]
        for a, (x, y) in enumerate(zip(self.dom, self.cod)):
            if 0 <= x < n:
                out[x].append(a)
            if 0 <= y < n:
                into[y].append(a)
        self._into = tuple(map(tuple, into))
        self._out = tuple(map(tuple, out))
        self._components = None  # the Partition, once components() asks
        self._generators = _NOT_YET  # once generators() asks

    @property
    def n_arrows(self) -> int:
        return len(self.dom)

    @property
    def objects(self) -> range:
        return range(self.n_objects)

    @property
    def arrows(self) -> range:
        return range(self.n_arrows)

    def compose_arrows(self, f: int, h: int) -> int:
        """f∘h (h applied first); raises if not composable."""
        try:
            return self.compose[(f, h)]
        except KeyError:
            raise ValueError(
                f"arrows {f} and {h} are not composable "
                f"(cod({h})={self.cod[h]} != dom({f})={self.dom[f]})"
            ) from None

    def hom(self, x: int, y: int) -> tuple:
        """Arrows x -> y in ascending id order; O(|star y|) from the star
        index."""
        if not 0 <= y < self.n_objects:
            return ()
        dom = self.dom
        return tuple(a for a in self._into[y] if dom[a] == x)

    def loops(self, x: int) -> tuple:
        return self.hom(x, x)

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, FiniteGroupoid)
                and self.n_objects == other.n_objects
                and self.dom == other.dom
                and self.cod == other.cod
                and self.identity == other.identity
                and self.compose == other.compose
                and self.inverse == other.inverse)

    def __repr__(self):
        return (f"FiniteGroupoid(objects={self.n_objects}, "
                f"arrows={self.n_arrows})")


@dataclass(frozen=True)
class Star:
    """All arrows into one object — the maximal sieve on it."""
    at: int
    arrows: tuple


@dataclass(frozen=True)
class Violation:
    kind: str
    ids: tuple
    message: str


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class Partition:
    """A partition of 0..n-1: ``blocks`` ordered by least member, each
    ascending, and ``index[x]`` the block of x."""
    blocks: tuple
    index: tuple

    def block_index(self, x: int) -> int:
        if not 0 <= x < len(self.index):
            raise ValueError(f"object {x} not in any block")
        return self.index[x]

    def __len__(self):
        return len(self.blocks)


def partition(n: int, pairs) -> Partition:
    """The finest partition of 0..n-1 in which each pair (x, y) shares a
    block: a union-find whose roots are least members."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)
    blocks, index = [], []
    for x in range(n):
        r = find(x)  # the least member of the block of x, so r <= x
        if r == x:
            index.append(len(blocks))
            blocks.append([x])
        else:
            index.append(index[r])
            blocks[index[r]].append(x)
    return Partition(tuple(map(tuple, blocks)), tuple(index))


def validate(g: FiniteGroupoid) -> ValidationReport:
    """Report every violated category/groupoid law with the offending ids.

    Structural breakage (ids out of range, composition keyed on
    non-composable pairs) is reported first; law checks run only on the
    structurally sound part so they cannot crash.  When every other law
    holds, associativity is certified by Light's test on
    :func:`generators`; the scan of all composable triples runs only when
    that fails, so it names every offending triple.
    """
    bad = []
    n, m = g.n_objects, g.n_arrows
    for a in range(m):
        for what, v, bound in (("dom", g.dom[a], n), ("cod", g.cod[a], n),
                               ("inverse", g.inverse[a], m)):
            if not 0 <= v < bound:
                bad.append(Violation(f"{what}-range", (a,),
                                     f"arrow {a} has out-of-range {what}"))
    for x in range(n):
        e = g.identity[x]
        if not 0 <= e < m:
            bad.append(Violation("identity-range", (x,),
                                 f"object {x} has out-of-range identity"))
    for (f, h), v in g.compose.items():
        if not (0 <= f < m and 0 <= h < m and 0 <= v < m):
            bad.append(Violation("compose-range", (f, h),
                                 f"composition entry ({f}, {h}) out of range"))
    if bad:
        return ValidationReport(tuple(bad))

    for x in range(n):
        e = g.identity[x]
        if g.dom[e] != x or g.cod[e] != x:
            bad.append(Violation(
                "identity-endpoints", (x, e),
                f"identity arrow {e} of object {x} is not a loop at {x}"))
    extra = []
    for (f, h), v in g.compose.items():
        if g.cod[h] != g.dom[f]:
            extra.append((f, h))
            bad.append(Violation(
                "compose-domain", (f, h),
                f"composition defined on non-composable pair ({f}, {h})"))
        else:
            if g.dom[v] != g.dom[h] or g.cod[v] != g.cod[f]:
                bad.append(Violation(
                    "compose-endpoints", (f, h, v),
                    f"composite of ({f}, {h}) has wrong endpoints"))
    # Partiality: the composable pairs are into(x) × out(x) over all x.
    # With every key composable, equal counts mean every pair is present;
    # otherwise name the missing and the extra pairs in (f, h) order.
    composable = sum(len(g._into[x]) * len(g._out[x]) for x in range(n))
    if extra or len(g.compose) != composable:
        missing = [(f, h) for f in range(m) for h in g._into[g.dom[f]]
                   if (f, h) not in g.compose]
        for f, h in sorted(missing + extra):
            bad.append(Violation(
                "compose-partiality", (f, h),
                f"composition of ({f}, {h}) defined iff composable "
                "violated"))
    if bad:
        return ValidationReport(tuple(bad))

    for a in range(m):
        e_hit = g.compose[(a, g.identity[g.dom[a]])]
        if e_hit != a:
            bad.append(Violation(
                "identity-right", (a,),
                f"a∘id != a for arrow {a}"))
        if g.compose[(g.identity[g.cod[a]], a)] != a:
            bad.append(Violation(
                "identity-left", (a,),
                f"id∘a != a for arrow {a}"))
        i = g.inverse[a]
        if g.dom[i] != g.cod[a] or g.cod[i] != g.dom[a]:
            bad.append(Violation(
                "inverse-endpoints", (a, i),
                f"inverse of arrow {a} has wrong endpoints"))
        else:
            if g.compose[(a, i)] != g.identity[g.cod[a]]:
                bad.append(Violation(
                    "inverse-right", (a, i),
                    f"a∘a⁻¹ != id for arrow {a}"))
            if g.compose[(i, a)] != g.identity[g.dom[a]]:
                bad.append(Violation(
                    "inverse-left", (a, i),
                    f"a⁻¹∘a != id for arrow {a}"))
    # Associativity: by Light's test on a generating set when every other
    # law holds, else over all composable triples (f, h, k), with k running
    # over the star of dom(h): f∘(h∘k) = (f∘h)∘k.
    if not bad and _associative_on(g, generators(g)):
        return ValidationReport(())
    compose, into, dom = g.compose, g._into, g.dom
    for (f, h), fh in compose.items():
        for k in into[dom[h]]:
            if compose[(fh, k)] != compose[(f, compose[(h, k)])]:
                bad.append(Violation(
                    "associativity", (f, h, k),
                    f"associativity fails on triple ({f}, {h}, {k})"))
    return ValidationReport(tuple(bad))


def _associative_on(g: FiniteGroupoid, gens) -> bool:
    """Light's test: (f∘h)∘k = f∘(h∘k) for every h in the generating set
    ``gens`` that is not an identity and every f, k composable with it;
    False when ``gens`` is None.  For a table that is defined exactly on
    the composable pairs, the arrows h passing this test are closed under
    composition (Clifford–Preston, *The Algebraic Theory of Semigroups*,
    vol. 1), and identities pass by the identity laws, so passing it on a
    generating set is associativity.  The test compares whole rows: the
    row of f holds f∘k for k into dom f, read once, in |compose| lookups;
    for each h and each f out of cod h, the row of f∘h must be the row of
    f read at the places of the h∘k."""
    if gens is None:
        return False
    compose, into, out, dom, cod = g.compose, g._into, g._out, g.dom, g.cod
    rows = [[compose[f, k] for k in into[dom[f]]] for f in g.arrows]
    place = [0] * g.n_arrows  # the place of a in into(cod a)
    for arrs in into:
        for i, a in enumerate(arrs):
            place[a] = i
    for h in gens:
        if g.identity[dom[h]] == h:
            continue
        at = [place[hk] for hk in rows[h]]
        for f in out[cod[h]]:
            row = rows[f]
            if rows[compose[f, h]] != [row[i] for i in at]:
                return False
    return True


def generators(g: FiniteGroupoid):
    """A generating set of g, as ascending arrow ids, or None.

    The set holds every identity, a spanning tree of each connected
    component grown from its least object together with the inverses of
    the tree arrows, and at each tree root a greedy generating set of the
    loops there, with their inverses; every arrow is then a composite of
    these (Brown, *Topology and Groupoids*, ch. 10).  The loop generators
    are chosen by closing under the composition table itself, so a broken
    table cannot raise.  Generation is checked, not assumed: the
    identities are closed under composition on the left with the set, in
    about Σ_w |out(cod w) ∩ set| lookups, and the result is None when the
    closure misses an arrow, when a lookup it needs is missing, when an id
    is out of range, or when the table has more or fewer entries than
    there are composable pairs.  Computed on the first call and kept on the
    groupoid.

    Each certificate reads the part of A that implies its law.  Light's
    test in :func:`validate` skips identities: the identity laws, checked
    first, give (f∘id)∘k = f∘(id∘k).  ``functoriality_violations`` reads
    R, the non-identity a ≤ a⁻¹ in A.  The w with F(w∘x) = F(w)∘F(x) for
    all x are closed under composition, hold the identities, which F
    preserves by then, and hold a⁻¹ with a: x = a⁻¹ gives F(a⁻¹) = F(a)⁻¹,
    and y = a∘(a⁻¹∘y) then F(a⁻¹∘y) = F(a⁻¹)∘F(y).  ``CovGroup`` compares
    functors on R and the identities, as functors preserve inverses."""
    if g._generators is _NOT_YET:
        g._generators = _generating_set(g)
    return g._generators


def _generating_set(g: FiniteGroupoid):
    n, m = g.n_objects, g.n_arrows
    dom, cod, identity, inverse = g.dom, g.cod, g.identity, g.inverse
    compose = g.compose
    if m and not (0 <= min(dom) and max(dom) < n
                  and 0 <= min(cod) and max(cod) < n
                  and 0 <= min(inverse) and max(inverse) < m):
        return None
    if n and not (0 <= min(identity) and max(identity) < m):
        return None
    if len(compose) != sum(len(i) * len(o) for i, o in zip(g._into, g._out)):
        return None  # some composable pair has no entry
    gens = set(identity)
    in_tree = [False] * n
    for root in range(n):
        if in_tree[root]:
            continue
        in_tree[root] = True
        queue = [root]
        for x in queue:  # the spanning tree, breadth first from the root
            for a in g._out[x]:
                y = cod[a]
                if not in_tree[y]:
                    in_tree[y] = True
                    queue.append(y)
                    gens.update((a, inverse[a]))
        loop_gens = []
        sub = {identity[root]}  # the loops that loop_gens generate
        for loop in [a for a in g._into[root] if dom[a] == root]:
            if loop not in sub:
                loop_gens += (loop, inverse[loop])
                if not _left_closure(compose, sub, lambda w: loop_gens):
                    return None
        gens.update(loop_gens)
    gens = tuple(sorted(gens))
    gens_out = [[] for _ in range(n)]
    for a in gens:
        gens_out[dom[a]].append(a)
    reached = set(identity)
    if not _left_closure(compose, reached, lambda w: gens_out[cod[w]]):
        return None
    return gens if reached == set(range(m)) else None


def _left_closure(compose, reached: set, gens_at) -> bool:
    """Add to ``reached`` each composite a∘w with w in it and a in
    ``gens_at(w)`` until nothing new appears; False when an entry or an
    id is missing."""
    queue = list(reached)
    try:
        for w in queue:
            for a in gens_at(w):
                v = compose[(a, w)]
                if v not in reached:
                    reached.add(v)
                    queue.append(v)
    except (KeyError, IndexError):
        return False
    return True


def star(g: FiniteGroupoid, x: int) -> Star:
    """The arrows with codomain x, in ascending id order; O(|star x|)
    from the star index."""
    if not 0 <= x < g.n_objects:
        raise ValueError(f"unknown object id {x}")
    return Star(at=x, arrows=g._into[x])


def components(g: FiniteGroupoid) -> Partition:
    """Connected components: x and y share a block iff hom(x, y) is
    nonempty (in a groupoid this relation is already symmetric and
    transitive).  Computed on the first call and kept on the groupoid,
    whose dom/cod tables never change."""
    if g._components is None:
        g._components = partition(g.n_objects, zip(g.dom, g.cod))
    return g._components


def is_connected(g: FiniteGroupoid) -> bool:
    return len(components(g)) == 1


class VertexGroup(FiniteGroup):
    """The group of loops at one object, with its embedding back into the
    groupoid (element i is the arrow ``self.arrows[i]``)."""

    def __init__(self, groupoid: FiniteGroupoid, at: int):
        if not 0 <= at < groupoid.n_objects:
            raise ValueError(f"unknown object id {at}")
        loops = groupoid.loops(at)
        pos = {a: i for i, a in enumerate(loops)}
        table = tuple(
            tuple(pos[groupoid.compose_arrows(a, b)] for b in loops)
            for a in loops)
        super().__init__(
            table, names=tuple(groupoid.arr_labels[a] for a in loops))
        self.groupoid = groupoid
        self.at = at
        self.arrows = loops
        self.index_by_arrow = pos


def vertex_group(g: FiniteGroupoid, x: int) -> VertexGroup:
    """The fundamental group of g at x (arrows x -> x under composition)."""
    return VertexGroup(g, x)


def disjoint_union(g: FiniteGroupoid, h: FiniteGroupoid) -> FiniteGroupoid:
    """Coproduct groupoid.  The first summand keeps its ids; the second is
    shifted by ``g.n_objects`` / ``g.n_arrows``."""
    no, na = g.n_objects, g.n_arrows
    dom = g.dom + tuple(x + no for x in h.dom)
    cod = g.cod + tuple(x + no for x in h.cod)
    identity = g.identity + tuple(a + na for a in h.identity)
    inverse = g.inverse + tuple(a + na for a in h.inverse)
    compose = dict(g.compose)
    for (f, k), v in h.compose.items():
        compose[(f + na, k + na)] = v + na
    return FiniteGroupoid(
        no + h.n_objects, dom, cod, identity, compose, inverse,
        obj_labels=g.obj_labels + h.obj_labels,
        arr_labels=g.arr_labels + h.arr_labels)


def opposite(g: FiniteGroupoid) -> FiniteGroupoid:
    """Same arrows with dom/cod swapped and composition reversed."""
    compose = {(h, f): v for (f, h), v in g.compose.items()}
    return FiniteGroupoid(
        g.n_objects, g.cod, g.dom, g.identity, compose, g.inverse,
        obj_labels=g.obj_labels, arr_labels=g.arr_labels)


def subgroupoid(g: FiniteGroupoid, objs, arrs):
    """The subgroupoid on the given objects and arrows, re-indexed densely.

    Returns (groupoid, obj_ids, arr_ids) where the id tuples embed the
    result back into g.  The arrow set must be closed under composition,
    inverse and identities of the chosen objects.
    """
    objs = tuple(sorted(set(objs)))
    arrs = tuple(sorted(set(arrs)))
    opos = {x: i for i, x in enumerate(objs)}
    apos = {a: i for i, a in enumerate(arrs)}
    for a in arrs:
        if g.dom[a] not in opos or g.cod[a] not in opos:
            raise ValueError(f"arrow {a} leaves the chosen object set")
    for x in objs:
        if g.identity[x] not in apos:
            raise ValueError(f"identity of object {x} missing from arrows")
    compose = {}
    for f in arrs:
        for h in g._into[g.dom[f]]:
            if h in apos:
                v = g.compose[(f, h)]
                if v not in apos:
                    raise ValueError(
                        f"arrow set not closed under composition at "
                        f"({f}, {h})")
                compose[(apos[f], apos[h])] = apos[v]
    for a in arrs:
        if g.inverse[a] not in apos:
            raise ValueError(f"arrow set not closed under inverse at {a}")
    sub = FiniteGroupoid(
        len(objs),
        tuple(opos[g.dom[a]] for a in arrs),
        tuple(opos[g.cod[a]] for a in arrs),
        tuple(apos[g.identity[x]] for x in objs),
        compose,
        tuple(apos[g.inverse[a]] for a in arrs),
        obj_labels=tuple(g.obj_labels[x] for x in objs),
        arr_labels=tuple(g.arr_labels[a] for a in arrs))
    return sub, objs, arrs


def component_subgroupoid(g: FiniteGroupoid, block):
    """The full subgroupoid on one set of objects plus all arrows between
    them (used for connected components)."""
    block = set(block)
    arrs = [a for y in block for a in g._into[y] if g.dom[a] in block]
    return subgroupoid(g, block, arrs)


# -- builders ---------------------------------------------------------------

def trivial_groupoid(label: str = "*") -> FiniteGroupoid:
    return FiniteGroupoid(
        1, (0,), (0,), (0,), {(0, 0): 0}, (0,),
        obj_labels=(label,), arr_labels=(f"id_{label}",))


def codiscrete_groupoid(n: int, labels=None) -> FiniteGroupoid:
    """Exactly one arrow between each ordered pair of objects."""
    if n < 0:
        raise ValueError("object count must be nonnegative")
    if labels is None:
        labels = tuple(str(i) for i in range(n))

    def aid(i, j):  # the unique arrow i -> j
        return i * n + j

    dom, cod, arr_labels = [], [], []
    for i in range(n):
        for j in range(n):
            dom.append(i)
            cod.append(j)
            arr_labels.append(f"{labels[i]}>{labels[j]}")
    identity = tuple(aid(i, i) for i in range(n))
    inverse = tuple(aid(cod[a], dom[a]) for a in range(n * n))
    compose = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                compose[(aid(j, k), aid(i, j))] = aid(i, k)
    return FiniteGroupoid(n, dom, cod, identity, compose, inverse,
                          obj_labels=labels, arr_labels=arr_labels)


def group_groupoid(group: FiniteGroup, label: str = "*") -> FiniteGroupoid:
    """The one-object groupoid whose arrows are the group elements (arrow
    id = element id, so vertex_group recovers the group on the nose)."""
    n = group.order
    compose = {(a, b): group.mult(a, b) for a in range(n) for b in range(n)}
    return FiniteGroupoid(
        1, (0,) * n, (0,) * n, (group.identity,), compose,
        group.inverse_table,
        obj_labels=(label,), arr_labels=group.names)


def relabeled(g: FiniteGroupoid, obj_labels=None, arr_labels=None):
    return FiniteGroupoid(
        g.n_objects, g.dom, g.cod, g.identity, g.compose, g.inverse,
        obj_labels=obj_labels if obj_labels is not None else g.obj_labels,
        arr_labels=arr_labels if arr_labels is not None else g.arr_labels)
