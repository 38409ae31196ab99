"""Finite groups presented by full multiplication tables.

Vertex groups of groupoids, covering-transformation groups and the subgroup
side of the classification lattice are all instances of :class:`FiniteGroup`.
The product convention matches groupoid composition throughout:
``mult(a, b)`` is the composite "b first, then a", so groups of loops embed
with no order twist.

Everything here is exhaustive table work and is meant for desk scale; the
subgroup enumerator refuses groups larger than a configurable bound.
"""

from __future__ import annotations

import itertools

#: Hard ceiling for subgroup enumeration (the lattice machinery inherits it).
MAX_SUBGROUP_ENUM_ORDER = 64


def _left_closure(table, reached: set, gens) -> set:
    """Extend ``reached`` in place to its closure under left products
    g·w by every g in ``gens``, and return it.  From {e} in a finite group
    that is the subgroup ⟨gens⟩: the powers of g hold g⁻¹."""
    rows = [table[g] for g in gens]
    queue = list(reached)
    for w in queue:  # grows while it is walked
        for row in rows:
            v = row[w]
            if v not in reached:
                reached.add(v)
                queue.append(v)
    return reached


def _greedy_generators(table, identity) -> list:
    """Each element not yet in the running closure of {identity}, in
    ascending order, becomes a generator and extends that closure."""
    reached, gens = {identity}, []
    for a in range(len(table)):
        if a not in reached:
            gens.append(a)
            _left_closure(table, reached, gens)
    return gens


def _associative(table, identity) -> bool:
    """Light's test, (x·a)·y = x·(a·y) for all x, y, a row at a time, on
    each a of :func:`_greedy_generators`.  The a that pass are closed
    under products and hold the identity (Clifford–Preston, *The
    Algebraic Theory of Semigroups*, vol. 1), so passing is
    associativity."""
    for a in _greedy_generators(table, identity):
        row_a = table[a]
        for row_x in table:
            if table[row_x[a]] != tuple(map(row_x.__getitem__, row_a)):
                return False
    return True


class FiniteGroup:
    """A group on elements ``0 .. n-1`` given by its multiplication table.

    ``table[a][b]`` is the product a*b.  Identity and inverses are derived,
    and all group axioms are checked at construction time.
    """

    def __init__(self, table, names=None):
        table = tuple(tuple(map(int, row)) for row in table)
        n = len(table)
        if any(len(row) != n for row in table):
            raise ValueError("multiplication table must be square")
        rng = range(n)
        for a in rng:
            for b in rng:
                if not 0 <= table[a][b] < n:
                    raise ValueError(f"table entry at ({a}, {b}) out of range")
        identity = None
        for e in rng:
            if all(table[e][a] == a == table[a][e] for a in rng):
                identity = e
                break
        if identity is None:
            raise ValueError("no identity element")
        inverse = []
        for a in rng:
            inv_a = None
            for b in rng:
                if table[a][b] == identity == table[b][a]:
                    inv_a = b
                    break
            if inv_a is None:
                raise ValueError(f"element {a} has no inverse")
            inverse.append(inv_a)
        if not _associative(table, identity):  # name the first triple
            a, b, c = next((a, b, c) for a in rng for b in rng for c in rng
                           if table[table[a][b]][c] != table[a][table[b][c]])
            raise ValueError(f"associativity fails on triple ({a}, {b}, {c})")
        if names is None:
            names = tuple(str(i) for i in rng)
        else:
            names = tuple(str(x) for x in names)
        if len(names) != n or len(set(names)) != n:
            raise ValueError("element names must be unique and match order")
        self.table = table
        self.order = n
        self.identity = identity
        self.inverse_table = tuple(inverse)
        self.names = names
        self._index_by_name = {nm: i for i, nm in enumerate(names)}

    # -- basic structure ---------------------------------------------------

    def mult(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self.inverse_table[a]

    def name_of(self, a: int) -> str:
        return self.names[a]

    def index_of_name(self, name: str) -> int:
        try:
            return self._index_by_name[name]
        except KeyError:
            raise ValueError(f"unknown group element name {name!r}") from None

    def element_order(self, a: int) -> int:
        x, n = a, 1
        while x != self.identity:
            x = self.mult(x, a)
            n += 1
        return n

    def is_abelian(self) -> bool:
        return all(self.mult(a, b) == self.mult(b, a)
                   for a in range(self.order) for b in range(self.order))

    def __len__(self):
        return self.order

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"

    # -- subgroups ---------------------------------------------------------

    def subgroup(self, elements) -> "Subgroup":
        return Subgroup(self, elements)

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, (self.identity,))

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, range(self.order))

    def closure(self, seed) -> frozenset:
        """The subgroup generated by ``seed``: {e} closed under left
        products by the seed (:func:`_left_closure`)."""
        return frozenset(_left_closure(self.table, {self.identity}, seed))

    def generated_subgroup(self, seed) -> "Subgroup":
        """Least subgroup containing ``seed`` (may be empty)."""
        return Subgroup(self, self.closure(seed))

    def subgroups(self, max_order: int = MAX_SUBGROUP_ENUM_ORDER):
        """All subgroups, canonically sorted by (order, elements).

        Breadth-first closure seeded from the trivial subgroup: every
        subgroup arises by repeatedly adjoining one element and closing,
        so the search is complete.
        """
        if self.order > max_order:
            raise ValueError(
                f"group order {self.order} exceeds the subgroup enumeration "
                f"bound {max_order}")
        trivial = frozenset({self.identity})
        found = {trivial}
        frontier = [trivial]
        while frontier:
            nxt = []
            for h in frontier:
                for g in range(self.order):
                    if g in h:
                        continue
                    k = self.closure(h | {g})
                    if k not in found:
                        found.add(k)
                        nxt.append(k)
            frontier = nxt
        subs = [Subgroup(self, h) for h in found]
        subs.sort(key=lambda s: (s.order, s.elements))
        return subs

    # -- constructors --------------------------------------------------

    @classmethod
    def trivial(cls) -> "FiniteGroup":
        return cls(((0,),), names=("e",))

    @classmethod
    def cyclic(cls, n: int) -> "FiniteGroup":
        if n < 1:
            raise ValueError("cyclic group order must be positive")
        table = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
        return cls(table, names=tuple(str(i) for i in range(n)))

    @classmethod
    def symmetric(cls, n: int) -> "FiniteGroup":
        """Symmetric group on n letters; elements are permutations of
        0..n-1 in lexicographic order, product = composition (right factor
        applied first)."""
        perms = sorted(itertools.permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        table = tuple(
            tuple(index[tuple(p[q[i]] for i in range(n))] for q in perms)
            for p in perms)
        return cls(table, names=tuple(_cycle_name(p) for p in perms))


def _cycle_name(perm) -> str:
    """Cycle notation on 1-based letters, 'e' for the identity."""
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        k = perm[start]
        while k != start:
            cyc.append(k)
            seen[k] = True
            k = perm[k]
        parts.append("(" + "".join(str(i + 1) for i in cyc) + ")")
    return "".join(parts) if parts else "e"


class Subgroup:
    """A subgroup of a :class:`FiniteGroup`, stored as a sorted element tuple."""

    def __init__(self, parent: FiniteGroup, elements):
        elements = tuple(sorted(set(int(x) for x in elements)))
        for a in elements:
            if not 0 <= a < parent.order:
                raise ValueError(f"element {a} outside the parent group")
        eset = frozenset(elements)
        if parent.identity not in eset:
            raise ValueError("subgroup must contain the identity")
        for a in elements:
            if parent.inverse(a) not in eset:
                raise ValueError(f"subgroup not closed under inverse at {a}")
            for b in elements:
                if parent.mult(a, b) not in eset:
                    raise ValueError(
                        f"subgroup not closed under product at ({a}, {b})")
        self.parent = parent
        self.elements = elements
        self._set = eset

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def index(self) -> int:
        return self.parent.order // self.order

    def __contains__(self, a: int) -> bool:
        return a in self._set

    def __eq__(self, other):
        return (isinstance(other, Subgroup)
                and self.parent == other.parent
                and self.elements == other.elements)

    def __hash__(self):
        return hash((self.parent.table, self.elements))

    def __repr__(self):
        names = ", ".join(self.parent.name_of(a) for a in self.elements)
        return f"Subgroup({{{names}}})"

    def is_normal(self) -> bool:
        g = self.parent
        return all(
            g.mult(g.mult(x, h), g.inverse(x)) in self._set
            for x in range(g.order) for h in self.elements)

    def normalizer(self) -> "Subgroup":
        """Largest subgroup of the parent in which this subgroup is normal."""
        g = self.parent
        members = [
            x for x in range(g.order)
            if {g.mult(g.mult(x, h), g.inverse(x)) for h in self.elements}
            == self._set]
        return Subgroup(g, members)

    def right_cosets(self):
        """Partition of the parent into right cosets Hg, blocks ordered by
        least member."""
        g = self.parent
        used = [False] * g.order
        blocks = []
        for x in range(g.order):
            if used[x]:
                continue
            coset = tuple(sorted(g.mult(h, x) for h in self.elements))
            for y in coset:
                used[y] = True
            blocks.append(coset)
        return tuple(blocks)

    def quotient(self) -> FiniteGroup:
        """The quotient group on right cosets; requires normality."""
        if not self.is_normal():
            raise ValueError("quotient requires a normal subgroup")
        g = self.parent
        cosets = self.right_cosets()
        block_of = {}
        for i, coset in enumerate(cosets):
            for x in coset:
                block_of[x] = i
        table = tuple(
            tuple(block_of[g.mult(a[0], b[0])] for b in cosets)
            for a in cosets)
        names = tuple("[" + g.name_of(c[0]) + "]" for c in cosets)
        return FiniteGroup(table, names=names)

    def as_group(self) -> FiniteGroup:
        """This subgroup re-indexed as a standalone group (element i of the
        result is ``self.elements[i]``)."""
        pos = {x: i for i, x in enumerate(self.elements)}
        table = tuple(
            tuple(pos[self.parent.mult(a, b)] for b in self.elements)
            for a in self.elements)
        names = tuple(self.parent.name_of(a) for a in self.elements)
        return FiniteGroup(table, names=names)

    def intersection(self, other: "Subgroup") -> "Subgroup":
        if self.parent != other.parent:
            raise ValueError("subgroups of different groups")
        return Subgroup(self.parent, self._set & other._set)

    def join(self, other: "Subgroup") -> "Subgroup":
        """Subgroup generated by the union."""
        if self.parent != other.parent:
            raise ValueError("subgroups of different groups")
        return self.parent.generated_subgroup(self._set | other._set)


def generating_set(group: FiniteGroup) -> tuple:
    """A small generating set found greedily (empty for the trivial group)."""
    return tuple(_greedy_generators(group.table, group.identity))


def all_homomorphisms(source: FiniteGroup, target: FiniteGroup):
    """Yield every homomorphism source -> target as a full image tuple.

    Candidates are generator-image assignments, extended along stored words
    and then verified on the whole table, so nothing is missed and nothing
    bogus survives.
    """
    gens = generating_set(source)
    # Express every element as a word in the generators (BFS from identity).
    words = {source.identity: ()}
    frontier = [source.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for i, g in enumerate(gens):
                y = source.mult(x, g)
                if y not in words:
                    words[y] = words[x] + (i,)
                    nxt.append(y)
        frontier = nxt
    order_all = list(range(source.order))
    gen_orders = [source.element_order(g) for g in gens]
    candidate_images = [
        [b for b in range(target.order)
         if gen_orders[i] % target.element_order(b) == 0]
        for i in range(len(gens))]
    for images in itertools.product(*candidate_images):
        fmap = [None] * source.order
        for x in order_all:
            y = target.identity
            for i in words[x]:
                y = target.mult(y, images[i])
            fmap[x] = y
        ok = all(
            fmap[source.mult(a, b)] == target.mult(fmap[a], fmap[b])
            for a in order_all for b in order_all)
        if ok:
            yield tuple(fmap)


def find_isomorphism(source: FiniteGroup, target: FiniteGroup):
    """An isomorphism as an image tuple, or None."""
    if source.order != target.order:
        return None
    for fmap in all_homomorphisms(source, target):
        if len(set(fmap)) == source.order:
            return fmap
    return None


def is_isomorphic(source: FiniteGroup, target: FiniteGroup) -> bool:
    return find_isomorphism(source, target) is not None
