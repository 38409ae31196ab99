"""The star index and the indexed validate() against brute force.

``star``, ``hom`` and ``loops`` are compared with scans over every arrow,
and :func:`validate` with :func:`reference_validate`, the implementation
that scans all pairs and triples of arrows, on generated groupoids and on
corrupted copies of them.  The generating set that certifies
associativity is checked against a closure over all pairs of its arrows.
"""

import random

import pytest

from gpdcov import (FiniteGroup, FiniteGroupoid, codiscrete_groupoid,
                    component_subgroupoid, components, disjoint_union,
                    generators, group_groupoid, opposite, partition, star,
                    subgroupoid, trivial_groupoid, universal_cover,
                    validate)
from gpdcov.groupoid import ValidationReport, Violation, _associative_on


def reference_validate(g: FiniteGroupoid) -> ValidationReport:
    """The validate() that scans all pairs and all triples of arrows, kept
    verbatim as an oracle.  Report every violated category/groupoid law
    with the offending ids.

    Structural breakage (ids out of range, composition keyed on
    non-composable pairs) is reported first; law checks run only on the
    structurally sound part so they cannot crash.
    """
    bad = []
    n, m = g.n_objects, g.n_arrows
    for a in range(m):
        if not 0 <= g.dom[a] < n:
            bad.append(Violation("dom-range", (a,),
                                 f"arrow {a} has out-of-range dom"))
        if not 0 <= g.cod[a] < n:
            bad.append(Violation("cod-range", (a,),
                                 f"arrow {a} has out-of-range cod"))
        if not 0 <= g.inverse[a] < m:
            bad.append(Violation("inverse-range", (a,),
                                 f"arrow {a} has out-of-range inverse"))
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
    for (f, h), v in g.compose.items():
        if g.cod[h] != g.dom[f]:
            bad.append(Violation(
                "compose-domain", (f, h),
                f"composition defined on non-composable pair ({f}, {h})"))
        else:
            if g.dom[v] != g.dom[h] or g.cod[v] != g.cod[f]:
                bad.append(Violation(
                    "compose-endpoints", (f, h, v),
                    f"composite of ({f}, {h}) has wrong endpoints"))
    for f in range(m):
        for h in range(m):
            if (g.cod[h] == g.dom[f]) != ((f, h) in g.compose):
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
    # Associativity over all composable triples (f, h, k): f∘(h∘k) = (f∘h)∘k.
    for (f, h) in g.compose:
        fh = g.compose[(f, h)]
        for k in range(m):
            if g.cod[k] != g.dom[h]:
                continue
            if g.compose[(fh, k)] != g.compose[(f, g.compose[(h, k)])]:
                bad.append(Violation(
                    "associativity", (f, h, k),
                    f"associativity fails on triple ({f}, {h}, {k})"))
    return ValidationReport(tuple(bad))


# -- generated groupoids -----------------------------------------------------

def codiscrete_times_group(k: int, group: FiniteGroup) -> FiniteGroupoid:
    """codiscrete(k) × group: one arrow i -> j per group element."""
    n = group.order

    def aid(i, j, s):
        return (i * k + j) * n + s

    dom, cod, inverse = [], [], []
    for i in range(k):
        for j in range(k):
            for s in range(n):
                dom.append(i)
                cod.append(j)
                inverse.append(aid(j, i, group.inverse(s)))
    identity = [aid(i, i, group.identity) for i in range(k)]
    compose = {}
    for i in range(k):
        for j in range(k):
            for m in range(k):
                for s in range(n):
                    for t in range(n):
                        compose[(aid(j, m, t), aid(i, j, s))] = \
                            aid(i, m, group.mult(t, s))
    return FiniteGroupoid(k, dom, cod, identity, compose, inverse)


def shuffled(g: FiniteGroupoid, seed: int) -> FiniteGroupoid:
    """g with its object ids and arrow ids permuted at random."""
    rng = random.Random(seed)
    op = list(range(g.n_objects))
    ap = list(range(g.n_arrows))
    rng.shuffle(op)
    rng.shuffle(ap)
    dom, cod, inverse = [0] * g.n_arrows, [0] * g.n_arrows, [0] * g.n_arrows
    for a in g.arrows:
        dom[ap[a]] = op[g.dom[a]]
        cod[ap[a]] = op[g.cod[a]]
        inverse[ap[a]] = ap[g.inverse[a]]
    identity = [0] * g.n_objects
    for x in g.objects:
        identity[op[x]] = ap[g.identity[x]]
    compose = {(ap[f], ap[h]): ap[v] for (f, h), v in g.compose.items()}
    return FiniteGroupoid(g.n_objects, dom, cod, identity, compose, inverse)


def _corpus():
    c3, s3 = FiniteGroup.cyclic(3), FiniteGroup.symmetric(3)
    two_s3 = shuffled(codiscrete_times_group(2, s3), 1)
    three_c2 = shuffled(codiscrete_times_group(3, FiniteGroup.cyclic(2)), 2)
    union = shuffled(disjoint_union(group_groupoid(c3),
                                    codiscrete_groupoid(3)), 3)
    loops_sub, _, _ = subgroupoid(two_s3, [0], two_s3.loops(0))
    return {
        "trivial": trivial_groupoid(),
        "codiscrete-4": codiscrete_groupoid(4),
        "s3": group_groupoid(s3),
        "codiscrete-2-x-c3": codiscrete_times_group(2, c3),
        "codiscrete-2-x-s3-shuffled": two_s3,
        "codiscrete-3-x-c2-shuffled": three_c2,
        "union-shuffled": union,
        "union-of-products": disjoint_union(three_c2, two_s3),
        "opposite": opposite(two_s3),
        "opposite-union": opposite(union),
        "component-subgroupoid": component_subgroupoid(
            union, max(components(union).blocks, key=len))[0],
        "pair-subgroupoid": component_subgroupoid(three_c2, [0, 2])[0],
        "loop-subgroupoid": loops_sub,
        "universal-s3": universal_cover(group_groupoid(s3)).total,
    }


CORPUS = _corpus()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_index_matches_scans(name):
    g = CORPUS[name]
    for x in g.objects:
        into = tuple(a for a in range(g.n_arrows) if g.cod[a] == x)
        out = tuple(a for a in range(g.n_arrows) if g.dom[a] == x)
        assert star(g, x).arrows == into == g._into[x]
        assert g._out[x] == out
        assert g.loops(x) == tuple(a for a in into if g.dom[a] == x)
        for y in g.objects:
            assert g.hom(x, y) == tuple(
                a for a in range(g.n_arrows)
                if g.dom[a] == x and g.cod[a] == y)
    assert g.hom(0, g.n_objects) == g.hom(0, -1) == ()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_components_match_hom_scan_and_are_kept(name):
    g = CORPUS[name]
    blocks = sorted({tuple(y for y in g.objects if g.hom(x, y))
                     for x in g.objects})
    assert components(g).blocks == tuple(blocks)
    assert components(g) is components(g)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_validate_matches_reference_on_groupoids(name):
    g = CORPUS[name]
    report = validate(g)
    assert report.ok
    assert report == reference_validate(g)


def closure_blocks(n, pairs):
    """The blocks of the equivalence relation that the pairs generate, by
    brute-force transitive closure."""
    reach = [{x} for x in range(n)]
    for x, y in pairs:
        reach[x].add(y)
        reach[y].add(x)
    changed = True
    while changed:
        changed = False
        for x in range(n):
            grown = set().union(*(reach[y] for y in reach[x]))
            if grown != reach[x]:
                reach[x], changed = grown, True
    return tuple(sorted({tuple(sorted(r)) for r in reach}))


@pytest.mark.parametrize("seed", range(30))
def test_partition_matches_transitive_closure(seed):
    rng = random.Random(seed)
    n = rng.randrange(40)
    pairs = [(rng.randrange(n), rng.randrange(n))
             for _ in range(rng.randrange(2 * n + 1))] if n else []
    part = partition(n, iter(pairs))
    assert part.blocks == closure_blocks(n, pairs)
    assert part.index == tuple(part.block_index(x) for x in range(n))
    for i, blk in enumerate(part.blocks):
        assert all(part.index[x] == i for x in blk)
    for outside in (-1, n):
        with pytest.raises(ValueError, match="not in any block"):
            part.block_index(outside)


def test_equal_groupoids_compare_equal():
    g = CORPUS["codiscrete-2-x-s3-shuffled"]
    copy = FiniteGroupoid(g.n_objects, g.dom, g.cod, g.identity,
                          dict(g.compose), g.inverse)
    assert g == g and g == copy and copy == g
    assert g != opposite(g) and g != "groupoid"


# -- corrupted groupoids -----------------------------------------------------

def _rebuild(g, **changes):
    tables = {"n_objects": g.n_objects, "dom": list(g.dom),
              "cod": list(g.cod), "identity": list(g.identity),
              "compose": dict(g.compose), "inverse": list(g.inverse)}
    for key, edit in changes.items():
        edit(tables[key])
    return FiniteGroupoid(**tables)


def _set(*pairs):
    """An edit that sets table[i] = v for each (i, v) pair."""
    def edit(table):
        for i, v in pairs:
            table[i] = v
    return edit


def _non_identity_pairs(g):
    ids = set(g.identity)
    return sorted((f, h) for f, h in g.compose
                  if f not in ids and h not in ids)


def _missing_entry(g, rng):
    key = rng.choice(sorted(g.compose))
    return _rebuild(g, compose=lambda c: c.pop(key))


def _extra_entry(g, rng):
    key = rng.choice([(f, h) for f in g.arrows for h in g.arrows
                      if g.cod[h] != g.dom[f]])
    return _rebuild(g, compose=_set((key, rng.choice(g.arrows))))


def _missing_and_extra(g, rng):
    return _extra_entry(_missing_entry(g, rng), rng)


def _broken_triple(g, rng):
    f, h = rng.choice(_non_identity_pairs(g))
    v = g.compose[(f, h)]
    other = [a for a in g.hom(g.dom[v], g.cod[v]) if a != v]
    return _rebuild(g, compose=_set(((f, h), rng.choice(other))))


def _wrong_identity_loop(g, rng):
    x = rng.choice([x for x in g.objects if len(g.loops(x)) > 1])
    loop = rng.choice([a for a in g.loops(x) if a != g.identity[x]])
    return _rebuild(g, identity=_set((x, loop)))


def _wrong_identity_arrow(g, rng):
    x = rng.choice(list(g.objects))
    arrow = rng.choice([a for a in g.arrows if g.dom[a] != x])
    return _rebuild(g, identity=_set((x, arrow)))


def _wrong_inverse(g, rng):
    a = rng.choice([a for a in g.arrows if g.inverse[a] != a])
    return _rebuild(g, inverse=_set((a, a)))


def _dom_out_of_range(g, rng):
    a = rng.choice(list(g.arrows))
    bad = rng.choice([g.n_objects, g.n_objects + 3, -1])
    return _rebuild(g, dom=_set((a, bad)))


def _cod_out_of_range(g, rng):
    a = rng.choice(list(g.arrows))
    return _rebuild(g, cod=_set((a, -2)))


def _compose_out_of_range(g, rng):
    key = rng.choice(sorted(g.compose))
    return _rebuild(g, compose=_set((key, g.n_arrows)))


CORRUPTIONS = {
    "missing-entry": _missing_entry,
    "extra-entry": _extra_entry,
    "missing-and-extra": _missing_and_extra,
    "broken-triple": _broken_triple,
    "wrong-identity-loop": _wrong_identity_loop,
    "wrong-identity-arrow": _wrong_identity_arrow,
    "wrong-inverse": _wrong_inverse,
    "dom-out-of-range": _dom_out_of_range,
    "cod-out-of-range": _cod_out_of_range,
    "compose-out-of-range": _compose_out_of_range,
}
BASES = ("codiscrete-2-x-s3-shuffled", "codiscrete-3-x-c2-shuffled",
         "union-of-products")


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_validate_matches_reference_on_corruptions(corruption, base, seed):
    rng = random.Random(f"{corruption}/{base}/{seed}")
    broken = CORRUPTIONS[corruption](CORPUS[base], rng)
    report = validate(broken)
    assert not report.ok
    assert report.violations == reference_validate(broken).violations


def _every_single_entry_corruption(g):
    """g with one composition entry changed to each other arrow with the
    same endpoints, for every entry."""
    for key, v in sorted(g.compose.items()):
        for other in g.hom(g.dom[v], g.cod[v]):
            if other != v:
                yield _rebuild(g, compose=_set((key, other)))


@pytest.mark.parametrize("name", ["s3", "codiscrete-2-x-c3",
                                  "codiscrete-3-x-c2-shuffled"])
def test_validate_matches_reference_on_every_changed_entry(name):
    """Light's test must catch a changed composite wherever it sits, not
    only on the pairs that involve a generator."""
    for broken in _every_single_entry_corruption(CORPUS[name]):
        report = validate(broken)
        assert not report.ok
        assert report.violations == reference_validate(broken).violations


def _entry_kind(g, gens, f, h):
    """How the pair (f, h) meets the generating set: through an identity,
    which Light's test skips; not at all; or through the greater arrow of
    an inverse pair, which the functor certificate skips."""
    if f in g.identity or h in g.identity:
        return "identity"
    if f not in gens and h not in gens:
        return "outside"
    if any(a in gens and g.inverse[a] < a for a in (f, h)):
        return "greater-inverse"
    return "generator"


def test_light_test_skips_identities_and_catches_every_changed_entry():
    """Light's test runs on the generating set without its identities.
    Each composite changed alone to a parallel arrow is reported as the
    scan of all composable triples reports it: through the identity laws
    when a factor is an identity, through the inverse laws on a∘a⁻¹,
    and else by Light's test itself, also on pairs of arrows outside the
    generating set."""
    kinds = set()
    for name in ("s3", "codiscrete-2-x-c3", "codiscrete-3-x-c2-shuffled"):
        g = CORPUS[name]
        gens = set(generators(g))
        for broken in _every_single_entry_corruption(g):
            (f, h), = [key for key, v in broken.compose.items()
                       if g.compose[key] != v]
            kind = _entry_kind(g, gens, f, h)
            want = reference_validate(broken).violations
            assert validate(broken).violations == want
            laws = {v.kind for v in want}
            if kind == "identity":
                assert laws & {"identity-left", "identity-right"}
            elif laws == {"associativity"}:
                assert not _associative_on(broken, generators(broken))
            else:  # a∘a⁻¹ changed: the triple scan runs instead
                assert laws & {"inverse-left", "inverse-right"}
            kinds.add(kind)
    assert kinds == {"identity", "outside", "greater-inverse", "generator"}


# -- the generating set ------------------------------------------------------

def closure_under_composition(g: FiniteGroupoid, arrows, left=None) -> set:
    """The arrows that are composites of the given ones, by brute force
    over all pairs until nothing new appears.  With ``left``, only the
    composites a∘w with a in ``left`` are taken."""
    got = set(arrows)
    changed = True
    while changed:
        new = {g.compose[(f, h)] for f in (got if left is None else left)
               for h in got if g.cod[h] == g.dom[f]} - got
        got |= new
        changed = bool(new)
    return got


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_generators_hold_identities_and_inverses_and_generate(name):
    g = CORPUS[name]
    gens = generators(g)
    assert gens is not None and gens == tuple(sorted(set(gens)))
    assert set(g.identity) <= set(gens)
    assert {g.inverse[a] for a in gens} == set(gens)
    assert closure_under_composition(g, gens) == set(g.arrows)
    assert generators(g) is gens


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_generators_are_a_tree_and_loop_generators(name):
    """Besides the identities, the set holds a spanning tree of each
    component with the inverses of its arrows, and loops at the least
    object of each component only, each new loop at least doubling the
    group that the earlier ones generate."""
    g = CORPUS[name]
    gens = set(generators(g)) - set(g.identity)
    loops = {a for a in gens if g.dom[a] == g.cod[a]}
    tree = gens - loops
    roots = [block[0] for block in components(g).blocks]
    assert len(tree) == 2 * (g.n_objects - len(roots))
    assert partition(g.n_objects, ((g.dom[a], g.cod[a]) for a in tree)) \
        == components(g)
    assert {g.dom[a] for a in loops} <= set(roots)
    for r in roots:
        at_r = sum(1 for a in loops if g.dom[a] == r)
        assert 2 ** (at_r // 2) <= len(g.loops(r))


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("base", BASES)
def test_generators_are_none_on_a_missing_entry(base, seed):
    rng = random.Random(f"missing-entry/{base}/{seed}")
    assert generators(_missing_entry(CORPUS[base], rng)) is None


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("base", BASES)
@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_generators_never_raise_on_corruptions(corruption, base, seed):
    """On a broken table the result is None or a set that generates
    every arrow from the identities by composing on the left."""
    rng = random.Random(f"{corruption}/{base}/{seed}")
    broken = CORRUPTIONS[corruption](CORPUS[base], rng)
    gens = generators(broken)
    if gens is not None:
        assert set(broken.identity) <= set(gens)
        assert closure_under_composition(
            broken, broken.identity, left=gens) == set(broken.arrows)


def test_out_of_range_endpoints_stay_out_of_the_index():
    g = CORPUS["codiscrete-2-x-c3"]
    broken = _rebuild(g, dom=_set((5, -1), (7, 2)), cod=_set((6, -1), (8, 9)))
    assert sorted(a for out in broken._out for a in out) == [
        a for a in g.arrows if a not in (5, 7)]
    assert sorted(a for into in broken._into for a in into) == [
        a for a in g.arrows if a not in (6, 8)]
    kinds = [(v.kind, v.ids) for v in validate(broken).violations]
    assert kinds == [("dom-range", (5,)), ("cod-range", (6,)),
                     ("dom-range", (7,)), ("cod-range", (8,))]


# -- subgroupoids against the all-pairs copy ---------------------------------

def reference_subgroupoid(g: FiniteGroupoid, objs, arrs):
    """The subgroupoid copy that tests every pair of chosen arrows."""
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
        for h in arrs:
            if g.cod[h] == g.dom[f]:
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


def _outcome(build, g, objs, arrs):
    """The tables, the compose order and the embedding, or the message."""
    try:
        sub, obj_ids, arr_ids = build(g, objs, arrs)
    except ValueError as exc:
        return str(exc)
    return (sub.n_objects, sub.dom, sub.cod, sub.identity, sub.inverse,
            list(sub.compose.items()), sub.obj_labels, sub.arr_labels,
            obj_ids, arr_ids)


def _subgroupoid_cases(g, rng):
    """Closed sets (each component, the loops at each object, the
    identities) and random sets that are mostly not closed."""
    for block in components(g).blocks:
        inside = set(block)
        yield block, [a for a in g.arrows
                      if g.dom[a] in inside and g.cod[a] in inside]
    for x in g.objects:
        yield [x], g.loops(x)
    yield g.objects, g.identity
    for _ in range(20):
        objs = rng.sample(g.objects, rng.randint(1, g.n_objects))
        between = [a for a in g.arrows
                   if g.dom[a] in objs and g.cod[a] in objs]
        arrs = rng.sample(between, rng.randint(0, len(between)))
        if rng.random() < 0.8:
            arrs += [g.identity[x] for x in objs]
        if rng.random() < 0.2:
            arrs.append(rng.choice(g.arrows))
        yield objs, arrs


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_subgroupoid_matches_all_pairs_reference(name):
    g = CORPUS[name]
    rng = random.Random(name)
    messages = set()
    for objs, arrs in _subgroupoid_cases(g, rng):
        got = _outcome(subgroupoid, g, objs, arrs)
        assert got == _outcome(reference_subgroupoid, g, objs, arrs)
        if isinstance(got, str):
            messages.add(got.split(" at ")[0].split(" of object")[0])
    for block in components(g).blocks:
        inside = set(block)
        assert _outcome(lambda g, objs, _: component_subgroupoid(g, objs),
                        g, block, None) == \
            _outcome(reference_subgroupoid, g, block, [
                a for a in g.arrows
                if g.dom[a] in inside and g.cod[a] in inside])
    if g.n_arrows > g.n_objects:
        assert "arrow set not closed under composition" in messages


def test_subgroupoid_names_an_arrow_set_closed_only_under_composition():
    g = codiscrete_groupoid(2)
    a = g.hom(0, 1)[0]
    args = (g, [0, 1], [g.identity[0], g.identity[1], a])
    assert _outcome(subgroupoid, *args) == \
        _outcome(reference_subgroupoid, *args) == \
        f"arrow set not closed under inverse at {a}"
