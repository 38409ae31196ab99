"""Acceptance battery: every classification theorem run end to end.

Each check below is exact (no tolerances; the domain is finite) and is
phrased against an independent oracle where one exists: pushforwards are
recomputed from loop images, uniqueness of lifts is confirmed by
exhaustive morphism enumeration over the fiber, lattice meets/joins
are recomputed geometrically from pullback components and pushouts, and
hom-set bijections are produced by full double enumeration.

The registry :data:`ACCEPTANCE_CHECKS` is consumed both by the pytest
acceptance module and by the command-line ``selftest`` subcommand.
"""

from __future__ import annotations

from functools import lru_cache

from .covering import (Covering, GroupoidMorphism, all_morphisms,
                       check_covering, components, compose_morphisms,
                       covering_morphisms, equivalent_coverings,
                       find_covering_isomorphism, fold, lift_morphism,
                       monodromy, pushforward_vertex, require_covering)
from .classify import (_quotient_to_base, build_lattice, classify_covering,
                       meet_covering, pullback_covering, pushout_covering)
from .construct import (covering_from_subgroup, orbit_groupoid,
                        quotient_comparison, universal_cover)
from .groupoid import (FiniteGroupoid, codiscrete_groupoid, disjoint_union,
                       group_groupoid, trivial_groupoid, vertex_group)
from .groups import FiniteGroup, is_isomorphic
from .topos import (adjunction_check, characteristic_morphism, classifies,
                    covering_to_presheaf, exponential,
                    group_action_on_exponential, omega,
                    presheaf_to_covering, subobjects)
from .transform import (cov_normalizer_iso, covering_transformations,
                        is_regular, principal_action_check)


@lru_cache(maxsize=None)
def fixture_bases():
    return {
        "T1": trivial_groupoid(),
        "I2": codiscrete_groupoid(2, labels=("x", "y")),
        "C4": group_groupoid(FiniteGroup.cyclic(4), label="*"),
        "S3": group_groupoid(FiniteGroup.symmetric(3), label="*"),
    }


@lru_cache(maxsize=None)
def fixture_covers():
    """Every connected coset cover of every fixture base, keyed by
    (base name, subgroup elements)."""
    covers = {}
    for name, base in fixture_bases().items():
        vg = vertex_group(base, 0)
        for sub in vg.subgroups():
            covers[(name, sub.elements)] = covering_from_subgroup(
                base, 0, sub)
    return covers


def _connected_fixture_covers():
    return sorted(fixture_covers().items())


def check_covering_soundness():
    """Every produced covering passes the star-bijection check again."""
    built = []
    for (name, _), cov in _connected_fixture_covers():
        built.append((f"coset cover of {name}", cov))
    c4 = fixture_bases()["C4"]
    u = universal_cover(c4, 0)
    grp = covering_transformations(u)
    orb = orbit_groupoid(grp.as_action())
    built.append(("orbit quotient of C4 universal", orb.covering))
    pb = pullback_covering(u, u.morphism)
    built.append(("pullback of C4 universal along itself", pb.covering))
    om = omega(c4)
    built.append(("classifier of C4", om.covering))
    idc = require_covering(GroupoidMorphism.identity(c4))
    built.append(("exponential C4^C4", exponential(idc, idc).covering))
    built.append(("covering of elements of C4 universal",
                  presheaf_to_covering(covering_to_presheaf(u))))
    for label, cov in built:
        out = check_covering(cov.morphism)
        if not isinstance(out, Covering):
            return False, f"{label}: {out.message}"
    return True, f"{len(built)} constructed coverings re-verified"


def check_existence_theorem():
    """Coset covers realize exactly their prescribed subgroup (9 cases)."""
    cases = 0
    for name in ("C4", "S3"):
        base = fixture_bases()[name]
        vg = vertex_group(base, 0)
        for sub in vg.subgroups():
            cov = covering_from_subgroup(base, 0, sub)
            got = pushforward_vertex(cov, cov.marked_object)
            if got.elements != sub.elements:
                return False, (f"{name} subgroup {sub.elements}: "
                               f"pushforward {got.elements}")
            cases += 1
    return cases == 9, f"{cases} subgroup cases recovered exactly"


def check_fold_and_stabilizers():
    """fold = index of the pushforward; stabilizers = pushforwards."""
    checked = 0
    for (name, _), cov in _connected_fixture_covers():
        vg = vertex_group(cov.base, 0)
        idx = vg.order // pushforward_vertex(cov, cov.marked_object).order
        if fold(cov) != idx:
            return False, f"{name}: fold {fold(cov)} != index {idx}"
        act = monodromy(cov, 0)
        for x in act.carrier:
            if act.stabilizer(x).elements != \
                    pushforward_vertex(cov, x).elements:
                return False, f"{name}: stabilizer mismatch at object {x}"
        if not act.is_transitive():
            return False, f"{name}: monodromy not transitive"
        checked += 1
    return True, f"{checked} covers checked"


def _lift_triples():
    """(covering p, morphism f, label) pairs used by the lifting checks."""
    triples = []
    for name in ("C4", "S3"):
        base = fixture_bases()[name]
        covers = [cov for (nm, _), cov in _connected_fixture_covers()
                  if nm == name]
        morphisms = [(GroupoidMorphism.identity(base), f"id({name})")]
        morphisms += [(c.morphism, f"{name} cover fold {fold(c)}")
                      for c in covers]
        for p in covers:
            for f, flabel in morphisms:
                triples.append((p, f, flabel))
    return triples


def check_unique_lifting():
    """Lift exists iff the loop-image group lands in the pushforward;
    existing lifts are unique, confirmed by independent exhaustive
    enumeration of the morphisms over f."""
    checked = 0
    for p, f, flabel in _lift_triples():
        f0 = 0
        loop_imgs = {f.arr_map[a] for a in f.source.loops(f0)}
        over_f = [m for m in all_morphisms(f.source, p.total,
                                           over=(p.morphism, f))
                  if compose_morphisms(p.morphism, m) == f]
        for seed in p.fibers[f.obj_map[f0]]:
            seed_imgs = {p.morphism.arr_map[a]
                         for a in p.total.loops(seed)}
            expected = loop_imgs <= seed_imgs
            got = lift_morphism(p, f, f0, seed)
            if (got is not None) != expected:
                return False, (f"{flabel}: lift existence disagrees with "
                               f"the subgroup criterion at seed {seed}")
            candidates = [m for m in over_f if m.obj_map[f0] == seed]
            if len(candidates) != (1 if expected else 0):
                return False, (f"{flabel}: exhaustive search found "
                               f"{len(candidates)} lifts at seed {seed}")
            if candidates and not (
                    candidates[0].obj_map == got.obj_map
                    and candidates[0].arr_map == got.arr_map):
                return False, f"{flabel}: enumerated lift differs"
            checked += 1
    return True, (f"{checked} seeded lifts checked, "
                  f"{checked} confirmed by full enumeration")


def check_cov_group_theorems():
    """|Cov| = normalizer index; universal Cov = base vertex group;
    regularity routes agree; principal action on regular covers."""
    for (name, elems), cov in _connected_fixture_covers():
        grp = covering_transformations(cov)
        ni = cov_normalizer_iso(cov)
        expect = ni.normalizer.order // ni.pushforward.order
        if grp.order != expect:
            return False, (f"{name} {elems}: |Cov| {grp.order} != "
                           f"normalizer index {expect}")
        # is_regular cross-checks the normality and transitivity routes
        if is_regular(cov) and not principal_action_check(cov):
            return False, f"{name} {elems}: regular cover not principal"
    c4u = universal_cover(fixture_bases()["C4"], 0)
    if not is_isomorphic(covering_transformations(c4u).group,
                         FiniteGroup.cyclic(4)):
        return False, "Cov of the C4 universal cover is not cyclic of 4"
    s3 = fixture_bases()["S3"]
    s3u = universal_cover(s3, 0)
    if not is_isomorphic(covering_transformations(s3u).group,
                         FiniteGroup.symmetric(3)):
        return False, "Cov of the S3 universal cover is not symmetric(3)"
    vg = vertex_group(s3, 0)
    flip = vg.generated_subgroup([vg.index_of_name("(12)")])
    cov12 = covering_from_subgroup(s3, 0, flip)
    if covering_transformations(cov12).order != 1:
        return False, "Cov of the (12)-cover of S3 is not trivial"
    return True, "orders, isomorphism types and regularity routes agree"


def check_orbit_round_trip():
    """base = total/Cov for every regular fixture cover; quotients by
    subgroups of Cov match the coset covers."""
    regular_count = 0
    for (name, elems), cov in _connected_fixture_covers():
        if not is_regular(cov):
            continue
        quotient_comparison(cov)  # raises on any failure
        regular_count += 1
    c4 = fixture_bases()["C4"]
    u = universal_cover(c4, 0)
    grp = covering_transformations(u)
    ni = cov_normalizer_iso(u)
    vg = vertex_group(c4, 0)
    matched = 0
    for sub in vg.subgroups():
        pi = grp.group.subgroup(ni.mapping[k] for k in sub.elements)
        orb = orbit_groupoid(grp.action_of_subgroup(pi))
        quot = _quotient_to_base(u, orb)
        coset = covering_from_subgroup(c4, 0, sub)
        if equivalent_coverings(coset, quot) is None:
            return False, (f"orbit quotient by {pi.elements} is not the "
                           f"coset cover of {sub.elements}")
        matched += 1
    return True, (f"{regular_count} regular covers round-tripped, "
                  f"{matched} orbit quotients matched coset covers")


def check_main_lattice():
    """The full classification lattice over S3 and C4, with external
    covers classified back into it."""
    s3 = fixture_bases()["S3"]
    lat = build_lattice(s3, 0)  # raises on any clause failure
    folds = sorted(n.fold for n in lat.nodes)
    if folds != [1, 2, 3, 3, 3, 6]:
        return False, f"S3 folds {folds}"
    if sum(1 for n in lat.nodes if not n.regular) != 3:
        return False, "S3 lattice regular count"
    vg = vertex_group(s3, 0)
    for sub in vg.subgroups():
        cov = covering_from_subgroup(s3, 0, sub)
        node = classify_covering(lat, cov)
        if equivalent_coverings(node.covering, cov) is None:
            return False, f"round trip failed for subgroup {sub.elements}"
        if node.fold != sub.index:
            return False, f"fold mismatch for subgroup {sub.elements}"
    c4 = fixture_bases()["C4"]
    lat4 = build_lattice(c4, 0)
    if sorted(n.fold for n in lat4.nodes) != [1, 2, 4]:
        return False, "C4 lattice folds"
    if any(not n.regular for n in lat4.nodes):
        return False, "C4 lattice must be all regular"
    n = len(lat4.nodes)
    chain = all(lat4.subgroup_leq(i, j) or lat4.subgroup_leq(j, i)
                for i in range(n) for j in range(n))
    if not chain:
        return False, "C4 lattice is not a chain"
    # meets and joins are checked on orbit partitions of the universal
    # total inside build_lattice; spot-check the API surface
    a, b = lat.nodes[1], lat.nodes[2]
    meet_covering(a, b)
    pushout_covering(a.orbit.covering, b.orbit.covering)
    return True, "S3 and C4 lattices verified clause by clause"


def _multi_component_covers():
    out = []
    for name in ("C4", "S3"):
        base = fixture_bases()[name]
        om = omega(base)
        out.append((f"classifier of {name}", om.covering))
        idm = GroupoidMorphism.identity(base)
        three = require_covering(GroupoidMorphism(
            disjoint_union(disjoint_union(base, base), base), base,
            tuple(idm.obj_map) * 3, tuple(idm.arr_map) * 3))
        out.append((f"three copies of {name}", three))
        out.append((f"identity of {name}",
                    require_covering(idm)))
    return out


def check_topos_classifier():
    """Characteristic morphisms exist and are unique; Sub(H) is the
    Boolean power set of the components; exponents have the right fiber
    sizes; currying is a bijection; G^G = G."""
    for label, cov in _multi_component_covers():
        lattice = subobjects(cov)
        k = len(lattice.component_blocks)
        if len(lattice.nodes) != 2 ** k:
            return False, f"{label}: expected {2**k} subobjects"
        _check_boolean(lattice)
        om = omega(cov.base)
        hom_to_omega = covering_morphisms(cov, om.covering)
        for node in lattice.nodes:
            subcov, incl = lattice.as_subcovering(node)
            phi = characteristic_morphism(cov, incl, om)
            if not classifies(cov, incl, phi, om):
                return False, f"{label}: square not a pullback at {node}"
            matches = [m for m in hom_to_omega
                       if classifies(cov, incl, m, om)]
            if len(matches) != 1:
                return False, (f"{label}: {len(matches)} classifying "
                               f"morphisms at {node}")
    # exponential fiber sizes
    c4 = fixture_bases()["C4"]
    vg = vertex_group(c4, 0)
    cov02 = covering_from_subgroup(c4, 0, vg.subgroup([0, 2]))
    u = universal_cover(c4, 0)
    for p, q in ((cov02, cov02), (u, cov02), (cov02, u)):
        ex = exponential(p, q)
        for c in c4.objects:
            want = len(p.fibers[c]) ** len(q.fibers[c])
            got = sum(1 for o in ex.covering.total.objects
                      if ex.over(o) == c)
            if got != want:
                return False, f"exponential fiber size {got} != {want}"
    # loop action on the exponential agrees with its own monodromy
    ex = exponential(cov02, cov02)
    act = monodromy(ex.covering, 0)
    for obj in act.carrier:
        for k in range(act.group.order):
            if group_action_on_exponential(
                    ex, act.group.arrows[k], obj) != act.act(obj, k):
                return False, "exponential loop action mismatch"
    # adjunction by full double enumeration
    t1 = fixture_bases()["T1"]
    for sizes in ((2, 2, 2), (3, 2, 2), (1, 3, 2)):
        r, p, q = (_discrete_cover(t1, n) for n in sizes)
        w = adjunction_check(r, p, q)
        if len(w.lhs) != len(w.rhs):
            return False, f"adjunction counts differ at sizes {sizes}"
    w = adjunction_check(cov02, cov02, cov02)
    idc4 = require_covering(GroupoidMorphism.identity(c4))
    adjunction_check(idc4, cov02, cov02)
    adjunction_check(cov02, idc4, cov02)
    # G^G = G
    gg = exponential(idc4, idc4)
    if find_covering_isomorphism(gg.covering, idc4) is None:
        return False, "C4^C4 is not the identity covering"
    return True, "classifier, Boolean subobjects, exponentials, adjunction"


def _check_boolean(lattice):
    nodes = lattice.nodes
    full = frozenset(range(len(lattice.component_blocks)))
    for a in nodes:
        if lattice.union(a, lattice.complement(a)) != full:
            raise AssertionError("complement law fails")
        if lattice.intersect(a, lattice.complement(a)) != frozenset():
            raise AssertionError("complement law fails")
        for b in nodes:
            if lattice.complement(lattice.union(a, b)) != \
                    lattice.intersect(lattice.complement(a),
                                      lattice.complement(b)):
                raise AssertionError("De Morgan fails")
            for c in nodes:
                if lattice.intersect(a, lattice.union(b, c)) != \
                        lattice.union(lattice.intersect(a, b),
                                      lattice.intersect(a, c)):
                    raise AssertionError("distributivity fails")


def _discrete_cover(t1, n):
    tot = FiniteGroupoid(n, tuple(range(n)), tuple(range(n)),
                         tuple(range(n)), {(i, i): i for i in range(n)},
                         tuple(range(n)),
                         obj_labels=tuple(f"p{i}" for i in range(n)),
                         arr_labels=tuple(f"id{i}" for i in range(n)))
    return require_covering(
        GroupoidMorphism(tot, t1, (0,) * n, (0,) * n))


def check_presheaf_round_trip():
    """Coverings -> presheaves -> coverings is the identity up to
    verified isomorphism, and conversely up to natural isomorphism."""
    covers = [cov for _, cov in _connected_fixture_covers()]
    for name, base in fixture_bases().items():
        covers.append(omega(base).covering)
    count = 0
    for cov in covers:
        ps = covering_to_presheaf(cov)
        back = presheaf_to_covering(ps)
        iso = find_covering_isomorphism(cov, back)
        if iso is None:
            return False, "covering round trip failed"
        ps2 = covering_to_presheaf(back)
        # natural isomorphism: per-object bijections, induced by iso,
        # commuting with all transports
        eta = {}
        for x in cov.base.objects:
            if len(ps.sets[x]) != len(ps2.sets[x]):
                return False, "presheaf round trip changed a fiber size"
            eta[x] = {v: iso.obj_map[v] for v in ps.sets[x]}
        for g in cov.base.arrows:
            c, d = cov.base.cod[g], cov.base.dom[g]
            for v in ps.sets[c]:
                if eta[d][ps.maps[g][v]] != ps2.maps[g][eta[c][v]]:
                    return False, "naturality square fails"
        count += 1
    return True, f"{count} coverings round-tripped"


def check_pullback_components():
    """The self-pullback of the C4 universal cover splits into exactly 4
    components."""
    u = universal_cover(fixture_bases()["C4"], 0)
    pb = pullback_covering(u, u.morphism)
    n = len(components(pb.covering.total))
    return n == 4, f"{n} components"


ACCEPTANCE_CHECKS = (
    (1, "covering predicate soundness", check_covering_soundness),
    (2, "existence theorem", check_existence_theorem),
    (3, "fold formula and stabilizers", check_fold_and_stabilizers),
    (4, "unique lifting", check_unique_lifting),
    (5, "covering transformation groups", check_cov_group_theorems),
    (6, "orbit round trip", check_orbit_round_trip),
    (7, "classification lattice", check_main_lattice),
    (8, "topos structure", check_topos_classifier),
    (9, "presheaf equivalence round trip", check_presheaf_round_trip),
    (10, "self-pullback components", check_pullback_components),
)


def run_acceptance(write=print):
    """Run every acceptance check, print one line per criterion, return
    overall success."""
    all_ok = True
    for num, title, fn in ACCEPTANCE_CHECKS:
        ok, detail = fn()
        all_ok = all_ok and ok
        status = "PASS" if ok else "FAIL"
        write(f"{status} {num:2d} {title}: {detail}")
    return all_ok
