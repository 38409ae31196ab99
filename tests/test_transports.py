"""The fiber action of a covering, ``covering.transports``: one read-only
mapping per base arrow g, from each object x over cod g, in fiber order,
to x·g = dom(lift of g into x).  It is read from the witnesses once and
kept; fiber transport, monodromy, the exponential, the fiber presheaf and
the lattice's meet law read it.  Checked here on every covering the
corpus builds, against the lifts themselves and against the moves that
``covering_of_lifts``'s action check reads from the lifts it is given."""

import itertools
import sys
from contextlib import contextmanager

import pytest

from gpdcov import (codiscrete_groupoid, covering_from_subgroup,
                    covering_to_presheaf, exponential, fiber_transport,
                    group_action_on_exponential, is_connected, lift_arrow,
                    monodromy, omega, pullback_covering, universal_cover,
                    vertex_group)
from gpdcov import covering as covering_module
from gpdcov.covering import transports
from gpdcov.topos import presheaf_to_covering

from test_index import CORPUS
from test_lifts import (CONNECTED, DISCONNECTED, _morphisms_into,
                        small_covers)


def lift_built(name):
    """Thunks building every covering the corpus builds from lifts over
    one generated base: coset covers of every subgroup and the universal
    cover (connected bases), the classifier, and from the small covers
    their exponentials, coverings of elements and pullbacks."""
    g = CORPUS[name]
    covers = small_covers(name)
    built = [lambda: omega(g).covering]
    if is_connected(g):
        built += [lambda sub=sub: covering_from_subgroup(g, 0, sub)
                  for sub in vertex_group(g, 0).subgroups()]
        built += [lambda: universal_cover(g)]
    built += [lambda p=p, q=q: exponential(p, q).covering
              for p, q in itertools.product(covers, repeat=2)]
    built += [lambda ps=covering_to_presheaf(cov): presheaf_to_covering(ps)
              for cov in covers]
    built += [lambda p=p, f=f: pullback_covering(p, f).covering
              for p in covers for f in _morphisms_into(name)]
    return built


def corpus_coverings(name):
    """The small covers of one base (the identity among them, which is not
    built from lifts) and every lift-built covering over it."""
    return small_covers(name) + [build() for build in lift_built(name)]


def by_lifts(p, g):
    """x ↦ dom(lift of g into x) over the fiber of cod g, in fiber order."""
    return {x: p.total.dom[p.lift(g, x)] for x in p.fibers[p.base.cod[g]]}


@pytest.mark.parametrize("name", CONNECTED + DISCONNECTED)
def test_transports_are_the_domains_of_the_lifts(name):
    for p in corpus_coverings(name):
        moves = transports(p)
        assert len(moves) == p.base.n_arrows
        for g, move in enumerate(moves):
            assert list(move.items()) == list(by_lifts(p, g).items())


@contextmanager
def action_check_moves():
    """The list of ``moves`` that each ``_action_fault`` call of the block
    holds as it returns: per base arrow g, the place in the fiber of dom g
    of the lift's domain, for each object over cod g in fiber order."""
    got, code = [], covering_module._action_fault.__code__

    def watch(frame, event, arg):
        if event == "return" and frame.f_code is code:
            got.append(frame.f_locals["moves"])

    before = sys.getprofile()
    sys.setprofile(watch)
    try:
        yield got
    finally:
        sys.setprofile(before)


@pytest.mark.parametrize("name", CONNECTED + DISCONNECTED)
def test_transports_agree_with_the_action_check(name):
    """A covering built from lifts is proved by ``_action_fault``, which
    reads each transport as places in the fibers; ``transports``, read
    from the witnesses, names the same objects."""
    for build in lift_built(name):
        with action_check_moves() as got:
            p = build()
        fibers, cod, dom = p.fibers, p.base.cod, p.base.dom
        assert [dict(zip(fibers[cod[g]], map(fibers[dom[g]].__getitem__, m)))
                for g, m in enumerate(got[-1])] == list(transports(p))


@pytest.mark.parametrize("name", CONNECTED + DISCONNECTED)
def test_transports_are_kept_and_read_only(name):
    for p in corpus_coverings(name):
        moves = transports(p)
        assert transports(p) is moves
        assert isinstance(moves, tuple)
        with pytest.raises(AttributeError, match="read-only"):
            p._transports = None
        for move in moves:
            x = next(iter(move), 0)
            with pytest.raises(TypeError):
                move[x] = -1
            with pytest.raises(TypeError):
                del move[x]


@pytest.mark.parametrize("name", CONNECTED + DISCONNECTED)
def test_readers_get_copies(name):
    """Writing to the maps that fiber_transport and covering_to_presheaf
    hand out leaves the covering's transports as they were."""
    for p in small_covers(name):
        want = [dict(move) for move in transports(p)]
        ps = covering_to_presheaf(p)
        for g in p.base.arrows:
            tr = fiber_transport(p, g)
            for x in list(tr.obj_map):
                tr.obj_map[x] = -1
                ps.maps[g][x] = -1
            tr.obj_map[-5] = 0
            ps.maps[g][-5] = 0
        assert [dict(move) for move in transports(p)] == want
        assert covering_to_presheaf(p).maps == dict(enumerate(want))


@pytest.mark.parametrize("name", CONNECTED + DISCONNECTED)
def test_exponential_action_matches_the_lifts(name):
    """(α·g)(x) = α(x·g⁻¹)·g, with each x·h read off a lift, for every
    object of every exponential of the small covers and every loop at its
    base object."""
    covers = small_covers(name)[:3]
    for p, q in itertools.product(covers, repeat=2):
        ex = exponential(p, q)
        base = ex.covering.base
        for obj in range(len(ex.objects)):
            c = ex.over(obj)
            amap = dict(zip(q.fibers[c], ex.assignment(obj)))
            for g in base.loops(c):
                want = tuple(by_lifts(p, g)[amap[by_lifts(q, base.inverse[g])
                                                 [x]]] for x in q.fibers[c])
                got = group_action_on_exponential(ex, g, obj)
                assert ex.assignment(got) == want


# -- ids out of range are refused, not wrapped --------------------------------

def test_out_of_range_ids_are_refused(c4_univ, cov02):
    """Negative or too large ids name themselves in a ValueError; Python's
    negative indexing would otherwise read another arrow or object."""
    ex = exponential(cov02, cov02)
    act = monodromy(c4_univ, 0)
    for bad, call in (
            (4, lambda: fiber_transport(c4_univ, 4)),
            (-1, lambda: fiber_transport(c4_univ, -1)),
            (-1, lambda: act.orbit(-1)),
            (4, lambda: act.orbit(4)),
            (-1, lambda: act.act(0, -1)),
            (4, lambda: act.act(0, 4)),
            (-1, lambda: group_action_on_exponential(ex, -1, 0)),
            (4, lambda: group_action_on_exponential(ex, 4, 0)),
            (-1, lambda: group_action_on_exponential(ex, 0, -1)),
            (len(ex.objects),
             lambda: group_action_on_exponential(ex, 0, len(ex.objects)))):
        with pytest.raises(ValueError, match=f"id {bad}$|element {bad}$"):
            call()


def test_lift_and_act_refuse_objects_as_lift_arrow_and_orbit_do(c4_univ):
    """Covering.lift refuses an unknown object id as lift_arrow does (on
    the C4 universal cover, u.lift(1, -1) read the lift into object 3), and
    MonodromyAction.act refuses an object off the fiber as orbit does (it
    raised a bare KeyError), each in the same ValueError."""
    act = monodromy(c4_univ, 0)
    for bad, calls in (
            (-1, (lambda: c4_univ.lift(1, -1),
                  lambda: lift_arrow(c4_univ, 1, -1))),
            (4, (lambda: c4_univ.lift(1, 4),
                 lambda: lift_arrow(c4_univ, 1, 4))),
            (-1, (lambda: act.act(-1, 0), lambda: act.orbit(-1))),
            (7, (lambda: act.act(7, 0), lambda: act.orbit(7)))):
        for call in calls:
            with pytest.raises(ValueError,
                               match=f"^unknown total object id {bad}$"):
                call()
    u = universal_cover(codiscrete_groupoid(2))
    off, act = u.fibers[1][0], monodromy(u, 0)
    for call in (lambda: act.act(off, 0), lambda: act.orbit(off)):
        with pytest.raises(ValueError,
                           match=f"^object {off} is not in the fiber$"):
            call()
