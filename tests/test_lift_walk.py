"""The breadth-first lift walk that the lattice's meet check runs on a
fibered product (``covering._lift_walk``) names the object of a witness
read that leaves the fiber, as the lifting kernel does, where it used to
raise a bare ``KeyError``."""

import re

from gpdcov import TheoremViolation, universal_cover
from gpdcov.covering import _lift_walk

from test_cov_kernel import swapped_witnesses
from test_index import CORPUS
from test_lifts import CONNECTED, subgroup_covers

INCONSISTENT = "lift propagation inconsistent at object ([0-9]+)"


def test_the_lift_walk_names_an_object_on_every_swap():
    """Every single swap of consecutive witness entries, on the coset and
    universal covers of the connected corpus bases, walked from the mark to
    each object of its fiber: 6,091 walks.  Each either ends or names a
    source object; 2,184 name one, and each of those raised a bare
    KeyError before."""
    walks = named = 0
    for name in CONNECTED:
        g = CORPUS[name]
        for p in subgroup_covers(g) + [universal_cover(g)]:
            for b in swapped_witnesses(p):
                f = b.morphism
                for seed in b.fibers[f.obj_map[b.mark]]:
                    walks += 1
                    try:
                        _lift_walk(b, f, (b.mark, seed))
                    except TheoremViolation as exc:
                        x = re.fullmatch(INCONSISTENT, str(exc))
                        assert x and int(x[1]) < f.source.n_objects
                        named += 1
    assert (walks, named) == (6091, 2184)
