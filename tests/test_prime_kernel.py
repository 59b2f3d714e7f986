"""The prime-point kernel against the oracles: closures, pairs and tails.

The kernel lives on `Graph`: `_tails` holds the maximal tails, `_breakers`
the breaking vertices, and `_sh_closure` reads the saturated hereditary
closure off them.  Every saturation question is read off this kernel, so
each optimized answer is checked here against a definition on every seeded
generator.
"""

import random

import pytest

from graphck import (
    OMEGA,
    admissible_pairs,
    breaking_vertices,
    maximal_tails,
    prim_space,
    saturated_hereditary_sets,
)
from graphck.poset import Poset, bits, union

from util import (
    KINDS,
    brute_breaking_vertices_of,
    brute_maximal_tails,
    brute_pairs,
    edges_by,
    round_closure,
)


def seeded(kind, count, max_n=None):
    rng = random.Random(KINDS.index(kind) + 110)
    return [kind(rng) if max_n is None else kind(rng, max_n=max_n) for _ in range(count)]


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_kernel_closure_matches_round_by_round_closure(kind):
    rng = random.Random(7)
    for g in seeded(kind, 750):
        masks = [rng.getrandbits(len(g.vertices)) for _ in range(8)] + [0, g._full]
        for m in masks:
            assert g.unmask(g._sh_closure(m)) == round_closure(g, g.unmask(m))


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_pairs_are_every_sh_set_with_every_breaking_subset(kind):
    for g in seeded(kind, 400):
        expected = brute_pairs(g)
        assert [(p.h, p.b) for p in admissible_pairs(g).pairs] == expected
        sh = [H for H, B in expected if not B]
        assert saturated_hereditary_sets(g) == sh


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_tails_and_breaking_vertices_match_definitions(kind):
    for g in seeded(kind, 300):
        brute = brute_maximal_tails(g)
        assert maximal_tails(g) == sorted(brute, key=lambda M: (-len(M), g.mask(M)))
        # the prime rows cover V, and a breaking row is a tail row
        assert union(g._tails, (1 << len(g._tails)) - 1) == g._full
        assert all(g._reach[i] in g._tails for i in g._breakers)
        # v breaks over its omega set: the vertices that v does not reach
        expected, ins = [], edges_by(g, "rng")
        for i, v in enumerate(g.vertices):
            omega_v = g.unmask(g._full & ~g._reach[i])
            infinite = any(e.mult == OMEGA for e in ins[v])
            if infinite and v in brute_breaking_vertices_of(g, omega_v):
                expected.append(v)
        assert breaking_vertices(g) == expected


def test_pair_count_is_the_up_set_count_of_the_prime_order():
    for kind in KINDS:
        for g in seeded(kind, 100):
            order = prim_space(g)._order
            # count the up-sets of the prime order by scanning every subset
            n = len(order.up)
            count = sum(
                all(order.up[i] & ~s == 0 for i in range(n) if s >> i & 1) for s in range(1 << n)
            )
            assert len(admissible_pairs(g)) == count


def test_upset_meets_lists_every_up_set_once():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(0, 7)
        # a random order: closure of random forward edges
        up = [1 << i for i in range(n)]
        for i in reversed(range(n)):
            for j in range(i + 1, n):
                if rng.random() < 0.3:
                    up[i] |= up[j]
        poset = Poset(tuple(up))
        # the complements of the up-sets grow with the order, and their AND
        # over an up-set U is the complement of U
        full = (1 << n) - 1
        values = [full & ~m for m in up]
        got = [full & ~m for m in poset.upset_meets(values, full)]
        upsets = [s for s in range(1 << n) if all(up[i] & ~s == 0 for i in bits(s))]
        assert sorted(got) == upsets
