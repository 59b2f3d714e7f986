"""The kernel against the oracles: reachability, closures, pairs and tails.

The kernel lives on `Graph`: `_succ` and `_in` hold the edge tables,
`_reach`, `_comps` and `_cyclic` the reachability rows and the
condensation, `_one_return` the vertices with one first-return path,
`_tails` the maximal tails, `_breakers` the breaking
vertices, `_prime_rows` and `_prime_order` the prime points and their
order, and `_sh_closure` reads the saturated hereditary closure off
them.  Every saturation question is read off this kernel, so each
optimized answer is checked here against a definition on every seeded
generator.
"""

import random
from collections import Counter

import pytest

from graphck import (
    OMEGA,
    AdmissiblePair,
    Edge,
    Graph,
    admissible_pairs,
    breaking_vertices,
    condition_L,
    lattice_to_json,
    maximal_tails,
    prim_space,
    quotient_graph,
    saturated_hereditary_sets,
)
from graphck import graphs, ideals, spectrum
from graphck.conditions import entranceless_cycle_at
from graphck.poset import Poset, bits, closure, subset_order, union

from util import (
    KINDS,
    brute_breaking_vertices_of,
    brute_first_return_count,
    brute_maximal_tails,
    brute_pairs,
    edges_by,
    reach,
    round_closure,
    split_records,
    walk_condition_L,
)


def seeded(kind, count, max_n=None):
    rng = random.Random(KINDS.index(kind) + 110)
    return [kind(rng) if max_n is None else kind(rng, max_n=max_n) for _ in range(count)]


def in_table(g):
    """The in-edge table of g from its edge records: per vertex the mask of
    its sources, of its OMEGA sources and of its repeated sources (a parallel
    record, or one of multiplicity two or more), and the infinite receivers."""
    src, omega, repeated, infinite = [], [], [], 0
    for i, (v, ins) in enumerate(edges_by(g, "rng").items()):
        per = Counter(e.src for e in ins)
        src.append(g.mask(per))
        omega.append(g.mask(e.src for e in ins if e.mult == OMEGA))
        repeated.append(g.mask(e.src for e in ins if e.mult != 1 or per[e.src] > 1))
        infinite |= bool(omega[-1]) << i
    return tuple(src), tuple(omega), tuple(repeated), infinite


def check_kernel(g, seen):
    """The rows of g against `util.reach`, the edge tables against the edge
    records, the tails against their definition, and (L) against the
    reference walk; seen counts the cases met."""
    r = reach(g)
    outs = edges_by(g, "src")
    assert g._succ == tuple(g.mask(e.rng for e in outs[v]) for v in g.vertices)
    ins = edges_by(g, "rng")
    assert (g._in.src, g._in.omega, g._in.repeated, g._in.infinite) == in_table(g)
    below = {v: {w for w in g.vertices if v in r[w]} for v in g.vertices}
    comps = []  # the mutual-reach classes, each at its smallest member
    for v in g.vertices:
        c = g.mask(below[v] & r[v])
        if c not in comps:
            comps.append(c)
    assert g._reach == tuple(g.mask(r[v]) for v in g.vertices)
    assert g._comps == tuple(comps)
    assert g._cyclic == g.mask(e.src for e in g.edges if e.src in r[e.rng])
    # a tail is the reach of a vertex on a cycle, with no in-edge or an OMEGA one
    rows = {
        g.mask(r[v])
        for v in g.vertices
        if any(v in r[e.rng] for e in outs[v])
        or not ins[v]
        or any(e.mult == OMEGA for e in ins[v])
    }
    assert g._tails == tuple(sorted(rows, key=lambda m: (-m.bit_count(), m)))
    L = condition_L(g)
    assert L == walk_condition_L(g)
    seen["self-loop"] += any(e.src == e.rng for e in g.edges)
    seen["parallel"] += len({(e.src, e.rng) for e in g.edges}) < len(g.edges)
    seen["omega"] += any(e.mult == OMEGA for e in g.edges)
    seen["lone self-loop"] += any(
        below[e.src] & r[e.src] == {e.src} for e in g.edges if e.src == e.rng
    )
    seen["several tails"] += len(rows) > 1
    seen["L fails" if not L.holds else "L holds"] += 1


def test_reachability_kernel_matches_a_search_over_edge_records():
    """On 20 to 60 vertices, past the subset-scanning oracles, each graph and
    two quotients of it over one saturated hereditary H: one with B the whole
    admissible range, one with B empty, which keeps a gap vertex per range
    vertex.  The kept vertices, H's complement, often span several bytes."""
    rng, pick, seen = random.Random(210), random.Random(212), Counter()
    for k in range(400):
        g = KINDS[k % len(KINDS)](rng, max_n=60, min_n=20)
        check_kernel(g, seen)
        n = len(g.vertices)
        h = g._sh_closure(pick.getrandbits(n) & pick.getrandbits(n) & pick.getrandbits(n))
        if h in (0, g._full):  # the bottom quotient is g, the top one empty
            continue
        for b in {g._breaking(h), 0}:
            q = quotient_graph(g, AdmissiblePair._of(g, h, b))
            check_kernel(q, seen)
            kept = g._full & ~h
            seen["quotient"] += 1
            seen["gap vertices"] += len(q.vertices) > kept.bit_count()
            seen["kept over bytes"] += kept.bit_length() > 8 and kept.bit_count() < kept.bit_length()
    assert min(seen.values()) >= 10, seen


def interleaved_graph(rng, kind):
    """9 to 40 vertices: blocks drawn by kind, each linked into the blocks
    before it by a few edges, with the vertex order shuffled, so a mask of
    the kept vertices spans several bytes in several runs."""
    vertices, edges = [], []
    while len(vertices) < 9 or len(vertices) < 32 and rng.random() < 0.5:
        g, k = kind(rng, max_n=8), len(vertices)
        name = {v: f"{v}.{k}" for v in g.vertices}
        edges += [Edge(f"{e.id}.{k}", name[e.src], name[e.rng], e.mult) for e in g.edges]
        for j in range(rng.randint(1, 3) if k else 0):
            src, dst = name[rng.choice(g.vertices)], rng.choice(vertices)
            edges.append(Edge(f"y{j}.{k}", src, dst, rng.choice([1, 2, OMEGA])))
        vertices += name.values()
    rng.shuffle(vertices)
    return Graph(tuple(vertices), tuple(edges))


def test_interleaved_graphs_and_their_quotients_match_the_oracles():
    """Per kind, 5 interleaved graphs with at most 200 pairs, 8 quotients of
    each and 2 quotients of each of those, all through `check_kernel`; the
    pairs met keep gap vertices, range vertices off every cycle, and kept
    vertices spread over several bytes."""
    rng, seen = random.Random(211), Counter()

    def quotient(g, p):
        kept = g._full & ~p._h
        seen["gaps"] += p._range != p._b
        seen["range off cycles"] += bool(p._range & ~g._cyclic)
        seen["kept over bytes"] += kept.bit_length() > 8 and kept.bit_count() < kept.bit_length()
        q = quotient_graph(g, p)
        check_kernel(q, seen)
        return q

    for kind in KINDS:
        big = 0
        while big < 5:
            g = interleaved_graph(rng, kind)
            if len(g._primes) > 12 or len(lat := admissible_pairs(g, limit=40)) > 200:
                continue
            big += 1
            check_kernel(g, seen)
            for p in rng.sample(lat.pairs, min(8, len(lat))):
                pairs = admissible_pairs(quotient(g, p), limit=40).pairs
                for p2 in rng.sample(pairs, min(2, len(pairs))):
                    quotient(p2.graph, p2)
    assert min(seen.values()) >= 10, seen


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_the_constructor_builds_the_edge_tables_and_nothing_lazy(kind, monkeypatch):
    """The walk that validates the edges also stores the index and the edge
    tables; the closure and the adjacency lists wait for a question, in a
    quotient as in any graph, and the first read of the kernel runs the
    closure once."""
    calls = []
    monkeypatch.setattr(graphs, "closure", lambda succ: calls.append(succ) or closure(succ))
    for g in seeded(kind, 50):
        quotients = [quotient_graph(g, p) for p in admissible_pairs(g).pairs[1:]]
        for q in [Graph(g.vertices, g.edges)] + quotients:
            assert {"_index", "_full", "_succ", "_in"} <= q.__dict__.keys()
            lazy = {"_reach", "_comps", "_cyclic", "_one_return", "_tails", "out_edges_by_vertex"}
            assert not lazy & q.__dict__.keys()
            assert q._index == {v: i for i, v in enumerate(q.vertices)}
            assert q._full == (1 << len(q.vertices)) - 1
            assert (q._in.src, q._in.omega, q._in.repeated, q._in.infinite) == in_table(q)
            calls.clear()
            assert (q._one_return, q._cyclic, q._reach, q._comps, q._tails) and calls == [q._succ]


def test_one_return_marks_the_vertices_with_one_first_return_path():
    """Bit v of `_one_return` is set exactly when the brute-force count finds
    one first-return path at v: on seeded graphs of each kind (omega-heavy
    ones included) up to 8 vertices and all their quotients, on each of
    those with every finite bundle split into parallel records, and on the
    empty graph.  Where the mask is 0, (L) holds too."""
    rng, seen = random.Random(231), Counter()
    graphs = [Graph((), ())]
    for kind in KINDS:
        for _ in range(100):
            g = kind(rng, max_n=8)
            graphs += [quotient_graph(g, p) for p in admissible_pairs(g).pairs]
    for g in graphs + [split_records(g) for g in graphs]:
        one = g._one_return
        assert one == g.mask(v for v in g.vertices if brute_first_return_count(g, v) == 1), g
        if not one:
            assert entranceless_cycle_at(g) is None, g
        src, repeated = g._in.src, g._in.repeated
        for c in g._comps:  # a repeated source is all that keeps c from being a bare cycle
            bare = all((src[i] & c).bit_count() == 1 for i in bits(c & g._cyclic))
            seen["repeated"] += bare and any(repeated[i] & c for i in bits(c))
        seen["one return" if one else "none"] += 1
        seen["omega"] += bool(g._in.infinite)
    assert min(seen.values()) >= 500, seen


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
            order = g._prime_order
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
        found = poset.upset_meets(values, full)
        assert all(u == full & ~m for u, m in found)  # each up-set with its own meet
        upsets = [s for s in range(1 << n) if all(up[i] & ~s == 0 for i in bits(s))]
        assert sorted(u for u, _ in found) == upsets


def test_the_prime_rows_are_ordered_once_per_graph(monkeypatch, corpus):
    """The spectrum, the lattice and its JSON export share one prime order."""
    calls = []

    def counting(rows, width):
        calls.append((list(rows), width))
        return subset_order(rows, width)

    for module in (graphs, ideals, spectrum):  # wherever a module binds the name
        if hasattr(module, "subset_order"):
            monkeypatch.setattr(module, "subset_order", counting)
    rng = random.Random(71)
    for g in [corpus["e4"], corpus["e6"]] + [kind(rng, max_n=6) for kind in KINDS]:
        g = Graph(g.vertices, g.edges)  # a fresh copy: nothing cached
        calls.clear()
        prim_space(g)
        lattice_to_json(admissible_pairs(g))
        n = len(g.vertices)
        rows = [h | (h | b) << n for h, b in g._primes]
        assert calls.count((rows, 2 * n)) == 1, g
