"""Maximal tails, breaking vertices, prime points, the Prim poset."""

import dataclasses
import pickle
import random

import pytest

from graphck import (
    PrimSpace,
    admissible_pairs,
    breaking_vertices,
    is_hereditary,
    is_saturated,
    maximal_tails,
    pair_leq,
    parse_graph,
    prim_space,
    prim_space_to_dot,
    prim_space_to_json,
    prime_points,
)

from util import (
    all_subsets,
    brute_maximal_tails,
    is_maximal_tail,
    meet_of_primes_above,
    random_graph,
    random_looped_graph,
    random_omega_graph,
)


def test_maximal_tails_examples(corpus):
    e4, e2 = corpus["e4"], corpus["e2"]
    assert maximal_tails(e4) == [frozenset("vw"), frozenset("v")]
    assert maximal_tails(e2) == [frozenset("uvw")]
    isolated = corpus["e7"]  # two isolated vertices a, b
    assert maximal_tails(isolated) == [frozenset("a"), frozenset("b")]


def test_maximal_tails_match_brute_force(corpus):
    rng = random.Random(53)
    makers = (random_graph, random_omega_graph, random_looped_graph)
    graphs = list(corpus.values()) + [makers[i % 3](rng, max_n=6) for i in range(240)]
    for g in graphs:
        brute = brute_maximal_tails(g)
        tails = maximal_tails(g)
        assert tails == sorted(brute, key=lambda M: (-len(M), g.mask(M)))
        for M in tails:
            H = frozenset(g.vertices) - M
            assert is_hereditary(g, H) and is_saturated(g, H)
        # every subset, so the sets that are not maximal tails are checked too
        for M in all_subsets(g.vertices):
            assert is_maximal_tail(g, M) == (M in brute)


def test_breaking_vertices_examples(corpus):
    assert breaking_vertices(corpus["e4"]) == ["v"]
    assert breaking_vertices(corpus["e1"]) == []
    # omega loops at v, single edge w -> v: the outside-in count is infinite
    variant = parse_graph(
        '{"vertices": ["v","w"], "edges": ['
        '{"id":"a","src":"v","rng":"v","mult":"omega"},'
        '{"id":"f","src":"w","rng":"v","mult":1}]}'
    )
    assert breaking_vertices(variant) == []


def test_prime_points_examples(corpus):
    pts = prime_points(corpus["e4"])
    assert [(p.kind, p.label) for p in pts] == [
        ("tail", "Tail{v,w}"),
        ("tail", "Tail{v}"),
        ("breaking", "Breaking(v)"),
    ]
    assert [(sorted(p.pair.h), sorted(p.pair.b)) for p in pts] == [
        ([], []),
        (["w"], ["v"]),
        (["w"], []),
    ]
    assert [p.label for p in prime_points(corpus["e1"])] == ["Tail{v}"]
    assert [p.label for p in prime_points(corpus["e3"])] == ["Tail{v,w}"]


def test_prim_space_examples(corpus):
    ps = prim_space(corpus["e4"])
    assert ps.status == "Primitive"
    assert len(ps) == 3
    # chain (emptyset) < ({w},emptyset) < ({w},{v}); bottom closure is everything
    (bottom,) = [i for i in range(3) if all(j in ps.closure_of(i) for j in range(3))]
    assert ps.closure_of(bottom) == (0, 1, 2)

    assert prim_space(corpus["e1"]).status == "Primitive"
    assert len(prim_space(corpus["e1"])) == 1
    ps2 = prim_space(corpus["e2"])
    assert ps2.status == "PrimeOnly" and len(ps2) == 1


def test_prim_space_is_only_what_prim_space_returns(corpus):
    """A space is not built from a list of points, nor copied with other
    points; what prim_space returns is a frozen value: equal results hash
    equal and survive pickling."""
    g = corpus["e4"]
    ps = prim_space(g)
    with pytest.raises(TypeError):
        PrimSpace(g, ps.points, ps.status)
    with pytest.raises(TypeError):
        dataclasses.replace(ps, points=ps.points[::-1])
    with pytest.raises(dataclasses.FrozenInstanceError):
        ps.points = ps.points[::-1]
    again = prim_space(g)
    assert again is not ps and again == ps and hash(again) == hash(ps)
    assert repr(ps) == f"PrimSpace(graph={g!r}, points={ps.points!r}, status='Primitive')"
    ps.covers  # a cached table rides along in the pickle
    back = pickle.loads(pickle.dumps(ps))
    assert back == ps and hash(back) == hash(ps) and back.covers == again.covers
    assert [back.closure_of(i) for i in range(len(back))] == [(0, 1, 2), (1,), (1, 2)]


def test_point_count_formula(corpus):
    rng = random.Random(59)
    graphs = list(corpus.values()) + [random_graph(rng, max_n=6) for _ in range(50)]
    for g in graphs:
        assert len(prime_points(g)) == len(maximal_tails(g)) + len(breaking_vertices(g))


def test_breaking_point_below_matching_tail(corpus):
    rng = random.Random(61)
    graphs = list(corpus.values()) + [random_graph(rng, max_n=6) for _ in range(60)]
    for g in graphs:
        pts = prime_points(g)
        for b in pts:
            if b.kind != "breaking":
                continue
            mates = [
                t for t in pts if t.kind == "tail" and t.pair.h == b.pair.h
            ]
            assert mates, "breaking vertex without its tail"
            for t in mates:
                assert pair_leq(b.pair, t.pair)
                assert (b.pair.h, b.pair.b) != (t.pair.h, t.pair.b)


def test_every_pair_is_meet_of_primes_above(corpus):
    for g in corpus.values():
        pts = prime_points(g)
        for p in admissible_pairs(g).pairs:
            assert meet_of_primes_above(g, p, pts) == p


def test_specialization_antisymmetric(corpus):
    rng = random.Random(67)
    graphs = list(corpus.values()) + [random_graph(rng, max_n=5) for _ in range(40)]
    for g in graphs:
        ps = prim_space(g)
        n = len(ps)
        for i in range(n):
            assert i in ps.closure_of(i)
            for j in range(n):
                if i != j:
                    assert not (j in ps.closure_of(i) and i in ps.closure_of(j))


def test_exports(corpus):
    import json

    dot = prim_space_to_dot(prim_space(corpus["e4"]))
    assert dot.count("->") == 2  # 3-node chain has two covers
    obj = json.loads(prim_space_to_json(prim_space(corpus["e4"])))
    assert obj["status"] == "Primitive"
    assert [pt["label"] for pt in obj["points"]] == [
        "Tail{v,w}",
        "Tail{v}",
        "Breaking(v)",
    ]
    assert obj["points"][0]["closure"] == [0, 1, 2]
