"""Closure operators, saturated hereditary sets, Conditions (L) and (K)."""

import random
from collections import Counter

import pytest

from graphck import (
    ConditionK,
    Graph,
    admissible_pairs,
    condition_K,
    condition_L,
    cycle_entrances,
    first_return_count,
    is_hereditary,
    is_saturated,
    parse_graph,
    quotient_graph,
    saturated_hereditary_sets,
    saturation,
)

from hypothesis import given, strategies as st

from util import (
    KINDS,
    all_subsets,
    brute_condition_L,
    brute_is_hereditary,
    brute_is_saturated,
    brute_sh_sets,
    edges_by,
    first_single_return,
    graphs,
    hereditary_closure,
    random_graph,
    random_looped_graph,
    random_omega_graph,
    random_strongly_connected_graph,
    walk_condition_L,
)


def random_vertex_set(rng, g):
    return frozenset(v for v in g.vertices if rng.random() < 0.4)


def seeded_graphs():
    """The same 3,000 seeded graphs of each random kind on every call."""
    rng = random.Random(47)
    for kind in (
        random_graph,
        random_omega_graph,
        random_looped_graph,
        random_strongly_connected_graph,
    ):
        for _ in range(3000):
            yield kind(rng)


@given(graphs(), st.data())
def test_closure_laws_property(g, data):
    S = frozenset(data.draw(st.sets(st.sampled_from(g.vertices))))
    H = hereditary_closure(g, S)
    assert S <= H and hereditary_closure(g, H) == H
    assert brute_is_hereditary(g, H)
    sat = saturation(g, H)
    assert brute_is_hereditary(g, sat) and brute_is_saturated(g, sat)
    assert saturation(g, sat) == sat


@given(graphs())
def test_K_implies_L_property(g):
    if condition_K(g).holds:
        assert condition_L(g).holds


# -- saturation ------------------------------------------------------------------


def test_saturation_examples(corpus):
    e3, e4 = corpus["e3"], corpus["e4"]
    with pytest.raises(ValueError, match="not hereditary"):
        saturation(e3, {"w"})
    assert saturation(e3, hereditary_closure(e3, {"v"})) == {"v", "w"}
    assert saturation(e4, {"w"}) == {"w"}


def test_closure_operator_laws():
    rng = random.Random(23)
    for _ in range(80):
        g = random_graph(rng, max_n=8)
        S = random_vertex_set(rng, g)
        T = random_vertex_set(rng, g) | S  # S <= T for monotonicity
        for op in (
            lambda X: hereditary_closure(g, X),
            lambda X: saturation(g, hereditary_closure(g, X)),
        ):
            cS, cT = op(S), op(T)
            assert S <= cS  # extensive
            assert cS <= cT  # monotone
            assert op(cS) == cS  # idempotent
        H = hereditary_closure(g, S)
        assert brute_is_hereditary(g, H)
        assert brute_is_hereditary(g, saturation(g, H))  # saturation keeps heredity
        assert brute_is_saturated(g, saturation(g, H))


def test_predicates_match_brute_force():
    rng = random.Random(29)
    for _ in range(60):
        g = random_graph(rng, max_n=6)
        S = random_vertex_set(rng, g)
        assert is_hereditary(g, S) == brute_is_hereditary(g, S)
        assert is_saturated(g, S) == brute_is_saturated(g, S)


# -- saturated hereditary enumeration ---------------------------------------------


def test_sh_sets_examples(corpus):
    e2, e3, e4 = corpus["e2"], corpus["e3"], corpus["e4"]
    assert saturated_hereditary_sets(e2) == [frozenset(), frozenset("uvw")]
    assert saturated_hereditary_sets(e4) == [
        frozenset(),
        frozenset("w"),
        frozenset("vw"),
    ]
    assert saturated_hereditary_sets(e3) == [frozenset(), frozenset("vw")]


def test_sh_sets_match_brute_force(corpus):
    rng = random.Random(31)
    graphs = list(corpus.values()) + [random_graph(rng, max_n=6) for _ in range(60)]
    for g in graphs:
        fast = saturated_hereditary_sets(g)
        assert set(fast) == brute_sh_sets(g)
        assert len(set(fast)) == len(fast)
        # closed under intersection, the extremes first and last
        assert fast[0] == frozenset() and fast[-1] == frozenset(g.vertices)
        for A in fast:
            for B in fast:
                assert A & B in set(fast)


def test_saturated_hereditary_closure_is_least_sh_superset(corpus):
    rng = random.Random(41)
    makers = (random_graph, random_omega_graph, random_looped_graph)
    graphs = list(corpus.values()) + [makers[i % 3](rng, max_n=6) for i in range(150)]
    for g in graphs:
        sh = sorted(brute_sh_sets(g), key=len)
        for S in all_subsets(g.vertices):
            least = next(H for H in sh if S <= H)
            assert saturation(g, hereditary_closure(g, S)) == least


def test_sh_sets_strongly_connected():
    rng = random.Random(37)
    for _ in range(25):
        g = random_strongly_connected_graph(rng)
        assert saturated_hereditary_sets(g) == [frozenset(), frozenset(g.vertices)]


def test_sh_sets_limit():
    from graphck import LimitExceededError

    g = Graph(tuple(f"v{i}" for i in range(20)), ())
    with pytest.raises(LimitExceededError, match="--limit"):
        saturated_hereditary_sets(g)
    small = Graph(("a", "b", "c"), ())
    with pytest.raises(LimitExceededError):
        saturated_hereditary_sets(small, limit=2)
    assert len(saturated_hereditary_sets(small, limit=3)) == 8


# -- Condition (L) -----------------------------------------------------------------


def test_condition_L_examples(corpus):
    assert condition_L(corpus["e1"]).holds  # each loop is the other's entrance
    res = condition_L(corpus["e2"])
    assert not res.holds
    w = res.witness
    assert w.missing_entrance and w.entrance_edges == ()
    assert w.cycle.is_cycle and len(w.cycle.edge_ids) == 3
    empty = Graph(("a", "b"), ())
    assert condition_L(empty).holds


def test_condition_L_witness_is_entranceless(corpus):
    rng = random.Random(41)
    graphs = list(corpus.values()) + [random_graph(rng, max_n=7) for _ in range(120)]
    for g in graphs:
        res = condition_L(g)
        assert res.holds == brute_condition_L(g)
        if not res.holds:
            cyc = res.witness.cycle
            assert cyc.is_cycle
            assert cycle_entrances(g, cyc) == ()
            ins = edges_by(g, "rng")
            assert all([e.mult for e in ins[v]] == [1] for v in cyc.walk_vertices())
            # witness cycle is simple
            inner = cyc.walk_vertices()[:-1]
            assert len(set(inner)) == len(inner)


def test_condition_L_matches_reference_walk(corpus):
    for g in list(corpus.values()) + list(seeded_graphs()):
        assert condition_L(g) == walk_condition_L(g)  # witness edges and entrances too


def test_condition_L_witness_is_first_vertex_ancestry_not_first_component():
    # a is the first vertex whose ancestors all have in-degree one; they hold
    # the cycle b,c, although the component x,y comes first
    g = parse_graph(
        '{"vertices":["a","x","y","b","c"],"edges":['
        '{"id":"xy","src":"x","rng":"y","mult":1},{"id":"yx","src":"y","rng":"x","mult":1},'
        '{"id":"bc","src":"b","rng":"c","mult":1},{"id":"cb","src":"c","rng":"b","mult":1},'
        '{"id":"ba","src":"b","rng":"a","mult":1}]}'
    )
    res = condition_L(g)
    assert res == walk_condition_L(g)
    assert res.witness.cycle.walk_edge_ids() == ("bc", "cb")


def test_cycle_entrances_on_parallel_loops(corpus):
    e1 = corpus["e1"]
    from graphck import Path

    loop = Path(e1, ("a",))
    ids = [e.id for e in cycle_entrances(e1, loop)]
    assert ids == ["b"]
    two = parse_graph('{"vertices":["v"],"edges":[{"id":"d","src":"v","rng":"v","mult":2}]}')
    loop2 = Path(two, ("d",))
    assert [e.id for e in cycle_entrances(two, loop2)] == ["d"]  # the parallel copy


# -- Condition (K) ------------------------------------------------------------------


def test_condition_K_examples(corpus):
    assert condition_K(corpus["e1"]).holds
    res = condition_K(corpus["e2"])
    assert not res.holds
    assert first_return_count(corpus["e2"], res.witness) == 1
    assert condition_K(corpus["e5"]).holds


def test_K_implies_L(corpus):
    rng = random.Random(43)
    graphs = list(corpus.values()) + [random_graph(rng, max_n=7) for _ in range(150)]
    for g in graphs:
        if condition_K(g).holds:
            assert condition_L(g).holds


def test_condition_K_matches_first_return_definition(corpus):
    for g in list(corpus.values()) + list(seeded_graphs()):
        assert condition_K(g) == first_single_return(g)


@pytest.mark.parametrize(
    "edges, witness",
    [
        ("v v 2", None),  # a double loop
        ("v v omega", None),  # an infinite loop
        ("v v 1\nv v 1", None),  # two loop records
        ("u v 1\nv w 1\nw u 1\nu w 1", None),  # a 3-cycle with a chord
        ("u v 1\nv w 1\nw v 1", "v"),  # a bare 2-cycle with an entrance
        ("v v 2\nu w 1\nw u 1\nv u 1", "u"),  # the looped component comes first
        ("w w 1\nu v 1\nv u 1", "v"),  # the first vertex's component, not the first edge's
    ],
)
def test_condition_K_on_loops_and_chords(edges, witness):
    g = parse_graph("vertex v\nvertex u\nvertex w\n" + edges + "\n", "edgelist")
    assert condition_K(g) == ConditionK(witness is None, witness)
    assert condition_K(g) == first_single_return(g)


def test_K_holds_exactly_when_L_holds_on_every_quotient():
    """The residual identity: (K) holds exactly when (L) holds on the
    quotient by every admissible pair, the bottom pair (g itself) included.
    A third oracle for (K), beside the first-return count and
    `first_single_return`; 400 seeded graphs of each kind."""
    rng, seen = random.Random(41), Counter()
    for kind in KINDS:
        for _ in range(400):
            g = kind(rng)
            quotients = [quotient_graph(g, p) for p in admissible_pairs(g).pairs]
            K = condition_K(g).holds
            assert K == all(condition_L(q).holds for q in quotients), g
            seen["K" if K else "L holds, K fails" if condition_L(g).holds else "L fails"] += 1
    assert min(seen.values()) >= 50, seen
