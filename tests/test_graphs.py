"""Graph model: parsing, multiplicities, reachability, cycles."""

import copy
import io
import json
import pickle
import random
import re
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from graphck import (
    Edge,
    Graph,
    GraphFormatError,
    OMEGA,
    Omega,
    Path,
    admissible_pairs,
    classify,
    first_return_count,
    graph_to_edgelist,
    graph_to_json,
    parse_graph,
    prime_points,
    report_to_json,
    scc_decomposition,
    serialize_graph,
)
from graphck.cli import run
from graphck.graphs import detect_format, mult_to_json
from graphck.poset import clip

from util import (
    KINDS,
    brute_first_return_count,
    copying_cycle_at,
    random_graph,
    random_looped_graph,
    random_omega_graph,
    reach,
    reference_graph_fault,
)


# -- parsing ---------------------------------------------------------------------


def test_parse_e1_json_echo(corpus):
    g = corpus["e1"]
    assert g.vertices == ("v",)
    assert sum(e.mult for e in g.edges) == 2


def test_parse_edgelist_omega_line():
    g = parse_graph("vertex v\nvertex w\nw v omega\n", "edgelist")
    (e,) = g.edges
    assert (e.src, e.rng, e.mult) == ("w", "v", OMEGA)


def test_parse_edgelist_dangling_endpoint():
    with pytest.raises(GraphFormatError, match="line 2.*dangling endpoint"):
        parse_graph("vertex w\nw x 1\n", "edgelist")


def test_parse_edgelist_comments_and_bad_mult():
    g = parse_graph("# a comment\nvertex a\na a 2  # loop\n", "edgelist")
    assert g.edges[0].mult == 2
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_graph("vertex a\na a 0\n", "edgelist")
    with pytest.raises(GraphFormatError, match="line 2"):
        parse_graph("vertex a\na a wommega\n", "edgelist")


@pytest.mark.parametrize("token", ["\u0662", "1_0", "\uff12", "+\u0662"])
def test_edgelist_multiplicity_is_read_in_ascii_digits_only(token):
    # int() reads the Arabic-Indic two, fullwidth two and "1_0" as 2, 2 and 10
    message = f'line 2: multiplicity must be a positive integer or "omega", got {token!r}'
    with pytest.raises(GraphFormatError) as info:
        parse_graph(f"vertex a\na a {token}\n", "edgelist")
    assert str(info.value) == message
    assert parse_graph("vertex a\na a +2\n", "edgelist").edges[0].mult == 2


def test_parse_json_errors():
    with pytest.raises(GraphFormatError, match="dangling endpoint"):
        parse_graph('{"vertices": ["v"], "edges": [{"src":"v","rng":"x","mult":1}]}')
    with pytest.raises(GraphFormatError, match="duplicate id"):
        parse_graph(
            '{"vertices": ["v"], "edges": ['
            '{"id":"e","src":"v","rng":"v","mult":1},'
            '{"id":"e","src":"v","rng":"v","mult":1}]}'
        )
    with pytest.raises(GraphFormatError, match="edge #0.*positive"):
        parse_graph('{"vertices": ["v"], "edges": [{"src":"v","rng":"v","mult":-2}]}')
    with pytest.raises(GraphFormatError, match="missing"):
        parse_graph('{"vertices": ["v"], "edges": [{"src":"v","rng":"v"}]}')
    with pytest.raises(GraphFormatError, match="duplicate id"):
        parse_graph('{"vertices": ["v", "v"], "edges": []}')


# each document's first fault, as _parse_json names it
JSON_FAULTS = [
    ({"vertices": ["v"], "edges": {"e": "v"}}, '"edges": expected a list'),
    ({"vertices": ["v"], "edges": [{"id": 7, "src": "v", "rng": "v", "mult": 1}]},
     "edge #0: id must be a string"),
]


@pytest.mark.parametrize("doc, message", JSON_FAULTS)
def test_parse_json_fault_messages(tmp_path, doc, message):
    text = json.dumps(doc)
    with pytest.raises(GraphFormatError) as info:
        parse_graph(text)
    assert str(info.value) == message
    path = tmp_path / "g.json"
    path.write_text(text)
    for command in ("analyze", "lattice", "spectrum"):
        out, err = io.StringIO(), io.StringIO()
        assert run([command, str(path)], out=out, err=err) == 1
        assert out.getvalue() == "" and err.getvalue() == f"error: {path}: {message}\n"


def test_auto_edge_ids_in_file_order():
    g = parse_graph('{"vertices": ["v"], "edges": [{"src":"v","rng":"v","mult":1}]}')
    assert g.edges[0].id == "e0"


def test_detect_format():
    assert detect_format('  {"vertices": []}') == "json"
    assert detect_format("vertex v\n") == "edgelist"


def test_unknown_graph_formats_raise_value_error(corpus):
    with pytest.raises(ValueError, match="unknown graph format 'xml'"):
        parse_graph(graph_to_json(corpus["e1"]), "xml")
    with pytest.raises(ValueError, match="unknown graph format 'xml'"):
        serialize_graph(corpus["e1"], "xml")


@pytest.mark.parametrize("fmt", ["json", "edgelist"])
def test_round_trip_corpus(corpus, fmt):
    for g in corpus.values():
        canonical = parse_graph(
            graph_to_json(g) if fmt == "json" else graph_to_edgelist(g), fmt
        )
        text = graph_to_json(canonical) if fmt == "json" else graph_to_edgelist(canonical)
        assert parse_graph(text, fmt) == canonical


def test_round_trip_random():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng)
        assert parse_graph(graph_to_json(g), "json") == g
        # edgelist drops ids; reparse is stable from the first reparse on
        once = parse_graph(graph_to_edgelist(g), "edgelist")
        assert parse_graph(graph_to_edgelist(once), "edgelist") == once


# names the edgelist text cannot carry (whitespace, "#", an edge from "vertex"), and plain ones
EDGELIST_NAMES = ["vertex", "a b", "c#d", "tab\there", "#", "line\u2028break", "omega", "v"]


def test_edgelist_round_trip_or_refusal():
    # graph_to_edgelist writes text that parses back to the same vertices and
    # (src, rng, mult) list, or raises naming the first name it cannot write
    rng = random.Random(29)
    outcomes = Counter()
    for k in range(400):
        g = KINDS[k % len(KINDS)](rng)
        pool = EDGELIST_NAMES + [f"u{i}" for i in range(10)]
        name = dict(zip(g.vertices, rng.sample(pool, len(g.vertices))))
        edges = [
            {"src": name[e.src], "rng": name[e.rng], "mult": mult_to_json(e.mult)} for e in g.edges
        ]
        h = parse_graph(json.dumps({"vertices": [name[v] for v in g.vertices], "edges": edges}))
        bad = [v for v in h.vertices if "#" in v or any(c.isspace() for c in v)]
        bad += ["vertex"] if any(e.src == "vertex" for e in h.edges) else []
        try:
            text = graph_to_edgelist(h)
        except ValueError as exc:
            assert bad and str(exc).startswith(f"vertex {clip(bad[0])}: ")
            outcomes["refused"] += 1
            continue
        assert not bad
        back = parse_graph(text, "edgelist")
        assert back.vertices == h.vertices
        assert [(e.src, e.rng, e.mult) for e in back.edges] == [
            (e.src, e.rng, e.mult) for e in h.edges
        ]
        outcomes["kept"] += 1
    assert min(outcomes["refused"], outcomes["kept"]) >= 100, outcomes


# -- the infinite multiplicity ----------------------------------------------------


@given(st.integers(min_value=0, max_value=10**9))
def test_omega_dominates(n):
    # OMEGA is no integer; multiplicities are compared for equality only
    assert OMEGA != n and n != OMEGA


def test_omega_identity():
    assert OMEGA == OMEGA and Omega() is OMEGA
    assert hash(Omega()) == hash(OMEGA)
    assert copy.copy(OMEGA) is OMEGA and copy.deepcopy(OMEGA) is OMEGA


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_pickle_keeps_the_one_omega(corpus, protocol):
    # every multiplicity question asks mult is OMEGA: a second Omega would
    # read as finite to all of them, though its graph compares equal
    g = corpus["e4"]
    edge = next(e for e in g.edges if e.mult is OMEGA)
    assert pickle.loads(pickle.dumps(OMEGA, protocol)) is OMEGA
    assert pickle.loads(pickle.dumps(edge, protocol)).mult is OMEGA
    g1 = pickle.loads(pickle.dumps(g, protocol))
    assert g1 == g and [e.mult is OMEGA for e in g1.edges] == [e.mult is OMEGA for e in g.edges]
    h = Graph(g1.vertices, g1.edges)
    assert h._in == g._in and len(admissible_pairs(h)) == 4 and len(prime_points(h)) == 3
    assert report_to_json(classify(h)) == report_to_json(classify(g))


# -- reachability --------------------------------------------------------------------


def geq(g, v, w) -> bool:
    """v >= w read off the reachability rows: some path runs from w to v."""
    return bool(g._reach[g.index(w)] >> g.index(v) & 1)


def test_geq_examples(corpus):
    e3 = corpus["e3"]
    assert geq(e3, "w", "v")  # the single edge v -> w is the path
    assert not geq(e3, "v", "w")
    for g in corpus.values():
        for v in g.vertices:
            assert geq(g, v, v)
        assert g._reach == tuple(g.mask(r) for r in reach(g).values())
    with pytest.raises(KeyError):
        geq(e3, "v", "nope")


def test_geq_is_a_preorder():
    rng = random.Random(11)
    for _ in range(40):
        g = random_graph(rng, max_n=8)
        vs = g.vertices
        assert g._reach == tuple(g.mask(r) for r in reach(g).values())
        for v in vs:
            assert geq(g, v, v)
        for a in vs:
            for b in vs:
                for c in vs:
                    if geq(g, a, b) and geq(g, b, c):
                        assert geq(g, a, c)


# -- strongly connected components -------------------------------------------------


def test_scc_examples(corpus):
    comps = scc_decomposition(corpus["e2"])
    assert len(comps) == 1 and comps[0].nontrivial and len(comps[0].vertices) == 3

    comps = scc_decomposition(corpus["e3"])
    assert [c.nontrivial for c in comps] == [False, False]

    comps = scc_decomposition(corpus["e4"])
    flags = {c.vertices: c.nontrivial for c in comps}
    assert flags == {("v",): True, ("w",): False}


def test_scc_partition_and_determinism():
    rng = random.Random(3)
    graphs = [random_graph(rng) for _ in range(40)]
    graphs += [random_omega_graph(rng) for _ in range(20)]
    graphs += [random_looped_graph(rng) for _ in range(20)]
    for g in graphs:
        comps = scc_decomposition(g)
        seen = [v for c in comps for v in c.vertices]
        assert sorted(seen) == sorted(g.vertices)
        assert scc_decomposition(g) == comps
        # smallest-member order, members in canonical order
        firsts = [g.index(c.vertices[0]) for c in comps]
        assert firsts == sorted(firsts)
        for c in comps:
            assert list(c.vertices) == sorted(c.vertices, key=g.index)
            loop = any(e.src == e.rng == c.vertices[0] for e in g.edges)
            assert c.nontrivial == (len(c.vertices) > 1 or loop)
        # components agree with mutual reachability, derived independently
        # by the reference search
        r = reach(g)
        comp_of = {v: i for i, c in enumerate(comps) for v in c.vertices}
        for a in g.vertices:
            for b in g.vertices:
                mutual = a in r[b] and b in r[a]
                assert mutual == (comp_of[a] == comp_of[b])


# -- first returns ------------------------------------------------------------------


def test_first_return_examples(corpus):
    assert first_return_count(corpus["e1"], "v") == 2
    for v in corpus["e2"].vertices:
        assert first_return_count(corpus["e2"], v) == 1
    assert first_return_count(corpus["e3"], "v") == 0
    with pytest.raises(KeyError):
        first_return_count(corpus["e1"], "zz")


def test_first_return_pumping():
    # v -> a, a -> a, a -> v: infinitely many first returns at v
    g = parse_graph(
        "vertex v\nvertex a\nv a 1\na a 1\na v 1\n", "edgelist"
    )
    assert first_return_count(g, "v") == 2
    assert first_return_count(g, "v", cap=5) == 5
    # v -> a -> b -> v with b -> a: the third first return has 7 edges,
    # more than twice the vertex count
    g = parse_graph(
        "vertex v\nvertex a\nvertex b\nv a 1\na b 1\nb v 1\nb a 1\n", "edgelist"
    )
    assert first_return_count(g, "v", cap=3) == 3
    assert brute_first_return_count(g, "v", cap=3) == 3


def test_first_return_against_brute_force(corpus):
    rng = random.Random(5)
    graphs = list(corpus.values()) + [
        random_graph(rng, max_n=4, max_edges=7) for _ in range(60)
    ]
    graphs += [random_omega_graph(rng, max_n=6) for _ in range(30)]
    graphs += [random_looped_graph(rng, max_n=6) for _ in range(30)]
    for g in graphs:
        for v in g.vertices:
            for cap in (1, 2, 3):
                assert first_return_count(g, v, cap) == brute_first_return_count(g, v, cap), (
                    graph_to_json(g),
                    v,
                    cap,
                )


def test_first_return_matches_scc_cycles():
    rng = random.Random(13)
    for _ in range(40):
        g = random_graph(rng)
        on_cycle = {
            v for c in scc_decomposition(g) if c.nontrivial for v in c.vertices
        }
        for v in g.vertices:
            assert (first_return_count(g, v) >= 1) == (v in on_cycle)


# -- validation ----------------------------------------------------------------------


def test_omega_text_multiplicity_is_refused():
    # the text reads as a finite multiplicity to every question that asks
    # mult is OMEGA, so a graph holding it would count wrong
    edges = [Edge("e0", "a", "b", "omega"), Edge("e1", "b", "b", 1)]
    with pytest.raises(GraphFormatError) as info:
        Graph(("a", "b"), tuple(edges))
    assert str(info.value) == (
        "edge 'e0': multiplicity must be a positive integer or OMEGA, got the text 'omega'"
    )
    g = Graph(("a", "b"), (replace(edges[0], mult=OMEGA), edges[1]))
    assert len(prime_points(g)) == 3 and len(admissible_pairs(g)) == 4
    assert classify(g).dual_system_topologically_free == "unknown"
    assert parse_graph(graph_to_json(g)) == g


def test_ids_and_endpoints_that_are_not_strings_are_refused():
    # checked before anything hashes them, so an unhashable id is located too
    cases = [
        ((7,), (), "vertex 7: id must be a string"),
        ((["a"],), (), "vertex ['a']: id must be a string"),
        (("a",), (Edge(5, "a", "a"),), "edge 5: id must be a string"),
        (("a",), (Edge(["e"], "a", "a"),), "edge ['e']: id must be a string"),
        (("a",), (Edge("e", 0, "a"),), "edge 'e': src must be a string"),
        (("a",), (Edge("e", "a", {"a"}),), "edge 'e': rng must be a string"),
    ]
    for vertices, edges, message in cases:
        with pytest.raises(GraphFormatError) as info:
            Graph(vertices, edges)
        assert str(info.value) == message


class _Two(int):
    """An int subclass: a valid multiplicity that is not of type int."""


def test_an_int_subclass_multiplicity_prints_as_its_int():
    g = Graph(("a",), (Edge("e0", "a", "a", _Two(2)),))
    assert '"mult": 2\n' in graph_to_json(g)
    assert graph_to_edgelist(g) == "vertex a\na a 2\n"
    assert parse_graph(graph_to_json(g)) == g


def _plant_vertex_fault(rng, vs):
    i = rng.randrange(len(vs))
    rng.choice([
        lambda: vs.insert(rng.randint(i + 1, len(vs)), vs[i]),  # duplicate
        lambda: vs.insert(i, ""),
        lambda: vs.insert(i, f"{vs[i]},x"),
        lambda: vs.insert(i, f"x;{vs[i]}"),
        lambda: vs.insert(i, ";,"),  # the first reserved character in ",;" is named
        lambda: vs.insert(i, 0),  # falsy, yet refused as no string, not as an empty id
        lambda: vs.insert(i, 7),  # not a string
        lambda: vs.insert(i, ["x"]),  # not a string, and unhashable
    ])()


def _plant_edge_fault(rng, es):
    i = rng.randrange(len(es))
    e, fault = es[i], rng.randrange(8)  # 4-7: the multiplicity
    if fault == 0 and i:
        es[i] = replace(e, id=es[rng.randrange(i)].id)
    elif fault == 1:
        es[i] = replace(e, id=rng.choice(["", "a,b", ",", 5, ("x",)]))  # 5 and ("x",): no strings
    elif fault == 2:
        es[i] = replace(e, src=rng.choice(["zz", ["a"]]))  # a list: no string, unhashable
    elif fault == 3:
        es[i] = replace(e, rng=rng.choice(["zz", "", None]))
    elif fault == 4:
        es[i] = replace(e, mult="omega")
    else:  # the last three are valid
        bad = [0, -2, 2.5, True, False, "2", None, _Two(2), 10**40, OMEGA]
        es[i] = replace(e, mult=rng.choice(bad))


def test_validation_matches_the_reference():
    """Every vertex and edge fault, several at once, raises the exception
    the reference raises first, with its message; a graph without one is built."""
    rng = random.Random(77)
    seen = Counter()
    for k in range(1500):
        g = KINDS[k % len(KINDS)](rng)
        vs, es = list(g.vertices), list(g.edges)
        for _ in range(rng.randint(1, 3)):
            if es and rng.random() < 0.6:
                _plant_edge_fault(rng, es)
            else:
                _plant_vertex_fault(rng, vs)
        expected = reference_graph_fault(tuple(vs), tuple(es))
        if expected is None:
            Graph(tuple(vs), tuple(es))
            seen["built"] += 1
            continue
        with pytest.raises(Exception) as info:
            Graph(tuple(vs), tuple(es))
        assert type(info.value) is type(expected) and info.value.args == expected.args
        # the fault kind: the message without its location and the value it names
        seen[re.sub(r"(got|endpoint) .*", r"\1", str(expected).split(": ", 1)[-1])] += 1
    assert len(seen) == 12 and min(seen.values()) >= 20, seen


# -- paths ---------------------------------------------------------------------------


def test_path_validation(corpus):
    e2 = corpus["e2"]
    # traversal u -e0-> v -e1-> w -e2-> u is stored range-first
    p = Path.from_walk(e2, [e2.edges[0], e2.edges[1], e2.edges[2]])
    assert p.edge_ids == ("e2", "e1", "e0")
    assert p.src == "u" and p.rng == "u" and p.is_cycle and len(p.edge_ids) == 3
    assert p.walk_vertices() == ("u", "v", "w", "u")
    with pytest.raises(ValueError, match="compose"):
        Path(e2, ("e0", "e1"))  # wrong order: src(e0)=u != rng(e1)=w
    with pytest.raises(ValueError, match="at least one edge"):
        Path(e2, ())
    with pytest.raises(ValueError, match="unknown edge"):
        Path(e2, ("nope",))


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_cycle_search_matches_the_copying_search(kind):
    rng = random.Random(173 + KINDS.index(kind))
    searched = 0
    for _ in range(150):
        g = kind(rng, 8)
        for v in g.names(g._cyclic):
            assert g._cycle_at(v) == copying_cycle_at(g, v), (g, v)
            searched += 1
    # a 300-cycle: the walk is 300 edges deep when it closes
    n = 300
    ring_edges = tuple(Edge(f"e{i}", f"v{i}", f"v{(i + 1) % n}") for i in range(n))
    ring = Graph(tuple(f"v{i}" for i in range(n)), ring_edges)
    assert ring._cycle_at("v5") == copying_cycle_at(ring, "v5")
    assert searched > 200


def test_graph_is_immutable(corpus):
    with pytest.raises(Exception):
        corpus["e1"].vertices = ()
