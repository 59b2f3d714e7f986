"""Admissible pairs, the ideal lattice, and quotient graphs."""

import io
import json
import pickle
import random
from collections import Counter

import pytest

from graphck import (
    OMEGA,
    AdmissiblePair,
    Edge,
    Graph,
    IdealLattice,
    admissible_pairs,
    breaking_vertices_of,
    classify,
    condition_K,
    condition_L,
    lattice_to_dot,
    lattice_to_json,
    pair_leq,
    prim_space,
    prime_points,
    quotient_graph,
    saturated_hereditary_sets,
)
from graphck.poset import clip

from util import (
    KINDS,
    brute_breaking_vertices_of,
    brute_covers,
    brute_glb,
    brute_is_hereditary,
    brute_is_saturated,
    brute_lub,
    brute_sh_sets,
    first_single_return,
    lattice_to_json_obj,
    pair_join,
    pair_meet,
    pair_order,
    poset_isomorphic,
    random_graph,
    random_looped_graph,
    random_omega_graph,
    ref_join_table,
    ref_labels,
    ref_meet_table,
    reference_report,
    set_key,
    walk_condition_L,
)


def pairs_of(lat):
    return [(p.h, p.b) for p in lat.pairs]


# -- admissible range --------------------------------------------------------------


def test_breaking_candidates_examples(corpus):
    e4 = corpus["e4"]
    assert breaking_vertices_of(e4, frozenset("w")) == {"v"}
    assert breaking_vertices_of(e4, frozenset()) == frozenset()
    for g in (corpus["e1"], corpus["e2"], corpus["e3"], corpus["e5"]):
        assert breaking_vertices_of(g, frozenset()) == frozenset()
    with pytest.raises(ValueError, match="saturated hereditary"):
        breaking_vertices_of(e4, frozenset("v"))


def test_breaking_vertices_against_brute_force():
    rng = random.Random(29)
    graphs = [random_graph(rng, max_n=7) for _ in range(60)]
    graphs += [random_omega_graph(rng, max_n=7) for _ in range(60)]
    graphs += [random_looped_graph(rng, max_n=7) for _ in range(60)]
    nonempty = 0
    for g in graphs:
        for H in saturated_hereditary_sets(g):
            fast = breaking_vertices_of(g, H)
            assert fast == brute_breaking_vertices_of(g, H), (g, H)
            nonempty += bool(fast)
    assert nonempty > 50  # the inputs exercise nonempty ranges, not only empty ones


def test_admissible_pair_validation(corpus):
    e4 = corpus["e4"]
    with pytest.raises(ValueError, match="outside the admissible range"):
        AdmissiblePair(e4, frozenset(), frozenset("v"))
    p = AdmissiblePair(e4, frozenset("w"), frozenset("v"))
    assert p.label == "H={w};B={v}"


def parent_pair_verdict(g, H, B):
    """What constructing the pair (H, B) must do, from the oracles: None to
    accept, else the exception type and message.  An unknown name in H is a
    KeyError; one in B lies outside the admissible range."""
    unknown = [v for v in H if v not in g.vertices]
    if unknown:
        return KeyError, f"unknown vertex {clip(unknown[0])}"
    if not (brute_is_hereditary(g, H) and brute_is_saturated(g, H)):
        return ValueError, f"not a saturated hereditary set: {clip(sorted(H))}"
    extra = sorted(B - brute_breaking_vertices_of(g, H))
    if extra:
        return ValueError, f"B contains vertices outside the admissible range for H: {clip(extra)}"
    return None


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.__name__)
def test_pair_validation_matches_the_oracles(kind):
    """A pair built from names is accepted or refused as the oracles say.
    The library's own pairs, built from masks and not checked, are each the
    pair that the names of their masks build, with the same range."""
    rng = random.Random(131 + KINDS.index(kind))
    verdicts = ["accepted", "unknown in H", "not closed", "range", "unknown in B"]
    seen = dict.fromkeys(verdicts + ["lattice", "prime points", "simple"], 0)
    for _ in range(100):
        g = kind(rng)
        vs = list(g.vertices)
        sh = sorted(brute_sh_sets(g), key=lambda S: set_key(g, S))
        for _ in range(12):
            # H: a saturated hereditary set, or any subset; B: any subset, or
            # the admissible range; either may hold the unknown name "zz"
            if rng.random() < 0.6:
                H = rng.choice(sh)
            else:
                H = frozenset(rng.sample(vs, rng.randint(0, len(vs))))
            if rng.random() < 0.5 and H in sh:
                allowed = sorted(brute_breaking_vertices_of(g, H))
                B = frozenset(rng.sample(allowed, rng.randint(0, len(allowed))))
            else:
                B = frozenset(rng.sample(vs, rng.randint(0, min(2, len(vs)))))
            if rng.random() < 0.1:
                H |= {"zz"}
            if rng.random() < 0.1:
                B |= {"zz"}
            expected = parent_pair_verdict(g, H, B)
            if expected is None:
                p = AdmissiblePair(g, H, B)
                assert (p.h, p.b) == (H, B)
                h, b = g.sort_set(H), g.sort_set(B)
                assert p.label == "H={" + ",".join(h) + "};B={" + ",".join(b) + "}"
                assert p.to_json_obj() == {"H": list(h), "B": list(b)}
                seen["accepted"] += 1
                continue
            error, message = expected
            with pytest.raises(error) as info:
                AdmissiblePair(g, H, B)
            assert type(info.value) is error and info.value.args == (message,)
            if error is KeyError:
                seen["unknown in H"] += 1
            else:
                seen["not closed" if "set:" in message else "range"] += 1
                seen["unknown in B"] += "'zz'" in message
        # an isolated vertex is one more tail: the lattice is not trivial
        for g in (g, Graph(g.vertices + ("zz",), g.edges)):
            simple = classify(g).simple.pair
            for source, pairs in (
                ("lattice", admissible_pairs(g).pairs),
                ("prime points", [pt.pair for pt in prime_points(g)]),
                ("simple", [simple] if simple else []),
            ):
                for p in pairs:
                    q = AdmissiblePair(g, p.h, p.b)
                    assert p == q and hash(p) == hash(q) and p._range == q._range, (g, p)
                    seen[source] += 1
    assert min(seen.values()) >= 20, seen  # every verdict and every source is exercised


def test_pair_is_immutable(corpus):
    p = AdmissiblePair(corpus["e4"], frozenset("w"), frozenset("v"))
    with pytest.raises(AttributeError):
        p.h = frozenset()
    assert p.h == frozenset("w") and p != AdmissiblePair(corpus["e4"], frozenset("w"), frozenset())


# -- lattice enumeration -----------------------------------------------------------


def test_lattice_examples(corpus):
    lat1 = admissible_pairs(corpus["e1"])
    assert pairs_of(lat1) == [(frozenset(), frozenset()), (frozenset("v"), frozenset())]
    assert lat1.leq[0][1] and not lat1.leq[1][0]

    lat4 = admissible_pairs(corpus["e4"])
    assert pairs_of(lat4) == [
        (frozenset(), frozenset()),
        (frozenset("w"), frozenset()),
        (frozenset("w"), frozenset("v")),
        (frozenset("vw"), frozenset()),
    ]
    # total order
    for i in range(4):
        for j in range(4):
            assert lat4.leq[i][j] == (i <= j)

    lat3 = admissible_pairs(corpus["e3"])
    assert pairs_of(lat3) == [(frozenset(), frozenset()), (frozenset("vw"), frozenset())]


def test_lattice_is_only_what_admissible_pairs_returns(corpus):
    """A lattice is not built from a list of pairs; what admissible_pairs
    returns is a value: equal results hash equal and survive pickling."""
    g = corpus["e4"]
    lat = admissible_pairs(g)
    with pytest.raises(TypeError):
        IdealLattice(g, lat.pairs)
    again = admissible_pairs(g)
    assert again is not lat and again == lat and hash(again) == hash(lat)
    lat.meet_table  # a cached table rides along in the pickle
    back = pickle.loads(pickle.dumps(lat))
    assert back == lat and hash(back) == hash(lat)
    assert back.meet_table == again.meet_table and back.covers == again.covers


def reference_tables(pairs):
    """leq and covers of pair_order(pairs), and the reference meet and join
    tables.  Those need a linear extension, which sorting by (|H|, |B|) gives:
    they are taken in that order and mapped back."""
    n = len(pairs)
    ext = sorted(range(n), key=lambda i: (len(pairs[i].h), len(pairs[i].b)))
    at = {i: k for k, i in enumerate(ext)}
    sub = pair_order([pairs[i] for i in ext])
    tables = [
        [[ext[t[at[i]][at[j]]] for j in range(n)] for i in range(n)]
        for t in (ref_meet_table(sub), ref_join_table(sub))
    ]
    order = pair_order(pairs)
    return [list(r) for r in order.leq], list(order.covers), *tables


def test_lattice_tables_match_the_references():
    rng = random.Random(61)
    makers = (random_graph, random_omega_graph, random_looped_graph)
    graphs = [edgeless(6), omega_fan(3)] + [makers[k % 3](rng, 7) for k in range(90)]
    for g in graphs:
        lat = admissible_pairs(g)
        got = [[list(r) for r in lat.leq], list(lat.covers)]
        got += [[list(r) for r in t] for t in (lat.meet_table, lat.join_table)]
        assert got == list(reference_tables(lat.pairs)), g


def test_pair_ops_examples(corpus):
    e4 = corpus["e4"]
    lat = admissible_pairs(e4)
    b0, p_w, p_wv, top = lat.pairs
    assert pair_leq(p_w, p_wv)
    assert pair_meet(p_wv, p_wv) == p_wv
    assert pair_join(b0, p_w) == p_w
    with pytest.raises(ValueError, match="different graphs"):
        pair_leq(b0, admissible_pairs(corpus["e1"]).pairs[0])


def test_lattice_laws_and_oracles(corpus):
    rng = random.Random(47)
    graphs = list(corpus.values()) + [random_graph(rng, max_n=6) for _ in range(40)]
    graphs += [random_omega_graph(rng, max_n=6) for _ in range(20)]
    for g in graphs:
        lat = admissible_pairs(g)
        n = len(lat.pairs)
        if n > 60:
            continue
        leq, meet, join = lat.leq, lat.meet_table, lat.join_table
        assert list(lat.covers) == brute_covers(leq)
        # partial order sanity
        for i in range(n):
            assert leq[i][i]
            for j in range(n):
                assert leq[i][j] == pair_leq(lat.pairs[i], lat.pairs[j])
                if i != j:
                    assert not (leq[i][j] and leq[j][i])
        for i in range(n):
            for j in range(n):
                m = meet[i][j]
                jn = join[i][j]
                assert m == brute_glb(leq, i, j)
                # the closed meet formula agrees with the table
                assert pair_meet(lat.pairs[i], lat.pairs[j]) == lat.pairs[m]
                assert jn == brute_lub(leq, i, j)
                assert pair_join(lat.pairs[i], lat.pairs[j]) == lat.pairs[jn]
                # commutativity
                assert m == meet[j][i] and jn == join[j][i]
                # absorption
                assert meet[i][join[i][j]] == i
                assert join[i][meet[i][j]] == i
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    assert meet[meet[i][j]][k] == meet[i][meet[j][k]]
                    assert join[join[i][j]][k] == join[i][join[j][k]]


def test_pair_order_matches_pair_leq():
    """The prime order on the graph and the lattice's order, each against
    pair_leq on its pairs."""
    rng = random.Random(53)
    makers = (random_graph, random_omega_graph, random_looped_graph)
    sizes = []
    for k in range(150):
        g = makers[k % 3](rng, 7)
        lat = admissible_pairs(g)
        primes = [pt.pair for pt in prim_space(g).points]
        for up, pairs in ((lat._up, lat.pairs), (g._prime_order.up, primes)):
            n = len(pairs)
            assert [[bool(m >> j & 1) for j in range(n)] for m in up] == [
                [pair_leq(p, q) for q in pairs] for p in pairs
            ], g
            sizes.append(n)
    assert Graph((), ())._prime_order.up == ()
    assert max(sizes) > 40


def test_labels_are_the_prime_points_above_each_pair():
    rng = random.Random(67)
    graphs = [edgeless(6), omega_fan(3)]
    graphs += [kind(rng, max_n=7) for _ in range(40) for kind in KINDS]
    for g in graphs:
        lat = admissible_pairs(g)
        assert lat._labels == ref_labels(lat), g


# -- quotient graphs -----------------------------------------------------------------


def test_quotient_bottom_is_identity(corpus):
    for g in corpus.values():
        bottom = AdmissiblePair(g, frozenset(), frozenset())
        assert quotient_graph(g, bottom) is g


def test_quotient_top_is_empty(corpus):
    for g in corpus.values():
        top = AdmissiblePair(g, frozenset(g.vertices), frozenset())
        q = quotient_graph(g, top)
        assert q.vertices == () and q.edges == ()


def test_quotient_e4_full_B(corpus):
    e4 = corpus["e4"]
    q = quotient_graph(e4, AdmissiblePair(e4, frozenset("w"), frozenset("v")))
    assert q.vertices == ("v",)
    assert sorted(e.id for e in q.edges) == ["a", "b"]


def test_quotient_e4_empty_B_keeps_gap(corpus):
    e4 = corpus["e4"]
    q = quotient_graph(e4, AdmissiblePair(e4, frozenset("w"), frozenset()))
    assert q.vertices == ("v", "v~")
    loops = [e for e in q.edges if e.src == "v" and e.rng == "v"]
    gap = [e for e in q.edges if e.src == "v~"]
    assert len(loops) == 2 and len(gap) == 1
    assert gap[0].rng == "v" and gap[0].mult == 1


def test_quotient_gap_name_may_match_a_name_in_h():
    # a~ lies in H and the gap vertex of a takes the free name a~ too: the
    # edges kept are those with a source outside H, not those whose source
    # carries a name of the quotient
    g = Graph(("a~", "a", "x"), (Edge("e0", "a~", "a", OMEGA), Edge("e1", "x", "a", 1)))
    q = quotient_graph(g, AdmissiblePair(g, frozenset(["a~"]), frozenset()))
    assert q.vertices == ("a", "x", "a~")
    assert q.edges == (Edge("e1", "x", "a", 1), Edge("e~a", "a~", "a", 1))


def test_quotient_gap_names_step_past_taken_names():
    # the gap vertex of v and its edge would be v~ and e~v, both taken by
    # kept ones: they become v~~ and e~v~
    g = Graph(("h", "v", "v~"), (Edge("f", "h", "v", OMEGA), Edge("e~v", "v~", "v", 1)))
    q = quotient_graph(g, AdmissiblePair(g, frozenset("h"), frozenset()))
    assert q.vertices == ("v", "v~", "v~~")
    assert q.edges == (Edge("e~v", "v~", "v", 1), Edge("e~v~", "v~~", "v", 1))
    fresh = Graph(q.vertices, q.edges)
    kernel = ("_succ", "_in", "_reach", "_comps", "_cyclic", "_tails", "_breakers", "_primes")
    assert [getattr(q, k) for k in kernel] == [getattr(fresh, k) for k in kernel]
    assert classify(q) == reference_report(fresh)
    assert condition_L(q) == walk_condition_L(fresh)
    assert condition_K(q) == first_single_return(fresh)


def tilde_names(rng, g):
    """g with its vertices renamed to a letter plus ~s ("a", "a~", "a~~", ...,
    shuffled) and its edge ids to e~ plus a vertex name plus ~s, so that
    the gap names and gap edge ids of its quotients step past taken ones,
    often more than once."""
    counts, names = Counter(), []
    for _ in g.vertices:
        base = rng.choice("ab")
        names.append(base + "~" * counts[base])
        counts[base] += 1
    rng.shuffle(names)
    name, edges = dict(zip(g.vertices, names)), []
    for e in g.edges:
        eid = "e~" + rng.choice(names)
        while eid in {f.id for f in edges}:
            eid += "~"
        edges.append(Edge(eid, name[e.src], name[e.rng], e.mult))
    return Graph(tuple(names), tuple(edges))


def test_quotients_equal_their_validated_copies():
    """A quotient other than the bottom one is built unchecked
    (`Graph._of`).  On seeded graphs of every kind, and on each renamed by
    `tilde_names`, every such quotient passes the validating constructor
    and equals the graph it builds, tables included."""
    rng, seen = random.Random(151), Counter()
    tables = ("_index", "_full", "_succ", "_in")
    for kind in KINDS:
        for _ in range(150):
            g = kind(rng)
            for g in (g, tilde_names(rng, g)):
                for p in admissible_pairs(g).pairs[1:]:
                    q = quotient_graph(g, p)
                    fresh = Graph(q.vertices, q.edges)
                    assert q == fresh, (g, p)
                    assert [getattr(q, k) for k in tables] == [getattr(fresh, k) for k in tables]
                    # the gap edges come last, one per vertex added
                    added = len(q.vertices) - (g._full & ~p._h).bit_count()
                    gaps = q.edges[len(q.edges) - added :]
                    seen["quotients"] += 1
                    seen["with gaps"] += bool(gaps)
                    seen["name stepped twice"] += any(len(e.src) - len(e.rng) > 2 for e in gaps)
                    seen["id stepped twice"] += any(len(e.id) - len(e.rng) > 3 for e in gaps)
    assert min(seen.values()) >= 20, seen


def test_quotient_interval_isomorphism(corpus):
    """The lattice of a quotient matches the upper interval of the pair."""
    for g in corpus.values():
        lat = admissible_pairs(g)
        for p in lat.pairs:
            q = quotient_graph(g, p)
            qlat = admissible_pairs(q)
            interval = [r for r in lat.pairs if pair_leq(p, r)]
            k = len(interval)
            assert len(qlat.pairs) == k
            sub = [
                [pair_leq(interval[i], interval[j]) for j in range(k)]
                for i in range(k)
            ]
            assert poset_isomorphic(sub, [list(row) for row in qlat.leq])


def test_quotient_interval_isomorphism_random():
    """The interval property again, over random graphs with omega edges."""
    rng = random.Random(987654)
    checked = 0
    for _ in range(150):
        g = random_graph(rng, max_n=6)
        lat = admissible_pairs(g)
        if len(lat) > 40:
            continue
        for p in lat.pairs:
            q = quotient_graph(g, p)
            qlat = admissible_pairs(q)
            interval = [r for r in lat.pairs if pair_leq(p, r)]
            k = len(interval)
            sub = [
                [pair_leq(interval[i], interval[j]) for j in range(k)]
                for i in range(k)
            ]
            assert len(qlat) == k
            assert poset_isomorphic(sub, [list(row) for row in qlat.leq])
            checked += 1
    assert checked > 300


def test_iterated_quotients_compose(corpus):
    """A quotient of a quotient matches the doubly-restricted interval."""
    for g in corpus.values():
        lat = admissible_pairs(g)
        for p in lat.pairs:
            q_graph = quotient_graph(g, p)
            qlat = admissible_pairs(q_graph)
            for p2 in qlat.pairs:
                q2 = quotient_graph(q_graph, p2)
                q2lat = admissible_pairs(q2)
                inner = [r for r in qlat.pairs if pair_leq(p2, r)]
                k = len(inner)
                sub = [
                    [pair_leq(inner[i], inner[j]) for j in range(k)] for i in range(k)
                ]
                assert len(q2lat.pairs) == k
                assert poset_isomorphic(sub, [list(row) for row in q2lat.leq])


def test_empty_graph_degenerate_corner():
    from graphck import Graph, classify, prim_space

    g = Graph((), ())
    lat = admissible_pairs(g)
    assert len(lat) == 1
    assert quotient_graph(g, lat.pairs[0]) is g
    r = classify(g)
    assert r.aperiodic and r.residually_aperiodic
    assert len(prim_space(g)) == 0


def test_quotient_rejects_foreign_pair(corpus):
    p = AdmissiblePair(corpus["e1"], frozenset(), frozenset())
    with pytest.raises(ValueError, match="does not belong"):
        quotient_graph(corpus["e4"], p)


# -- exports --------------------------------------------------------------------------


def test_dot_export_shapes(corpus):
    dot = lattice_to_dot(admissible_pairs(corpus["e4"]))
    assert dot.startswith("digraph ideal_lattice {")
    assert '"H={w};B={}" -> "H={w};B={v}";' in dot
    assert dot.count("->") == 3


def test_json_export_is_self_consistent(corpus):
    obj = json.loads(lattice_to_json(admissible_pairs(corpus["e4"])))
    assert [p["H"] for p in obj["pairs"]] == [[], ["w"], ["w"], ["v", "w"]]
    assert obj["meet"][2][1] == 1 and obj["join"][1][2] == 2


def edgeless(n):
    return Graph(tuple(f"v{i}" for i in range(n)), ())


def omega_fan(k):
    """Hub w, sources u_i, receivers v_i; u_i -> v_i (omega), w -> v_i (1)."""
    edges = [Edge(f"a{i}", f"u{i}", f"v{i}", OMEGA) for i in range(k)]
    edges += [Edge(f"b{i}", "w", f"v{i}", 1) for i in range(k)]
    return Graph(("w",) + tuple(f"u{i}" for i in range(k)) + tuple(f"v{i}" for i in range(k)),
                 tuple(edges))


def test_json_writer_matches_the_encoder():
    rng = random.Random(59)
    graphs = [Graph((), ())]  # one pair: covers is []
    graphs += [edgeless(n) for n in range(1, 9)] + [omega_fan(k) for k in range(1, 4)]
    graphs += [random_graph(rng, max_n=8) for _ in range(40)]
    graphs += [random_omega_graph(rng, max_n=8) for _ in range(20)]
    graphs += [random_looped_graph(rng, max_n=6) for _ in range(10)]
    # names the encoder escapes: quote, backslash, control and non-ASCII characters
    odd = ('q"uote', "back\\slash", "t\tab", "caf\u00e9", "\u65e5\u672c", "\U0001f600")
    escaped = Graph(odd, tuple(Edge(f"e{i}", odd[i], odd[i + 1], OMEGA) for i in range(5)))
    graphs.append(escaped)
    # OMEGA chains of n vertices have n + 1 pairs: a leq row of 9..16 cells
    # ends in every partial byte, and in a whole one
    for n in range(8, 16):
        vs = tuple(f"v{i}" for i in range(n))
        graphs.append(Graph(vs, tuple(Edge(f"e{i}", vs[i], vs[i + 1], OMEGA) for i in range(n - 1))))
    sizes = set()
    for g in graphs:
        lat = admissible_pairs(g)
        sizes.add(len(lat))
        text = lattice_to_json(lat)
        assert text == json.dumps(lattice_to_json_obj(lat), indent=2) + "\n", g
        out = io.StringIO()
        assert lattice_to_json(lat, out) is None
        assert out.getvalue() == text, g
    assert len(admissible_pairs(escaped)) > 4
    assert {p % 8 for p in sizes if p > 8} == set(range(8))


def test_lattice_json_builds_no_tables():
    """The writer renders the tables from the labels and the up-sets: it
    caches none of them, and reading them before or after it changes
    neither its text nor the tables."""
    rng = random.Random(67)
    # of 20 seeded omega graphs, the one with the most pairs that break a vertex
    heavy = max(
        (random_omega_graph(rng, max_n=7, min_n=6) for _ in range(20)),
        key=lambda g: sum(1 for p in admissible_pairs(g).pairs if p.b),
    )
    assert sum(1 for p in admissible_pairs(heavy).pairs if p.b) > 4
    for g in (edgeless(6), heavy):
        lat = admissible_pairs(g)
        text = lattice_to_json(lat)
        assert not {"leq", "meet_table", "join_table"} & lat.__dict__.keys(), g
        got = [[list(r) for r in lat.leq], list(lat.covers)]
        got += [[list(r) for r in t] for t in (lat.meet_table, lat.join_table)]
        assert got == list(reference_tables(lat.pairs)), g
        assert lattice_to_json(lat) == text
        read_first = admissible_pairs(g)
        read_first.leq, read_first.meet_table, read_first.join_table
        assert lattice_to_json(read_first) == text
