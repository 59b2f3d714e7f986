"""Classification verdicts and their witnesses."""

import json
import random
import sys
from collections import Counter

import jsonschema
from graphck import (
    AdmissiblePair,
    CycleWitness,
    Graph,
    SimpleVerdict,
    admissible_pairs,
    breaking_vertices_of,
    classify,
    condition_K,
    condition_L,
    first_return_count,
    is_purely_infinite,
    is_simple,
    maximal_tails,
    parse_graph,
    quotient_graph,
    report_to_json,
    report_to_text,
    saturated_hereditary_sets,
)

from util import (
    DOCS_DIR,
    KINDS,
    bfs_connect,
    first_single_return,
    induced_subgraph,
    random_graph,
    random_looped_graph,
    random_omega_graph,
    reach,
    reference_is_purely_infinite,
    reference_is_simple,
    reference_report,
    reference_report_to_text,
    reference_verdict_json,
    split_records,
    walk_condition_L,
)


def test_classify_e1(corpus):
    r = classify(corpus["e1"])
    assert r.aperiodic and r.residually_aperiodic and r.exact
    assert r.intersection_property and r.residual_intersection
    assert r.ideal_property_of_crossproduct == "yes"
    assert r.dual_system_topologically_free == "yes"
    assert r.simple.verdict == "yes" and r.purely_infinite.verdict == "yes"


def test_classify_e2_witness(corpus):
    r = classify(corpus["e2"])
    assert not r.aperiodic and not r.residually_aperiodic
    assert r.condition_L_witness is not None
    assert r.condition_L_witness.missing_entrance
    assert r.ideal_property_of_crossproduct == "unknown"
    assert r.dual_system_topologically_free == "no"


def test_classify_e5_all_flags(corpus):
    r = classify(corpus["e5"])
    assert r.aperiodic and r.residually_aperiodic
    assert r.simple.verdict == "yes" and r.purely_infinite.verdict == "yes"


def test_classify_omega_graph_abstains_on_dual(corpus):
    assert classify(corpus["e4"]).dual_system_topologically_free == "unknown"


def test_is_simple_examples(corpus):
    assert is_simple(corpus["e1"]).verdict == "yes"
    r2 = is_simple(corpus["e2"])
    assert (r2.verdict, r2.reason_kind) == ("no", "condition_L_fails")
    assert r2.note and "standard" in r2.note
    r4 = is_simple(corpus["e4"])
    assert (r4.verdict, r4.reason_kind) == ("no", "nontrivial_lattice")
    assert (r4.pair.h, r4.pair.b) == (frozenset("w"), frozenset())


def test_is_purely_infinite_examples(corpus):
    assert is_purely_infinite(corpus["e1"]).verdict == "yes"
    assert is_purely_infinite(corpus["e5"]).verdict == "yes"
    r4 = is_purely_infinite(corpus["e4"])
    assert (r4.verdict, r4.reason_kind) == ("no", "tail_vertex_not_fed_by_cycle")
    assert r4.tail == frozenset("vw") and r4.vertex == "w"
    r2 = is_purely_infinite(corpus["e2"])
    assert (r2.verdict, r2.reason_kind) == ("no", "fails_K")


def pi_witnesses(g):
    """The tail witnesses the JSON report lists, or None for a "no"."""
    return classify(g).to_json_obj()["witnesses"]["purely_infinite"]


def test_pi_witnesses_are_auditable(corpus):
    rng = random.Random(71)
    graphs = list(corpus.values()) + [random_graph(rng, max_n=6) for _ in range(60)]
    audited = 0
    for g in graphs:
        witnesses, by_id = pi_witnesses(g), {e.id: e for e in g.edges}
        if witnesses is None:
            continue
        for w in witnesses:
            tail = set(w["tail"])
            assert w["vertex"] in tail
            # the cycle composes, closes and lies in the tail
            cycle = [by_id[eid] for eid in w["cycle"]]
            assert all(a.rng == b.src for a, b in zip(cycle, cycle[1:] + cycle[:1]))
            assert {e.src for e in cycle} <= tail
            # the connecting path really runs from the cycle to the vertex
            cur = cycle[0].src
            for eid in w["path"]:
                assert by_id[eid].src == cur
                cur = by_id[eid].rng
            assert cur == w["vertex"]
            audited += 1
    assert audited > 10


def test_pi_witness_paths_match_a_search_per_vertex():
    # one BFS tree per feeding cycle vertex gives the path that a separate
    # search stopping at each tail vertex finds
    rng = random.Random(72)
    checked = 0
    for k in range(900):
        g = (random_looped_graph if k % 2 else random_graph)(rng)
        by_id = {e.id: e for e in g.edges}
        for w in pi_witnesses(g) or ():
            start = by_id[w["cycle"][0]].src
            assert w["path"] == list(bfs_connect(g, start, w["vertex"]))
            checked += bool(w["path"])
    assert checked > 400


def test_pi_matches_the_interleaved_reference():
    """The mask-first verdict equals the loop that builds witnesses while it
    decides, on seeded graphs of every kind (omega-heavy ones included) and
    on every quotient of each."""
    rng = random.Random(2015)
    seen = Counter()
    for kind in KINDS:
        for _ in range(120):
            g = kind(rng)
            # the bottom pair's quotient is g itself
            for p in admissible_pairs(g).pairs:
                q = quotient_graph(g, p)
                r = is_purely_infinite(q)
                assert r == reference_is_purely_infinite(q)[0], (kind.__name__, q)
                seen[kind.__name__, r.reason_kind] += 1
                seen[r.reason_kind] += 1
    reasons = [None, "fails_K", "tail_vertex_not_fed_by_cycle", "breaking_vertex_gap"]
    assert min(seen[k] for k in reasons) >= 50, seen
    assert all(seen[kind.__name__, None] for kind in KINDS), seen


def test_rendered_pi_witnesses_match_the_reference_rendering():
    """The list the JSON report renders from the kernel masks equals the one
    the interleaved reference builds, with a tuple path per vertex, on seeded
    graphs of every kind (omega-heavy ones included) and on every quotient
    of each."""
    rng = random.Random(2016)
    paths = Counter()
    for kind in KINDS:
        for _ in range(120):
            g = kind(rng)
            for p in admissible_pairs(g).pairs:
                q = quotient_graph(g, p)
                witnesses, (verdict, ref) = pi_witnesses(q), reference_is_purely_infinite(q)
                assert witnesses == (ref if verdict.verdict == "yes" else None), (kind.__name__, q)
                paths[kind.__name__] += sum(bool(w["path"]) for w in witnesses or ())
    # witnesses with a nonempty path, per kind
    assert len(paths) == len(KINDS) and min(paths.values()) >= 50, paths


def test_pi_breaking_gap_clause():
    # omega loop at a single vertex: no gaps anywhere, purely infinite
    oinf = parse_graph(
        '{"vertices":["v"],"edges":[{"id":"l","src":"v","rng":"v","mult":"omega"}]}'
    )
    assert is_purely_infinite(oinf).verdict == "yes"
    assert is_simple(oinf).verdict == "yes"
    # all tails are fed, but v1 keeps a gap over H={v2}: the quotient by
    # (H, empty) has a one-dimensional corner, so the graph is not PI
    g = parse_graph(
        '{"vertices":["v0","v1","v2"],"edges":['
        '{"id":"a","src":"v2","rng":"v2","mult":"omega"},'
        '{"id":"b","src":"v2","rng":"v1","mult":"omega"},'
        '{"id":"c","src":"v0","rng":"v1","mult":1},'
        '{"id":"d","src":"v1","rng":"v0","mult":1},'
        '{"id":"e","src":"v0","rng":"v0","mult":1}]}'
    )
    r = is_purely_infinite(g)
    assert (r.verdict, r.reason_kind) == ("no", "breaking_vertex_gap")
    assert r.vertex == "v1" and r.h_set == frozenset(["v2"])
    assert "gap" in __import__("graphck").report_to_text(
        __import__("graphck").classify(g)
    )


def test_pi_implies_K_and_quotient_persistence(corpus):
    rng = random.Random(73)
    graphs = list(corpus.values()) + [random_graph(rng, max_n=5) for _ in range(40)]
    for g in graphs:
        r = is_purely_infinite(g)
        if r.verdict != "yes":
            continue
        assert condition_K(g).holds
        for p in admissible_pairs(g).pairs:
            assert is_purely_infinite(quotient_graph(g, p)).verdict == "yes"


def test_simple_with_cycle_matches_single_tail_criterion(corpus):
    rng = random.Random(79)
    graphs = list(corpus.values()) + [random_graph(rng, max_n=6) for _ in range(60)]
    for g in graphs:
        if is_simple(g).verdict != "yes":
            continue
        has_cycle = any(first_return_count(g, v) >= 1 for v in g.vertices)
        if not has_cycle:
            continue
        tails, r = maximal_tails(g), reach(g)
        assert tails == [frozenset(g.vertices)]
        assert is_purely_infinite(g).verdict == (
            "yes"
            if all(
                any(v in r[y] for y in g.vertices if first_return_count(g, y) >= 1)
                for v in g.vertices
            )
            else "no"
        )


def test_tail_facts_backing_the_pi_reduction(corpus):
    """Paths from tail vertices stay inside the tail; under (K), first-return
    counts computed inside the tail agree with the ambient ones."""
    rng = random.Random(83)
    graphs = list(corpus.values()) + [random_graph(rng, max_n=6) for _ in range(60)]
    for g in graphs:
        r = reach(g)
        for M in maximal_tails(g):
            for y in M:
                assert r[y] <= M
            if condition_K(g).holds:
                sub = induced_subgraph(g, M)
                for y in M:
                    assert first_return_count(sub, y) == first_return_count(g, y)


def test_edgeless_20_verdicts_are_decided():
    # beyond the enumeration limit, yet every verdict is decided
    g = Graph(tuple(f"v{i}" for i in range(20)), ())
    r = classify(g)
    assert r.aperiodic and r.residually_aperiodic
    assert (r.simple.verdict, r.simple.reason_kind) == ("no", "nontrivial_lattice")
    assert (r.simple.pair.h, r.simple.pair.b) == (frozenset(["v0"]), frozenset())
    pi = r.purely_infinite
    assert (pi.verdict, pi.reason_kind) == ("no", "tail_vertex_not_fed_by_cycle")
    assert (pi.tail, pi.vertex) == (frozenset(["v0"]), "v0")
    assert json.loads(report_to_json(r))["limit_exceeded"] is False


def mixed_graphs(seed: int, count: int):
    """Seeded random, omega-heavy and looped graphs, in turn."""
    rng = random.Random(seed)
    makers = (random_graph, random_omega_graph, random_looped_graph)
    return [makers[i % 3](rng, max_n=7) for i in range(count)]


def test_simple_witness_is_first_nontrivial_sh_set(corpus):
    for g in list(corpus.values()) + mixed_graphs(89, 450):
        V = frozenset(g.vertices)
        nontrivial = [H for H in saturated_hereditary_sets(g) if H and H != V]
        r = is_simple(g)
        if nontrivial:
            assert r.reason_kind == "nontrivial_lattice"
            assert (r.pair.h, r.pair.b) == (nontrivial[0], frozenset())
        else:
            assert r.reason_kind != "nontrivial_lattice"


def test_gap_witness_is_first_sh_set_with_breaking_vertex(corpus):
    hits = 0
    for g in list(corpus.values()) + mixed_graphs(97, 450):
        expected = next(
            (
                (H, g.sort_set(breaking_vertices_of(g, H))[0])
                for H in saturated_hereditary_sets(g)
                if breaking_vertices_of(g, H)
            ),
            None,
        )
        r = is_purely_infinite(g)
        if r.reason_kind == "breaking_vertex_gap":
            hits += 1
            assert expected == (r.h_set, r.vertex)
        elif r.verdict == "yes":
            assert expected is None
    assert hits >= 30  # the looped graphs reach the gap clause often


def test_report_invariants():
    for g in mixed_graphs(101, 300):
        r = classify(g)
        assert r.aperiodic or not r.residually_aperiodic  # (K) implies (L)
        assert r.purely_infinite.verdict != "yes" or r.residually_aperiodic
        assert r.simple.verdict in ("yes", "no")
        assert r.purely_infinite.verdict in ("yes", "no")
        assert r.to_json_obj()["limit_exceeded"] is False


def test_degenerate_graph_verdicts_are_pinned():
    """The empty graph (the quotient by H = V) and one bare vertex: no tail
    or one, so the lattice is trivial and (L) decides simplicity.  The empty
    graph's algebra is zero, which no simple or purely infinite algebra is;
    these pins record today's reports so that a change to them is seen."""
    flags = dict.fromkeys(
        ("aperiodic", "residually_aperiodic", "intersection_property", "residual_intersection"),
        True,
    )
    common = {
        **flags,
        "exact": True,
        "ideal_property_of_crossproduct": "yes",
        "dual_system_topologically_free": "yes",
        "simple": {"verdict": "yes", "reason": None},
        "limit_exceeded": False,
    }
    empty, point = classify(Graph((), ())), classify(Graph(("v",), ()))
    assert json.loads(report_to_json(empty)) == {
        **common,
        "purely_infinite": {"verdict": "yes", "reason": None},
        "witnesses": {"condition_L": None, "condition_K": None, "purely_infinite": []},
    }
    unfed = {"kind": "tail_vertex_not_fed_by_cycle", "tail": ["v"], "vertex": "v"}
    assert json.loads(report_to_json(point)) == {
        **common,
        "purely_infinite": {"verdict": "no", "reason": unfed},
        "witnesses": {"condition_L": None, "condition_K": None, "purely_infinite": None},
    }
    assert report_to_text(empty).splitlines()[-2:] == [
        "simple:                              yes",
        "purely infinite:                     yes",
    ]
    assert report_to_text(point).splitlines()[-2:] == [
        "simple:                              yes",
        "purely infinite:                     no: vertex v in tail {v} is not fed by a cycle",
    ]


def test_report_json_schema(corpus):
    schema = json.loads((DOCS_DIR / "report.schema.json").read_text())
    for g in corpus.values():
        obj = json.loads(report_to_json(classify(g)))
        jsonschema.validate(obj, schema)


def test_report_text_renders(corpus):
    text = report_to_text(classify(corpus["e4"]))
    assert "purely infinite" in text and "not fed by a cycle" in text
    text2 = report_to_text(classify(corpus["e2"]))
    assert "entrance-less cycle" in text2


def graphs_and_splits(seed, n):
    """n seeded random_graph and random_omega_graph graphs, each followed by
    its split_records copy."""
    rng = random.Random(seed)
    for kind in (random_graph, random_omega_graph):
        for _ in range(n // 2):
            g = kind(rng)
            yield g
            yield split_records(g)


def test_classify_decides_L_and_K_once(monkeypatch, corpus):
    # (L) is decided by the one decider condition_L shares, not through it;
    # (K) is read off the kernel mask, never through condition_K
    module = sys.modules["graphck.classify"]
    calls = []
    decide = module.entranceless_cycle_at
    monkeypatch.setattr(module, "entranceless_cycle_at", lambda g: calls.append(g) or decide(g))
    for name in ("condition_L", "condition_K"):
        monkeypatch.setattr(sys.modules["graphck.conditions"], name, None)
        monkeypatch.setattr(module, name, None, raising=False)
    for g in list(corpus.values()) + list(graphs_and_splits(59, 300)):
        calls.clear()
        classify(g)
        assert len(calls) <= 1, calls


def test_classify_fields_match_direct_conditions():
    for g in graphs_and_splits(61, 2000):
        r, L, K = classify(g), condition_L(g), condition_K(g)
        assert (r.aperiodic, r.intersection_property) == (L.holds, L.holds)
        assert r.condition_L_witness == L.witness
        assert (r.residually_aperiodic, r.residual_intersection) == (K.holds, K.holds)
        assert r.condition_K_witness == K.witness


def test_conditions_ignore_how_multiplicities_are_recorded():
    # m parallel records and one record of multiplicity m are the same graph
    rng = random.Random(67)
    for kind in (random_graph, random_omega_graph, random_looped_graph):
        for _ in range(500):
            g = kind(rng)
            split = split_records(g)
            assert condition_K(split) == condition_K(g)
            assert condition_L(split).holds == condition_L(g).holds


def test_is_simple_matches_the_all_components_scan(corpus):
    """The least part of a tail that no other tail holds is the least
    closure of a component."""
    rng = random.Random(223)
    graphs = list(corpus.values()) + [kind(rng, max_n=9) for kind in KINDS for _ in range(400)]
    for g in graphs:
        assert is_simple(g) == reference_is_simple(g)[0]


def test_every_quotient_reports_like_the_references():
    """On every quotient of seeded graphs of each kind, the JSON and text
    reports and (L) and (K) equal the references computed on a fresh copy of
    the quotient, which decides each verdict on its own."""
    rng = random.Random(227)
    seen = Counter()
    for kind in KINDS:
        for _ in range(120):
            g = kind(rng)
            for p in admissible_pairs(g).pairs:
                q = quotient_graph(g, p)
                fresh = Graph(q.vertices, q.edges)
                report, ref = classify(q), reference_report(fresh)
                assert report_to_json(report) == report_to_json(ref)
                assert report_to_text(report) == report_to_text(ref)
                assert condition_L(q) == walk_condition_L(fresh)
                assert condition_K(q) == first_single_return(fresh)
                seen[report.simple.reason_kind, report.purely_infinite.reason_kind] += 1
    # seven (simple, purely infinite) reason pairs occur
    assert len(seen) == 7 and sum(seen.values()) > 5000, seen


def read_witnesses(report) -> tuple:
    """Every witness a report's verdicts stand for, read through the
    properties that build them."""
    s, p = report.simple, report.purely_infinite
    return s.h_mask, s.pair, s.cycle, p.tail, p.h_set, report.condition_L_witness


def test_verdicts_are_decided_without_building_a_witness(monkeypatch):
    """With the witness builders and the search for the simplicity witness
    H patched to raise, `classify` still gives every verdict on 120 seeded
    graphs of each kind (omega-heavy ones included) and on every quotient of
    each, and each report equals the references': equality compares the
    vertex indices and masks the witnesses are built from, but not H, which
    is found on first read.  Unpatched, each witness read from those reports,
    H included, equals the one the references built as they found it, and a
    second read returns the same object."""
    rng = random.Random(229)
    cases = []
    for kind in KINDS:
        for _ in range(120):
            g = kind(rng)
            for p in admissible_pairs(g).pairs:
                q = quotient_graph(g, p)
                fresh = Graph(q.vertices, q.edges)
                ref = reference_report(fresh)
                _, simple_w, h = reference_is_simple(fresh)
                pi_w = reference_is_purely_infinite(fresh)[1]
                pi_kind = ref.purely_infinite.reason_kind
                expected = (
                    h,
                    simple_w if ref.simple.reason_kind == "nontrivial_lattice" else None,
                    simple_w if ref.simple.reason_kind == "condition_L_fails" else None,
                    pi_w if pi_kind == "tail_vertex_not_fed_by_cycle" else None,
                    pi_w if pi_kind == "breaking_vertex_gap" else None,
                    walk_condition_L(fresh).witness,
                )
                cases.append((q, ref, expected))

    def refuse(*args):
        raise AssertionError("a witness was built")

    for owner, name in (
        (AdmissiblePair, "_of"),
        (Graph, "_cycle_at"),
        (CycleWitness, "for_cycle"),
        (Graph, "unmask"),
        (SimpleVerdict.h_mask, "func"),  # the H search
    ):
        monkeypatch.setattr(owner, name, refuse)
    reports = [classify(q) for q, _, _ in cases]
    monkeypatch.undo()
    seen = Counter()
    for report, (q, ref, expected) in zip(reports, cases):
        assert report == ref, q
        assert read_witnesses(report) == expected, q
        assert all(a is b for a, b in zip(read_witnesses(report), read_witnesses(report)))
        seen[report.simple.reason_kind] += 1
        seen[report.purely_infinite.reason_kind] += 1
        seen["condition_L"] += not report.aperiodic
    lazy = ("nontrivial_lattice", "condition_L_fails", "condition_L")
    lazy += ("tail_vertex_not_fed_by_cycle", "breaking_vertex_gap")
    assert min(seen[k] for k in lazy) >= 50, seen


def test_reasons_render_like_the_branch_per_kind_references(corpus):
    """Both verdicts' ``to_json_obj()`` and the text report equal the
    references that choose each reason in a branch of its own, on the corpus
    and on seeded graphs of every kind (omega-heavy ones included) with every
    quotient of each; every reason kind and both "yes" verdicts occur."""
    rng = random.Random(239)
    graphs = list(corpus.values())
    for kind in KINDS:
        for _ in range(120):
            g = kind(rng)
            graphs += [quotient_graph(g, p) for p in admissible_pairs(g).pairs]
    seen = Counter()
    for g in graphs:
        report = classify(g)
        assert report_to_text(report) == reference_report_to_text(report), g
        for v in (report.simple, report.purely_infinite):
            assert v.to_json_obj() == reference_verdict_json(v), g
            seen[type(v).__name__, v.reason_kind or v.verdict] += 1
    kinds = [("SimpleVerdict", k) for k in ("yes", "nontrivial_lattice", "condition_L_fails")]
    kinds += [
        ("PurelyInfiniteVerdict", k)
        for k in ("yes", "fails_K", "tail_vertex_not_fed_by_cycle", "breaking_vertex_gap")
    ]
    assert min(seen[k] for k in kinds) >= 50, seen
