"""Shared test helpers: brute-force oracles and seeded random generators.

The oracles deliberately re-derive everything from the raw definitions
(reachability double loops, full subset enumeration, bounded walk DFS) so
they stay independent of the package's optimized code paths.
"""

from __future__ import annotations

import itertools
import random
import re
import sys
from dataclasses import replace
from pathlib import Path as FsPath

from hypothesis import strategies as st

from graphck import (
    ActionFormatError,
    AdmissiblePair,
    ClassificationReport,
    ConditionK,
    ConditionL,
    CycleWitness,
    Decomposition,
    Edge,
    FinitePartialAction,
    FiniteT0Space,
    Graph,
    OMEGA,
    PartialHomeo,
    Path,
    PurelyInfiniteVerdict,
    SimpleVerdict,
    first_return_count,
    maximal_tails,
    pair_leq,
    parse_graph,
)
from graphck.actions import Violation, WitnessCheck, _reduce
from graphck.classify import _EXTERNAL_L_NOTE
from graphck.graphs import GraphFormatError, Omega
from graphck.poset import Poset, bits, clip, subset_order, union
from graphck.poset import closure as reach_closure

REPO = FsPath(__file__).resolve().parent.parent
CORPUS_DIR = REPO / "corpus"
DOCS_DIR = REPO / "docs"

CORPUS_NAMES = ["e1", "e2", "e3", "e4", "e5", "e6", "e7"]


def load_corpus() -> dict[str, Graph]:
    out = {}
    for name in CORPUS_NAMES:
        out[name] = parse_graph((CORPUS_DIR / f"{name}.json").read_text())
    return out


# -- graph oracles ---------------------------------------------------------------
#
# Every oracle reads only g.vertices and g.edges, through `edges_by` and
# `reach`.


def reach(g: Graph) -> dict[str, frozenset[str]]:
    """The vertices reachable from each vertex, itself included, by a search
    along g.edges: v >= w exactly when v is in reach(g)[w]."""
    succ, out = edges_by(g, "src"), {}
    for v in g.vertices:
        seen, stack = {v}, [v]
        while stack:
            for e in succ[stack.pop()]:
                if e.rng not in seen:
                    seen.add(e.rng)
                    stack.append(e.rng)
        out[v] = frozenset(seen)
    return out


def edges_by(g: Graph, end: str) -> dict[str, list[Edge]]:
    """The edges at each vertex, in edge order: out-edges for end "src",
    in-edges for end "rng"."""
    out = {v: [] for v in g.vertices}
    for e in g.edges:
        out[getattr(e, end)].append(e)
    return out


def finitely_fed(edges) -> bool:
    """The edges carry finite nonzero total multiplicity."""
    return bool(edges) and all(e.mult != OMEGA for e in edges)


def brute_is_hereditary(g: Graph, S) -> bool:
    """Every vertex that reaches a member of S lies in S."""
    return hereditary_closure(g, S) == frozenset(S)


def forced(g: Graph, S) -> set[str]:
    """The vertices outside S of finite nonzero in-degree with every source in S."""
    ins = edges_by(g, "rng").items()
    return {v for v, es in ins if v not in S and finitely_fed(es) and all(e.src in S for e in es)}


def brute_is_saturated(g: Graph, S) -> bool:
    return not forced(g, frozenset(S))


def hereditary_closure(g: Graph, S) -> frozenset[str]:
    """Smallest hereditary superset of S: every vertex that reaches S."""
    S, r = frozenset(S), reach(g)
    return frozenset(w for w in g.vertices if r[w] & S)


def round_closure(g: Graph, S) -> frozenset[str]:
    """Least saturated hereditary superset of S, round by round: its
    ancestors, then every forced vertex until a round forces none (a forced
    vertex keeps the set hereditary: its sources are inside).  The package
    reads it off the maximal tails instead."""
    S = hereditary_closure(g, S)
    while new := forced(g, S):
        S |= new
    return S


def induced_subgraph(g: Graph, vs) -> Graph:
    """Subgraph on vs, keeping vertex order, edge order and edge ids."""
    keep = set(vs)
    for v in keep:
        g.index(v)
    return Graph(
        vertices=tuple(v for v in g.vertices if v in keep),
        edges=tuple(e for e in g.edges if e.src in keep and e.rng in keep),
    )


def pair_meet(p: AdmissiblePair, q: AdmissiblePair) -> AdmissiblePair:
    """The meet by its closed formula (H & H', (H & B') | (B & H') | (B & B'))."""
    h = p.h & q.h
    b = (p.h & q.b) | (p.b & q.h) | (p.b & q.b)
    return AdmissiblePair(p.graph, h, b)


def pair_join(p: AdmissiblePair, q: AdmissiblePair) -> AdmissiblePair:
    """The least pair above p and q.

    Its H holds p.h | q.h.  A vertex of p.b | q.b outside H that does not
    break over H receives no edge from outside H, nor from outside any larger
    H, so it cannot sit in any B above and must join H.
    """
    g, b = p.graph, p.b | q.b
    h = round_closure(g, p.h | q.h)
    while stray := b - h - brute_breaking_vertices_of(g, h):
        h = round_closure(g, h | stray)
    return AdmissiblePair(g, h, b - h)


def meet_of_primes_above(g: Graph, p: AdmissiblePair, points) -> AdmissiblePair:
    """Fold the meet over all prime pairs above p; empty fold gives the top."""
    acc = AdmissiblePair(g, frozenset(g.vertices), frozenset())
    for pt in points:
        if pair_leq(p, pt.pair):
            acc = pair_meet(acc, pt.pair)
    return acc


def all_subsets(items):
    items = list(items)
    for r in range(len(items) + 1):
        yield from (frozenset(c) for c in itertools.combinations(items, r))


def brute_sh_sets(g: Graph) -> set[frozenset]:
    r = reach(g)
    hereditary = (S for S in all_subsets(g.vertices) if all(w in S for w in g.vertices if r[w] & S))
    return {S for S in hereditary if brute_is_saturated(g, S)}


def brute_breaking_vertices_of(g: Graph, H) -> frozenset[str]:
    """Infinite receivers outside H fed finitely (but not zero) from outside H,
    read off the in-edge multiplicities."""
    H = frozenset(H)
    if not (brute_is_hereditary(g, H) and brute_is_saturated(g, H)):
        raise ValueError(f"not a saturated hereditary set: {sorted(H)}")
    out = []
    for v, ins in edges_by(g, "rng").items():
        outside = [e for e in ins if e.src not in H]
        if v not in H and any(e.mult == OMEGA for e in ins) and finitely_fed(outside):
            out.append(v)
    return frozenset(out)


def set_key(g: Graph, S) -> tuple[int, int]:
    """Canonical sort key for vertex sets: by size, then by the bitmask whose
    bit i is g.vertices[i]."""
    return len(S), sum(1 << g.vertices.index(v) for v in S)


def brute_pairs(g: Graph) -> list[tuple[frozenset, frozenset]]:
    """Every (H, B) with H saturated hereditary and B a subset of its breaking
    range, by scanning all subsets, in canonical (set_key H, set_key B) order."""
    pairs = [
        (H, B)
        for H in brute_sh_sets(g)
        for B in all_subsets(brute_breaking_vertices_of(g, H))
    ]
    return sorted(pairs, key=lambda p: (set_key(g, p[0]), set_key(g, p[1])))


def reference_graph_fault(vertices, edges) -> BaseException | None:
    """The exception Graph(vertices, edges) raises, or None: its checks in
    their order, each diagnostic formatted up front.  Two rules are new: an
    edge's multiplicity may not be the text "omega", only OMEGA; and every
    id and endpoint must be a string, checked before anything hashes it."""
    seen = set()
    for v in vertices:
        if not isinstance(v, str):
            return GraphFormatError(f"vertex {clip(v)}: id must be a string")
        if v in seen:
            return GraphFormatError(f"vertex {clip(v)}: duplicate id")
        if not v:
            return GraphFormatError(f"vertex {clip(v)}: empty id")
        reserved = [c for c in ",;" if c in v]
        if reserved:
            return GraphFormatError(f"vertex {clip(v)}: reserved character {reserved[0]!r} in id")
        seen.add(v)
    eids = set()
    for e in edges:
        where = f"edge {clip(e.id)}"
        for key, value in (("id", e.id), ("src", e.src), ("rng", e.rng)):
            if not isinstance(value, str):
                return GraphFormatError(f"{where}: {key} must be a string")
        if e.id in eids:
            return GraphFormatError(f"{where}: duplicate id")
        if not e.id:
            return GraphFormatError(f"{where}: empty id")
        if "," in e.id:
            return GraphFormatError(f"{where}: reserved character ',' in id")
        eids.add(e.id)
        for endpoint in (e.src, e.rng):
            if endpoint not in seen:
                return GraphFormatError(f"{where}: dangling endpoint {clip(endpoint)}")
        m = e.mult
        if m == "omega":
            return GraphFormatError(
                f"{where}: multiplicity must be a positive integer or OMEGA, got the text 'omega'"
            )
        if isinstance(m, Omega):
            continue
        if isinstance(m, bool) or not isinstance(m, int):
            return GraphFormatError(
                f"{where}: multiplicity must be a positive integer or \"omega\", got {clip(m)}"
            )
        if m <= 0:
            return GraphFormatError(f"{where}: multiplicity must be positive, got {clip(m)}")
    return None


def reference_is_purely_infinite(
    g: Graph,
) -> tuple[PurelyInfiniteVerdict, list[dict] | frozenset[str] | None]:
    """Pure infiniteness by the loop that decides the verdict while it builds
    the witnesses: per maximal tail and member v, in order, a cycle at the
    first cycle vertex of the tail feeding v and its BFS-tree path to v, one
    cycle and tree per feeding vertex; then the gap clause.  Returns the
    verdict and its witness, built as the loop meets it: for a "yes" the
    witnesses as the JSON report lists them, for a "no" the name set of the
    unfed vertex's tail or of H (None on a (K) failure, whose witness is the
    verdict's vertex)."""
    K = first_single_return(g)
    if not K.holds:
        return PurelyInfiniteVerdict("no", "fails_K", vertex=K.witness), None
    r, witnesses, cycles, trees = reach(g), [], {}, {}
    for M, m in zip(maximal_tails(g), g._tails):
        on_cycle = g._cyclic & m
        for i in bits(m):
            v = g.vertices[i]
            fed_by = on_cycle & g.mask(w for w in g.vertices if v in r[w])
            if not fed_by:
                verdict = PurelyInfiniteVerdict(
                    "no", "tail_vertex_not_fed_by_cycle", v, g, tail_mask=g.mask(M)
                )
                return verdict, M
            y = g.vertices[next(bits(fed_by))]
            if y not in trees:
                cycles[y], trees[y] = copying_cycle_at(g, y), bfs_paths(g, y)
            witnesses.append(
                {
                    "tail": list(g.names(m)),
                    "vertex": v,
                    "cycle": list(cycles[y].walk_edge_ids()),
                    "path": list(trees[y][v]),
                }
            )
    gap_sets = []
    for i, omega_src in enumerate(g._in.omega):
        if omega_src:
            h = g._sh_closure(omega_src)
            if g._breaking(h) >> i & 1:
                gap_sets.append(h)
    if gap_sets:
        h = min(gap_sets, key=lambda m: (m.bit_count(), m))
        gap = g.vertices[next(bits(g._breaking(h)))]
        H = frozenset(v for i, v in enumerate(g.vertices) if h >> i & 1)
        return PurelyInfiniteVerdict("no", "breaking_vertex_gap", gap, g, h_mask=h), H
    return PurelyInfiniteVerdict("yes"), witnesses


def reference_is_simple(g: Graph) -> tuple[SimpleVerdict, AdmissiblePair | Path | None, int | None]:
    """Simplicity by the least closure over every component, not only the
    source components whose tails `is_simple` reads; then (L) by the
    reference walk.  Returns the verdict, built without H, its witness,
    built as it is found (the pair, from the names of H, or the walk's
    cycle), and the mask of H (None unless the lattice is nontrivial)."""
    if len(g._tails) > 1:
        h = g._full
        for c in g._comps:
            m = g._sh_closure(c)
            if (m.bit_count(), m) < (h.bit_count(), h):
                h = m
        pair = AdmissiblePair(g, [v for i, v in enumerate(g.vertices) if h >> i & 1], ())
        return SimpleVerdict("no", "nontrivial_lattice", g), pair, h
    L = walk_condition_L(g)
    if not L.holds:
        cycle = L.witness.cycle
        verdict = SimpleVerdict(
            "no", "condition_L_fails", g, cycle_at=g.index(cycle.src), note=_EXTERNAL_L_NOTE
        )
        return verdict, cycle, None
    return SimpleVerdict("yes"), None, None


def first_single_return(g: Graph) -> ConditionK:
    """Condition (K) from its definition: the first vertex with exactly one
    first-return path."""
    for v in g.vertices:
        if first_return_count(g, v) == 1:
            return ConditionK(False, v)
    return ConditionK(True)


def reference_report(g: Graph) -> ClassificationReport:
    """`classify` from the references, each verdict decided on its own: (L)
    by the walk, (K) by first-return counts, simplicity by the scan over
    every component, pure infiniteness by the interleaved loop."""
    L, K = walk_condition_L(g), first_single_return(g)
    return ClassificationReport(
        graph=g,
        aperiodic=L.holds,
        residually_aperiodic=K.holds,
        intersection_property=L.holds,
        residual_intersection=K.holds,
        exact=True,
        ideal_property_of_crossproduct="yes" if K.holds else "unknown",
        dual_system_topologically_free="unknown" if g._in.infinite else "yes" if L.holds else "no",
        simple=reference_is_simple(g)[0],
        purely_infinite=reference_is_purely_infinite(g)[0],
        condition_L_cycle_at=None if L.holds else g.index(L.witness.cycle.src),
        condition_K_witness=K.witness,
    )


def reference_verdict_json(v: SimpleVerdict | PurelyInfiniteVerdict) -> dict:
    """A verdict's ``to_json_obj()`` with each reason chosen in a branch of
    its own per ``reason_kind``, read from the verdict's witnesses and
    masks: the reference for the verdicts' single ``reason``."""
    obj: dict = {"verdict": v.verdict}
    if v.reason_kind == "nontrivial_lattice":
        obj["reason"] = {"kind": v.reason_kind, "pair": v.pair.to_json_obj()}
    elif v.reason_kind == "condition_L_fails":
        obj["reason"] = {
            "kind": v.reason_kind,
            "cycle": list(v.cycle.walk_edge_ids()),
            "note": v.note,
        }
    elif v.reason_kind == "fails_K":
        obj["reason"] = {"kind": v.reason_kind, "vertex": v.vertex}
    elif v.reason_kind == "tail_vertex_not_fed_by_cycle":
        obj["reason"] = {
            "kind": v.reason_kind,
            "tail": list(v.graph.names(v.tail_mask)),
            "vertex": v.vertex,
        }
    elif v.reason_kind == "breaking_vertex_gap":
        obj["reason"] = {
            "kind": v.reason_kind,
            "H": list(v.graph.names(v.h_mask)),
            "vertex": v.vertex,
        }
    else:
        obj["reason"] = None
    return obj


def reference_report_to_text(report: ClassificationReport) -> str:
    """`report_to_text` with each verdict line chosen in a branch of its own
    per ``reason_kind``, read from the verdict's witnesses and masks."""
    g = report.graph

    def mark(b: bool) -> str:
        return "yes" if b else "no"

    lines = [
        f"graph: {len(g.vertices)} vertices, {len(g.edges)} edge records",
        f"aperiodic / Condition (L):           {mark(report.aperiodic)}",
        f"residually aperiodic / Condition (K): {mark(report.residually_aperiodic)}",
        f"intersection property:               {mark(report.intersection_property)}",
        f"residual intersection property:      {mark(report.residual_intersection)}",
        f"exact:                               {mark(report.exact)}",
        f"ideal property of crossed product:   {report.ideal_property_of_crossproduct}",
        f"dual system topologically free:      {report.dual_system_topologically_free}",
    ]
    s = report.simple
    if s.verdict == "yes":
        lines.append("simple:                              yes")
    elif s.reason_kind == "nontrivial_lattice":
        lines.append(
            f"simple:                              no: nontrivial ideal I_{{{s.pair.label}}}"
        )
    else:
        ids = ",".join(s.cycle.walk_edge_ids())
        lines.append(
            f"simple:                              no: entrance-less cycle [{ids}]"
        )
    p = report.purely_infinite
    if p.verdict == "yes":
        lines.append("purely infinite:                     yes")
    elif p.reason_kind == "fails_K":
        lines.append(
            f"purely infinite:                     no: Condition (K) fails at {p.vertex}"
        )
    elif p.reason_kind == "breaking_vertex_gap":
        hs = ",".join(g.names(p.h_mask))
        lines.append(
            "purely infinite:                     "
            f"no: {p.vertex} keeps an infinite-receiver gap over H={{{hs}}} "
            f"(finite corner in the quotient)"
        )
    else:
        tail = ",".join(g.names(p.tail_mask))
        lines.append(
            "purely infinite:                     "
            f"no: vertex {p.vertex} in tail {{{tail}}} is not fed by a cycle"
        )
    return "\n".join(lines) + "\n"


def prim_space_t0(ps) -> FiniteT0Space:
    """The prime-point poset as a finite T0 space, labelled by point labels."""
    labels = [pt.label for pt in ps.points]
    return FiniteT0Space.from_pairs(labels, ((labels[i], labels[j]) for i, j in ps.covers))


def trivial_action(space: FiniteT0Space) -> FinitePartialAction:
    """The action of the trivial group: only the identity acts."""
    return FinitePartialAction(space, "F0", (), ())


def copying_cycle_at(g: Graph, v: str) -> Path:
    """The first-return cycle search of `Graph._cycle_at` with each stack
    entry carrying its own copy of the walk so far: the same DFS order, the
    same cycle."""
    stack = [(v, [])]
    seen = set()
    while stack:
        u, walk = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        for e in reversed(g.out_edges_by_vertex[u]):
            if e.rng == v:
                return Path.from_walk(g, walk + [e])
            if e.rng not in seen:
                stack.append((e.rng, walk + [e]))
    raise RuntimeError(f"no cycle at {v!r}")


def bfs_connect(g: Graph, src: str, dst: str) -> tuple[str, ...]:
    """Edge ids of a shortest path src -> dst, in traversal order, by a BFS
    that stops at dst and keeps the first edge found into each vertex."""
    succ, paths, frontier = edges_by(g, "src"), {src: ()}, [src]
    while frontier and dst not in paths:
        nxt = []
        for u in frontier:
            for e in succ[u]:
                if e.rng not in paths:
                    paths[e.rng] = paths[u] + (e.id,)
                    nxt.append(e.rng)
        frontier = nxt
    if dst not in paths:
        raise ValueError(f"no path {src!r} -> {dst!r}")
    return paths[dst]


def bfs_paths(g: Graph, src: str) -> dict[str, tuple[str, ...]]:
    """Edge ids of a shortest path from src to each vertex it reaches, in
    traversal order: the BFS tree keeping the first edge found into each,
    every path built whole by tuple concatenation."""
    succ, paths, frontier = edges_by(g, "src"), {src: ()}, [src]
    while frontier:
        nxt = []
        for u in frontier:
            for e in succ[u]:
                if e.rng not in paths:
                    paths[e.rng] = paths[u] + (e.id,)
                    nxt.append(e.rng)
        frontier = nxt
    return paths


def enumerate_simple_cycles(g: Graph):
    """All vertex-simple cycles, as edge lists in traversal order.

    Each cycle is rooted at its canonically smallest vertex, so every cycle
    appears exactly once up to rotation.
    """
    cycles, succ = [], edges_by(g, "src")

    def extend(start, smaller, walk, seen):
        u = walk[-1].rng if walk else start
        for e in succ[u]:
            if e.rng in smaller:
                continue
            if e.rng == start:
                cycles.append(walk + [e])
            elif e.rng not in seen:
                extend(start, smaller, walk + [e], seen | {e.rng})

    for i, v in enumerate(g.vertices):
        extend(v, set(g.vertices[:i]), [], {v})
    return cycles


def cycle_has_entrance(g: Graph, cycle_edges) -> bool:
    """Some edge other than a cycle edge ends on the cycle; a cycle edge of
    multiplicity two or more (or OMEGA) has such a parallel copy."""
    heads, used = {e.rng for e in cycle_edges}, {e.id for e in cycle_edges}
    return any(e.rng in heads and (e.id not in used or e.mult != 1) for e in g.edges)


def brute_condition_L(g: Graph) -> bool:
    return all(cycle_has_entrance(g, c) for c in enumerate_simple_cycles(g))


def walk_condition_L(g: Graph) -> ConditionL:
    """Reference Condition (L): walk unique in-edges backwards inside the
    in-degree-one vertices from each start in canonical order, and rotate the
    first cycle met to start at its canonically smallest vertex."""
    ins = edges_by(g, "rng")
    candidates = {v for v in g.vertices if [e.mult for e in ins[v]] == [1]}
    state: dict[str, int] = {}  # 0 = in progress, 1 = cleared
    for start in g.vertices:
        if start not in candidates or start in state:
            continue
        trail: list[str] = []
        pos: dict[str, int] = {}
        v = start
        while True:
            if v not in candidates or state.get(v) == 1:
                break
            if v in pos:
                cycle_vs = trail[pos[v]:]
                walk = []  # traversal order along the cycle
                for u in reversed(cycle_vs):
                    (e,) = ins[u]
                    walk.append(e)
                # rotate so the walk starts at the canonically smallest vertex
                base = min(range(len(walk)), key=lambda i: g.vertices.index(walk[i].src))
                walk = walk[base:] + walk[:base]
                path = Path.from_walk(g, walk)
                return ConditionL(False, CycleWitness.for_cycle(g, path))
            pos[v] = len(trail)
            trail.append(v)
            (e,) = ins[v]
            v = e.src
        for u in trail:
            state[u] = 1
    return ConditionL(True)


def brute_first_return_count(g: Graph, v: str, cap: int = 2) -> int:
    """Count first-return walks at v by bounded DFS, saturating at cap.

    Without a cycle avoiding v, a first-return walk has at most n edges.
    With one, some vertex u of such a cycle C lies on a v -> u -> v first
    return P1 P2, and P1 C^k P2 (k < cap) are cap walks of at most
    (cap + 1) * n edges.  So the count is exact within that depth.  Only
    walks into vertices that can still reach v are followed.  Only use on
    small graphs.
    """
    bound = (cap + 1) * len(g.vertices)
    reaches_v = {v}
    grown = True
    while grown:
        grown = False
        for e in g.edges:
            if e.rng in reaches_v and e.src not in reaches_v:
                reaches_v.add(e.src)
                grown = True

    def step(m) -> int:
        return cap if m == OMEGA else min(m, cap)

    total, succ = 0, edges_by(g, "src")
    work = [(v, 0, 1)]  # (current vertex, steps taken, choice weight so far)
    while work:
        u, depth, weight = work.pop()
        if depth >= bound:
            continue
        for e in succ[u]:
            w = min(weight * step(e.mult), cap)
            if e.rng == v:
                total += w
                if total >= cap:
                    return cap
            elif e.rng in reaches_v:
                work.append((e.rng, depth + 1, w))
    return min(total, cap)


def is_maximal_tail(g: Graph, M) -> bool:
    """M is a maximal tail: a row of the prime-point kernel (see `maximal_tails`)."""
    return g.mask(M) in g._tails


def brute_maximal_tails(g: Graph) -> set[frozenset]:
    """Nonempty vertex sets that are upward closed, co-saturated (a member of
    finite nonzero in-degree has a source inside) and downward directed (two
    members reach a common member), by scanning all subsets."""
    out, r, ins = set(), reach(g), edges_by(g, "rng")
    for M in all_subsets(g.vertices):
        upward = all(r[w] <= M for w in M)
        cosaturated = all(any(e.src in M for e in ins[v]) for v in M if finitely_fed(ins[v]))
        directed = all(any(v in r[y] and w in r[y] for y in M) for v in M for w in M)
        if M and upward and cosaturated and directed:
            out.add(M)
    return out


def brute_glb(leq, i: int, j: int):
    n = len(leq)
    lbs = [k for k in range(n) if leq[k][i] and leq[k][j]]
    greatest = [k for k in lbs if all(leq[m][k] for m in lbs)]
    return greatest[0] if len(greatest) == 1 else None


def brute_lub(leq, i: int, j: int):
    n = len(leq)
    ubs = [k for k in range(n) if leq[i][k] and leq[j][k]]
    least = [k for k in ubs if all(leq[k][m] for m in ubs)]
    return least[0] if len(least) == 1 else None


def brute_covers(leq):
    """(i, j) with i < j in the order and no k strictly between, ascending."""
    n = len(leq)
    return [
        (i, j)
        for i in range(n)
        for j in range(n)
        if i != j
        and leq[i][j]
        and not any(k not in (i, j) and leq[i][k] and leq[k][j] for k in range(n))
    ]


def pair_rows(g: Graph, hbs) -> list[int]:
    """Each pair (H, B) of g as the mask H | (H | B) << n: pair_leq is
    inclusion of these masks."""
    n = len(g.vertices)
    return [h | (h | b) << n for h, b in hbs]


def pair_order(pairs) -> Poset:
    """Any list of pairs (of one graph, unchecked) ordered by pair_leq, one
    bitmask up-set each."""
    if not pairs:
        return Poset(())
    g = pairs[0].graph
    return subset_order(pair_rows(g, [(p._h, p._b) for p in pairs]), 2 * len(g.vertices))


def ref_labels(lat) -> tuple[int, ...]:
    """Per pair of lat, bit k set when the pair lies below the prime point
    ``graph._primes[k]``: every pair scanned against every prime."""
    g = lat.graph
    primes = pair_rows(g, g._primes)
    return tuple(
        sum([1 << k for k, q in enumerate(primes) if not r & ~q])
        for r in pair_rows(g, [(p._h, p._b) for p in lat.pairs])
    )


# Meets and joins of a lattice whose indices follow a linear extension (i <= j
# implies i <= j as integers), read off the bitmask up-sets of a `Poset`.  Every
# lower bound of i and j lies below their meet, so the meet is the
# highest-indexed common lower bound; dually the join is the lowest-indexed
# common upper bound.


def ref_check_linear_extension(order) -> None:
    if any(m & ((1 << i) - 1) for i, m in enumerate(order.up)):
        raise ValueError("element indices do not follow a linear extension")


def ref_meet_table(order) -> tuple[tuple[int, ...], ...]:
    ref_check_linear_extension(order)
    down = order.down
    return tuple(tuple([(a & b).bit_length() - 1 for b in down]) for a in down)


def ref_join_table(order) -> tuple[tuple[int, ...], ...]:
    """With the up-sets bit-reversed (bit j moved to bit n - 1 - j), the
    lowest common upper bound j is the highest set bit of the AND."""
    ref_check_linear_extension(order)
    n = len(order.up)
    rev = [int(format(m, f"0{n}b")[::-1], 2) for m in order.up]
    return tuple(tuple([n - (a & b).bit_length() for b in rev]) for a in rev)


def ref_bits(m: int):
    """Indices of the set bits of m, ascending, one lowest bit at a time:
    `poset.bits` before its byte table (a negative m never ends)."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def brute_closure(n: int, pairs):
    """Reflexive-transitive closure of a relation on range(n), by Warshall."""
    rel = [[i == j or (i, j) in pairs for j in range(n)] for i in range(n)]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                rel[i][j] = rel[i][j] or (rel[i][k] and rel[k][j])
    return rel


def check_antisymmetric(up, name) -> None:
    """Raise ValueError naming, by name(i), the first i < j with i <= j and
    j <= i, found by a walk over every related pair of the up-sets: the
    check `FiniteT0Space` made before it read T0 as distinct rows."""
    for i, m in enumerate(up):
        for j in bits(m >> (i + 1)):
            if up[i + 1 + j] >> i & 1:
                raise ValueError(f"not antisymmetric: {clip(name(i))} and {clip(name(i + 1 + j))}")


def poset_isomorphic(leq1, leq2) -> bool:
    """Brute-force order-isomorphism search with signature pruning."""
    n = len(leq1)
    if n != len(leq2):
        return False

    def sig(leq, i):
        down = sum(1 for k in range(n) if leq[k][i])
        up = sum(1 for k in range(n) if leq[i][k])
        return (down, up)

    sig1 = [sig(leq1, i) for i in range(n)]
    sig2 = [sig(leq2, i) for i in range(n)]
    if sorted(sig1) != sorted(sig2):
        return False
    assignment = [-1] * n
    used = [False] * n

    def backtrack(i: int) -> bool:
        if i == n:
            return True
        for j in range(n):
            if used[j] or sig1[i] != sig2[j]:
                continue
            ok = True
            for k in range(i):
                if leq1[i][k] != leq2[j][assignment[k]]:
                    ok = False
                    break
                if leq1[k][i] != leq2[assignment[k]][j]:
                    ok = False
                    break
            if ok:
                assignment[i] = j
                used[j] = True
                if backtrack(i + 1):
                    return True
                used[j] = False
                assignment[i] = -1
        return False

    return backtrack(0)


def lattice_to_json_obj(lat) -> dict:
    """The lattice JSON document as a plain object: the reference that
    lattice_to_json must print as json.dumps(obj, indent=2)."""
    return {
        "vertices": list(lat.graph.vertices),
        "pairs": [p.to_json_obj() for p in lat.pairs],
        "labels": [p.label for p in lat.pairs],
        "leq": [[bool(x) for x in row] for row in lat.leq],
        "covers": [list(c) for c in lat.covers],
        "meet": [list(row) for row in lat.meet_table],
        "join": [list(row) for row in lat.join_table],
    }


# -- random graphs ---------------------------------------------------------------


@st.composite
def graphs(draw, max_n: int = 6, omega_ok: bool = True):
    """Hypothesis strategy for small multigraphs."""
    n = draw(st.integers(1, max_n))
    vertices = tuple(f"v{i}" for i in range(n))
    mult_opts = [1, 2, 3] + ([OMEGA] if omega_ok else [])
    m = draw(st.integers(0, 2 * n))
    edges = tuple(
        Edge(
            id=f"e{k}",
            src=vertices[draw(st.integers(0, n - 1))],
            rng=vertices[draw(st.integers(0, n - 1))],
            mult=draw(st.sampled_from(mult_opts)),
        )
        for k in range(m)
    )
    return Graph(vertices, edges)


def random_graph(
    rng: random.Random,
    max_n: int = 8,
    max_edges: int | None = None,
    omega_ok: bool = True,
    min_n: int = 1,
) -> Graph:
    n = rng.randint(min_n, max_n)
    vertices = tuple(f"v{i}" for i in range(n))
    m = rng.randint(0, max_edges if max_edges is not None else 2 * n)
    mult_pool: list = [1, 1, 1, 2, 3]
    if omega_ok:
        mult_pool.append(OMEGA)
    edges = tuple(
        Edge(
            id=f"e{k}",
            src=rng.choice(vertices),
            rng=rng.choice(vertices),
            mult=rng.choice(mult_pool),
        )
        for k in range(m)
    )
    return Graph(vertices, edges)


def split_records(g: Graph) -> Graph:
    """g with every finite multiplicity-m edge split into m parallel records."""
    edges = []
    for e in g.edges:
        if isinstance(e.mult, int) and e.mult > 1:
            edges += [replace(e, id=f"{e.id}.{k}", mult=1) for k in range(e.mult)]
        else:
            edges.append(e)
    return Graph(g.vertices, tuple(edges))


def random_omega_graph(rng: random.Random, max_n: int = 7, min_n: int = 1) -> Graph:
    """A random_graph with about half of its edge bundles made infinite."""
    g = random_graph(rng, max_n, min_n=min_n)
    edges = tuple(replace(e, mult=OMEGA) if rng.random() < 0.5 else e for e in g.edges)
    return Graph(g.vertices, edges)


def random_looped_graph(rng: random.Random, max_n: int = 7, min_n: int = 1) -> Graph:
    """A random_omega_graph with a double or infinite loop at every vertex.

    The loops make Condition (K) hold and feed every tail vertex by a cycle,
    so pure infiniteness comes down to the breaking-vertex gap clause.
    """
    g = random_omega_graph(rng, max_n, min_n)
    loops = tuple(
        Edge(id=f"l{i}", src=v, rng=v, mult=rng.choice([2, 2, OMEGA]))
        for i, v in enumerate(g.vertices)
    )
    return Graph(g.vertices, loops + g.edges)


def random_strongly_connected_graph(rng: random.Random, max_n: int = 6, min_n: int = 1) -> Graph:
    n = rng.randint(min_n, max_n)
    vertices = tuple(f"v{i}" for i in range(n))
    edges = [
        Edge(id=f"c{i}", src=vertices[i], rng=vertices[(i + 1) % n], mult=1)
        for i in range(n)
    ]
    for k in range(rng.randint(0, n)):
        edges.append(
            Edge(
                id=f"x{k}",
                src=rng.choice(vertices),
                rng=rng.choice(vertices),
                mult=rng.choice([1, 2]),
            )
        )
    return Graph(vertices, tuple(edges))


# -- random T0 spaces and actions --------------------------------------------------


# every seeded graph generator, the omega-heavy one included; each takes
# max_n and min_n, the bounds of its vertex count
KINDS = (random_graph, random_omega_graph, random_looped_graph, random_strongly_connected_graph)


def random_t0_space(rng: random.Random, max_n: int = 6) -> FiniteT0Space:
    n = rng.randint(1, max_n)
    points = tuple(f"p{i}" for i in range(n))
    order = list(range(n))
    rng.shuffle(order)
    pairs = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.3:
                # orient along the shuffled order to keep antisymmetry
                pairs.append((points[order[a]], points[order[b]]))
    return FiniteT0Space.from_pairs(points, pairs)


def specializes(space: FiniteT0Space, p, q) -> bool:
    """q lies in the closure of {p}."""
    return p == q or (p, q) in space.closure_pairs


def closure(space: FiniteT0Space, S) -> frozenset:
    """The smallest closed set holding S: S and every point specializing to one of its points."""
    S = frozenset(S)
    return S | {q for p, q in space.closure_pairs if p in S}


def interior(space: FiniteT0Space, S) -> frozenset:
    """The largest open set inside S: the points of S whose smallest open set lies in S."""
    S = frozenset(S)
    return frozenset(q for q in S if all(p in S for p, r in space.closure_pairs if r == q))


def order_automorphisms(space: FiniteT0Space):
    """Every order automorphism, in the lexicographic order of its
    permutation of point positions: a backtracking search that places point
    i only where specialization to and from the points before it is kept."""
    pts = space.points
    n = len(pts)
    spec = [[specializes(space, p, q) for q in pts] for p in pts]
    autos, perm, used = [], [], [False] * n

    def extend(i: int) -> None:
        if i == n:
            autos.append({pts[k]: pts[perm[k]] for k in range(n)})
            return
        for c in range(n):
            if not used[c] and all(
                spec[i][k] == spec[c][perm[k]] and spec[k][i] == spec[perm[k]][c]
                for k in range(i)
            ):
                used[c] = True
                perm.append(c)
                extend(i + 1)
                perm.pop()
                used[c] = False

    extend(0)
    return autos


def find_order_iso(space: FiniteT0Space, dom, img, rng: random.Random):
    """Backtrack one order isomorphism dom -> img, or None."""
    dom = list(space.sort_set(dom))
    img_list = list(space.sort_set(img))
    if len(dom) != len(img_list):
        return None
    assignment: dict[str, str] = {}
    used: set[str] = set()
    shuffled_img = img_list[:]
    rng.shuffle(shuffled_img)

    def ok(x, y) -> bool:
        for a, b in assignment.items():
            if specializes(space, a, x) != specializes(space, b, y):
                return False
            if specializes(space, x, a) != specializes(space, y, b):
                return False
        return True

    def backtrack(i: int) -> bool:
        if i == len(dom):
            return True
        x = dom[i]
        for y in shuffled_img:
            if y in used or not ok(x, y):
                continue
            assignment[x] = y
            used.add(y)
            if backtrack(i + 1):
                return True
            used.discard(y)
            del assignment[x]
        return False

    return dict(assignment) if backtrack(0) else None


def random_partial_homeo(rng: random.Random, space: FiniteT0Space) -> PartialHomeo:
    opens = open_sets(space)
    for _ in range(30):
        mode = rng.random()
        if mode < 0.4:
            autos = order_automorphisms(space)
            auto = rng.choice(autos)
            dom = rng.choice(opens)
            return PartialHomeo(
                space, tuple((x, auto[x]) for x in space.sort_set(dom))
            )
        dom = rng.choice(opens)
        img = rng.choice([S for S in opens if len(S) == len(dom)])
        iso = find_order_iso(space, dom, img, rng)
        if iso is not None:
            return PartialHomeo(space, tuple(iso.items()))
    return PartialHomeo(space, tuple((x, x) for x in space.points))


def random_action(
    rng: random.Random, max_points: int = 6, max_gens: int = 2
) -> FinitePartialAction:
    space = random_t0_space(rng, max_points)
    k = rng.randint(1, max_gens)
    if k == 1 and rng.random() < 0.5:
        group = "Z"
    else:
        group = f"F{k}"
    names = tuple(f"g{i+1}" for i in range(k))
    gens = tuple(random_partial_homeo(rng, space) for _ in range(k))
    return FinitePartialAction(space, group, names, gens)


def random_open_set(rng: random.Random, space: FiniteT0Space) -> frozenset:
    mask = rng.randrange(1 << len(space.points))
    S = frozenset(p for i, p in enumerate(space.points) if mask >> i & 1)
    return interior(space, S)


def random_word(rng: random.Random, a: FinitePartialAction, max_len: int = 3) -> str:
    letters = []
    for _ in range(rng.randint(0, max_len)):
        name = rng.choice(a.generator_names)
        letters.append(name if rng.random() < 0.5 else f"{name}^-1")
    return " ".join(letters)


def random_cycle_transposition_action(rng: random.Random, n: int) -> FinitePartialAction:
    """F2 on n discrete points: an n-cycle and a partial transposition.

    The transposition swaps two points and fixes a random set of others, so
    the free-group word search meets up to thousands of distinct partial maps.
    """
    space = FiniteT0Space.from_pairs(tuple(f"p{i}" for i in range(n)))
    pts = list(space.points)
    rng.shuffle(pts)
    cycle = PartialHomeo(space, tuple((pts[k], pts[(k + 1) % n]) for k in range(n)))
    x, y, *rest = rng.sample(space.points, n)
    fixed = rng.sample(rest, rng.randint(0, len(rest)))
    swap = PartialHomeo(space, ((x, y), (y, x)) + tuple((z, z) for z in fixed))
    return FinitePartialAction(space, "F2", ("a", "b"), (cycle, swap))


def differential_actions() -> list[FinitePartialAction]:
    """Seeded actions over Z, F1, F2 and F3, then cycle-plus-transposition F2
    actions on 5 and 6 discrete points, then F0 actions (no generators), the
    last of them on no points."""
    rng = random.Random(149)
    out = [random_action(rng, max_points=6, max_gens=3) for _ in range(150)]
    out += [random_cycle_transposition_action(rng, n) for n in (5, 6) for _ in range(6)]
    out += [FinitePartialAction(random_t0_space(rng), "F0", (), ()) for _ in range(6)]
    out.append(FinitePartialAction(FiniteT0Space((), frozenset()), "F0", (), ()))
    return out


# -- action oracles ------------------------------------------------------------------


def reduce_letters(letters) -> tuple:
    """Free reduction of a sequence of (generator, +1 or -1) letters."""
    out = []
    for letter in letters:
        if out and out[-1] == (letter[0], -letter[1]):
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def word_text(letters) -> str:
    """A sequence of (generator, +1 or -1) letters as a word of the text grammar."""
    return " ".join(name if exp == 1 else f"{name}^-1" for name, exp in letters)


def letter_element_map(a: FinitePartialAction, word: str) -> tuple:
    """The pairs of a word's map, letter by letter: every name^k expanded
    into k letters, freely reduced, then one letter's map after another."""
    letters = []
    for tok in word.replace("·", " ").replace("*", " ").split():
        if tok == "e":
            continue
        if tok.lstrip("-").isdigit():  # a bare integer over Z
            name, exp = a.generator_names[0], tok
        elif "^" in tok:
            name, _, exp = tok.rpartition("^")
        else:
            name, exp = tok, "1"
        letters.extend([(name, 1 if int(exp) > 0 else -1)] * abs(int(exp)))
    current = {x: x for x in a.space.points}
    for letter in reversed(reduce_letters(letters)):
        f = dict(letter_map(a, letter).pairs)
        current = {x: f[y] for x, y in current.items() if y in f}
    return tuple(sorted(current.items(), key=lambda xy: a.space.index[xy[0]]))


def is_down_set(space: FiniteT0Space, S) -> bool:
    """S is open: it holds every point whose closure meets it."""
    return all(q in S for p in S for q in space.points if specializes(space, q, p))


def open_sets(space: FiniteT0Space) -> list[frozenset]:
    """All open sets, ordered by size, then by the bitmask of point positions."""
    pts = space.points
    opens = [S for S in all_subsets(pts) if is_down_set(space, S)]
    return sorted(opens, key=lambda S: (len(S), sum(1 << pts.index(p) for p in S)))


def compose(f: PartialHomeo, g: PartialHomeo) -> PartialHomeo:
    """f after g, on the maximal natural domain."""
    m = dict(f.pairs)
    return PartialHomeo(f.space, tuple((x, m[y]) for x, y in g.pairs if y in m))


def fixed_points(f: PartialHomeo) -> frozenset:
    return frozenset(x for x, y in f.pairs if x == y)


def letter_map(a: FinitePartialAction, letter) -> PartialHomeo:
    """The generator of a (name, +1 or -1) letter, or its inverse."""
    gen = a.generators[a.generator_names.index(letter[0])]
    return gen if letter[1] == 1 else PartialHomeo(gen.space, tuple((y, x) for x, y in gen.pairs))


def subspace(space: FiniteT0Space, S) -> FiniteT0Space:
    S = frozenset(S)
    return FiniteT0Space(
        tuple(p for p in space.points if p in S),
        frozenset((p, q) for p, q in space.closure_pairs if p in S and q in S),
    )


def restrict(a: FinitePartialAction, S) -> FinitePartialAction:
    """The restriction of an action to an invariant set, as an action on the subspace."""
    S = frozenset(S)
    assert a.is_invariant(S), sorted(S)
    sub = subspace(a.space, S)
    gens = tuple(
        PartialHomeo(sub, tuple((x, y) for x, y in gen.pairs if x in S)) for gen in a.generators
    )
    return FinitePartialAction(sub, a.group, a.generator_names, gens)


def brute_homeo_error(space: FiniteT0Space, pairs):
    """The ActionFormatError message that building PartialHomeo(space, pairs)
    must raise, or None for a valid map: the checks in their fixed order,
    order isomorphism by comparing every pair of domain points in input order."""
    dom = [x for x, _ in pairs]
    img = [y for _, y in pairs]
    for x in dom + img:
        if x not in space.points:
            return f"map names unknown point {x!r}"
    if len(set(dom)) != len(dom):
        return "map domain repeats a point"
    if len(set(img)) != len(img):
        return "map is not injective"
    for what, S in (("domain", dom), ("image", img)):
        if not is_down_set(space, S):
            return f"map {what} is not open: {sorted(S)}"
    m = dict(pairs)
    for x in dom:
        for y in dom:
            if specializes(space, m[x], m[y]) != specializes(space, x, y):
                return f"map is not an order isomorphism at {x!r}, {y!r}"
    return None


def brute_invariant_subsets(a: FinitePartialAction) -> list[frozenset]:
    """Every invariant subset by scanning all 2^n subsets: S is invariant when
    each generator and each inverse maps the part of S in its domain into S.
    Ordered by size, then by the bitmask of point positions."""
    steps = []
    for gen in a.generators:
        steps.append(dict(gen.pairs))
        steps.append({y: x for x, y in gen.pairs})
    pts = a.space.points
    out = [
        S
        for S in all_subsets(pts)
        if all(m[x] in S for m in steps for x in S if x in m)
    ]
    return sorted(out, key=lambda S: (len(S), sum(1 << pts.index(p) for p in S)))


def brute_fixed_union(a: FinitePartialAction) -> frozenset:
    """Union of fixed points of theta_w over nontrivial realized words.

    Over Z: the points on cycles of the generator map.  Over a free group: a
    BFS over (map, leading letter) states of reduced words, composing
    validated PartialHomeo maps.
    """
    if not a.generators:
        return frozenset()
    if a.group == "Z":
        theta = dict(a.generators[0].pairs)
        fixed: set[str] = set()
        for x in a.space.points:
            cur = x
            for _ in range(len(a.space.points)):
                cur = theta.get(cur)
                if cur is None:
                    break
                if cur == x:
                    fixed.add(x)
                    break
        return frozenset(fixed)

    letters = []
    for name in a.generator_names:
        letters.append((name, 1))
        letters.append((name, -1))
    fixed = set()
    seen_states = set()
    frontier = []
    for letter in letters:
        m = letter_map(a, letter)
        if m.pairs:
            state = (m.pairs, letter)
            seen_states.add(state)
            frontier.append((m, letter))
            fixed |= fixed_points(m)
    while frontier:
        nxt = []
        for m, head in frontier:
            for letter in letters:
                if letter == (head[0], -head[1]):
                    continue  # keep the word reduced
                composed = compose(letter_map(a, letter), m)
                if not composed.pairs:
                    continue
                state = (composed.pairs, letter)
                if state in seen_states:
                    continue
                seen_states.add(state)
                fixed |= fixed_points(composed)
                nxt.append((composed, letter))
        frontier = nxt
    return frozenset(fixed)


def step_succ(a: FinitePartialAction) -> list[int]:
    """Per point, the mask of its images under the generators and their
    inverses, read off each generator's ``_fwd`` and ``_inv`` tuples."""
    succ = [0] * len(a.space.points)
    for gen in a.generators:
        for f in (gen._fwd, gen._inv):
            for i, j in enumerate(f):
                if j >= 0:
                    succ[i] |= 1 << j
    return succ


def state_closure_fixed_union(a: FinitePartialAction) -> int:
    """Mask of the union of fixed points of theta_w over nontrivial reduced words w.

    theta_w fixes x exactly when the letters of w, applied right to left,
    walk from x back to x with every step defined and no letter followed
    by its inverse.  So the union is read off reachability among
    (point, last letter) states, polynomial in the number of points; the
    generator of Z walks like the one of F1.
    """
    maps = [f for gen in a.generators for f in (gen._fwd, gen._inv)]
    n = len(a.space.points)
    k = len(maps)  # letters: each generator, then its inverse; j ^ 1 inverts j
    succ = [0] * (n * k)
    for p in range(n):
        for j in range(k):
            for i, f in enumerate(maps):
                if i != j ^ 1 and f[p] >= 0:  # keep the word reduced and defined
                    succ[p * k + j] |= 1 << (f[p] * k + i)
    reach = reach_closure(succ)
    at = (1 << k) - 1  # the k states at a point, shifted to it
    fixed = 0
    for x in range(n):
        if any(f[x] >= 0 and reach[f[x] * k + i] >> (x * k) & at for i, f in enumerate(maps)):
            fixed |= 1 << x
    return fixed


def step_closure_invariant_masks(a: FinitePartialAction) -> tuple[int, ...]:
    """Per point, the mask of the smallest closed invariant set containing it:
    everything reachable by specialization and by generator steps."""
    return reach_closure([s | up for s, up in zip(step_succ(a), a.space._up)])


def closed_invariant_masks(a: FinitePartialAction) -> tuple[int, ...]:
    """Per point, the closure of its orbit: the smallest closed invariant set
    containing it, since domains are down-sets and so the closure of an
    invariant set is invariant."""
    return tuple(union(a.space._up, m) for m in a._orbits)


def step_closure_orbits(a: FinitePartialAction) -> tuple[int, ...]:
    """Per point, the mask of its orbit: everything reachable by generator
    steps, one depth-first search per point."""
    return reach_closure(step_succ(a))


def brute_orbit(a: FinitePartialAction, x) -> frozenset:
    """The points reached from x by generators and their inverses, pair by pair."""
    steps = [dict(gen.pairs) for gen in a.generators]
    steps += [{y: x for x, y in gen.pairs} for gen in a.generators]
    seen, todo = {x}, [x]
    while todo:
        p = todo.pop()
        for step in steps:
            if p in step and step[p] not in seen:
                seen.add(step[p])
                todo.append(step[p])
    return frozenset(seen)


def brute_quasi_orbits(a: FinitePartialAction) -> dict:
    """Point -> its quasi-orbit: the points whose orbit has the same closure."""
    K = {x: closure(a.space, brute_orbit(a, x)) for x in a.space.points}
    return {x: frozenset(y for y in a.space.points if K[y] == K[x]) for x in a.space.points}


# the word parser with regexes alone, before generator tokens were looked up
_REF_INT_RE = re.compile(r"-?[0-9]+")
_REF_POWER_RE = re.compile(r"(.+?)\^(-?[0-9]+)")


def regex_parse_word(a: FinitePartialAction, word: str) -> tuple:
    """Parse a word of the text grammar (docs/FORMATS.md) into freely
    reduced (generator, exponent) runs, expanding no exponent."""
    runs = []
    for tok in word.replace("·", " ").replace("*", " ").split():
        if tok == "e":
            continue
        m = _REF_POWER_RE.fullmatch(tok)
        if m:
            name, exp = m.group(1), m.group(2)
        elif _REF_INT_RE.fullmatch(tok):
            if a.group != "Z":
                raise ActionFormatError(
                    f"bare integer token {clip(tok)} is only defined over Z"
                )
            name, exp = a.generator_names[0], tok
        else:
            name, exp = tok, "1"
        try:
            runs.append((name, int(exp)))
        except ValueError:  # int() refuses literals over sys.get_int_max_str_digits()
            raise ActionFormatError(
                f"word {clip(word)}: integer literal too long: "
                f"over {sys.get_int_max_str_digits()} digits"
            ) from None
        if name not in a._by_name:
            raise ActionFormatError(f"unknown generator {clip(name)} in word")
    return _reduce(runs)


# -- witness-check references ----------------------------------------------------------
#
# The decomposition checks as they ran on frozensets of point names, one
# PartialHomeo per part: the reference for the mask checkers in `actions`.


def ref_check_common(a: FinitePartialAction, d: Decomposition):
    """Clauses shared by both notions; returns images when all of them hold."""
    sp = a.space
    unknown = set().union(d.v, *(p for p, _ in d.parts)) - set(sp.points)
    if unknown:
        raise ActionFormatError(f"decomposition names unknown point {clip(min(unknown))}")
    if not sp.is_open(d.v):
        return Violation("v_not_open", f"V={sorted(d.v)} is not open"), []
    images = []
    for i, (part, word) in enumerate(d.parts):
        if not sp.is_open(part):
            return Violation("part_not_open", f"V_{i} is not open", i=i), []
        theta = a.element_map(word)
        if not part <= theta.domain:
            detail = f"V_{i} is not contained in the domain of the word {word!r}"
            return Violation("part_outside_domain", detail, i=i), []
        images.append(frozenset(dict(theta.pairs)[x] for x in part))
    for i, img in enumerate(images):
        if not img <= d.v:
            return Violation("image_escapes", f"image of V_{i} leaves V", i=i), []
    return None, images


def ref_disjointness(images):
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            if images[i] & images[j]:
                return Violation("images_overlap", f"images of V_{i} and V_{j} meet", i=i, j=j)
    return None


def ref_check_paradoxical_witness(a: FinitePartialAction, d: Decomposition) -> WitnessCheck:
    if d.split is None:
        raise ActionFormatError("paradoxical witness needs a split index")
    if not 0 <= d.split <= len(d.parts):
        raise ActionFormatError("split index out of range")
    if not d.v:
        return WitnessCheck(False, Violation("v_empty", "a nonempty open V is required"))
    bad, images = ref_check_common(a, d)
    if bad is not None and bad.clause == "v_not_open":
        return WitnessCheck(False, bad)
    first = frozenset().union(*(part for part, _ in d.parts[: d.split]))
    second = frozenset().union(*(part for part, _ in d.parts[d.split :]))
    for family, which in ((first, "first"), (second, "second")):
        if family != d.v:
            detail = f"the {which} family does not cover V exactly"
            return WitnessCheck(False, Violation("bad_cover", detail))
    if bad is not None:
        return WitnessCheck(False, bad)
    overlap = ref_disjointness(images)
    if overlap is not None:
        detail = overlap.detail + (
            f"; on a finite space the double cover of |V|={len(d.v)} points forces an overlap"
        )
        return WitnessCheck(
            False, Violation(overlap.clause, detail, overlap.i, overlap.j, counting=True)
        )
    return WitnessCheck(True)


def ref_check_infinite_witness(a: FinitePartialAction, d: Decomposition) -> WitnessCheck:
    if d.split is not None:
        raise ActionFormatError("infiniteness witness takes no split index")
    if not d.parts:
        return WitnessCheck(False, Violation("no_parts", "at least one part is required"))
    bad, images = ref_check_common(a, d)
    if bad is not None and bad.clause == "v_not_open":
        return WitnessCheck(False, bad)
    if frozenset().union(*(part for part, _ in d.parts)) != d.v:
        return WitnessCheck(False, Violation("bad_cover", "the parts do not cover V exactly"))
    if bad is not None:
        return WitnessCheck(False, bad)
    overlap = ref_disjointness(images)
    if overlap is not None:
        return WitnessCheck(False, overlap)
    closed = closure(a.space, frozenset().union(*images))
    if not (closed <= d.v and closed != d.v):
        detail = (
            f"the closure of the image union is not a proper subset of V; injectivity "
            f"forces the {len(d.v)} covered points to map onto all of V"
        )
        return WitnessCheck(False, Violation("closure_not_proper", detail, counting=True))
    return WitnessCheck(True)
