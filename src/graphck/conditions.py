"""Hereditary/saturated closure operators and Conditions (L) and (K).

Condition (L): every cycle has an entrance, i.e. an edge e != mu_k ending at
a cycle vertex r(mu_k).  Condition (K): every vertex has zero or at least two
first-return paths.  Both tests return explicit witnesses on failure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import (
    DEFAULT_LIMIT,
    Edge,
    Graph,
    LimitExceededError,
    Path,
    first_return_count,
    is_finite,
    scc_decomposition,
)
from .poset import closure


def is_hereditary(g: Graph, S: Iterable[str]) -> bool:
    S = frozenset(S)
    return g.ancestors_of(S) == S


def _forced(g: Graph, S, v: str) -> bool:
    """v has finite nonzero in-degree and all of its in-edges start in S."""
    deg = g.in_degree(v)
    return is_finite(deg) and deg > 0 and all(e.src in S for e in g.in_edges(v))


def is_saturated(g: Graph, S: Iterable[str]) -> bool:
    S = frozenset(S)
    return not any(v not in S and _forced(g, S, v) for v in g.vertices)


def hereditary_closure(g: Graph, S: Iterable[str]) -> frozenset[str]:
    """Smallest hereditary superset of S: everything that reaches S."""
    return g.ancestors_of(S) if S else frozenset()


def saturation(g: Graph, H: Iterable[str]) -> frozenset[str]:
    """Least saturated superset of a hereditary H; stays hereditary."""
    H = frozenset(H)
    if not is_hereditary(g, H):
        raise ValueError(f"saturation input is not hereditary: {sorted(H)}")
    current = set(H)
    while True:
        forced = [v for v in g.vertices if v not in current and _forced(g, current, v)]
        if not forced:
            return frozenset(current)
        current.update(forced)


def saturated_hereditary_sets(
    g: Graph, limit: int = DEFAULT_LIMIT
) -> list[frozenset[str]]:
    """All simultaneously hereditary and saturated vertex sets.

    Ordered by (size, canonical bitmask); always contains the empty set and
    the full vertex set.  Hereditary sets are enumerated as predecessor-closed
    unions of strongly connected components, then filtered by saturation.
    """
    if len(g.vertices) > limit:
        raise LimitExceededError(len(g.vertices), limit)
    comps = scc_decomposition(g)
    k = len(comps)
    comp_of: dict[str, int] = {}
    for i, c in enumerate(comps):
        for v in c.vertices:
            comp_of[v] = i
    # preds[i] = components with an edge into component i
    preds = [0] * k
    for e in g.edges:
        a, b = comp_of[e.src], comp_of[e.rng]
        if a != b:
            preds[b] |= 1 << a
    required = closure(preds)  # per component: itself and everything reaching it

    out = []
    for m in range(1 << k):
        ok = True
        for i in range(k):
            if m >> i & 1 and required[i] & ~m:
                ok = False
                break
        if not ok:
            continue
        H = frozenset(v for i in range(k) if m >> i & 1 for v in comps[i].vertices)
        if is_saturated(g, H):
            out.append(H)
    out.sort(key=g.set_key)
    return out


@dataclass(frozen=True)
class CycleWitness:
    cycle: Path
    missing_entrance: bool
    entrance_edges: tuple[Edge, ...]

    @classmethod
    def for_cycle(cls, g: Graph, cycle: Path) -> "CycleWitness":
        if not cycle.is_cycle:
            raise ValueError("witness path is not a cycle")
        entrances = cycle_entrances(g, cycle)
        return cls(cycle, not entrances, entrances)


def cycle_entrances(g: Graph, cycle: Path) -> tuple[Edge, ...]:
    """Edges e with r(e) = r(mu_k) and e != mu_k for some cycle edge mu_k.

    A multiplicity >= 2 cycle edge counts: its parallel copy is an entrance.
    """
    used = set(cycle.edge_ids)
    heads = {v for v in cycle.walk_vertices()}
    out = []
    for e in g.edges:  # canonical edge order keeps the output deterministic
        if e.rng in heads:
            if e.id not in used:
                out.append(e)
            elif not is_finite(e.mult) or e.mult >= 2:
                out.append(e)  # a parallel copy of a cycle edge
    return tuple(out)


@dataclass(frozen=True)
class ConditionL:
    holds: bool
    witness: CycleWitness | None = None


def condition_L(g: Graph) -> ConditionL:
    """Decide Condition (L); a failure carries an entrance-less cycle.

    An entrance-less cycle is necessarily simple, and each of its vertices
    has total in-degree exactly one (the cycle edge itself).  It suffices to
    walk unique in-edges backwards inside the set of in-degree-one vertices.
    """
    candidates = {v for v in g.vertices if g.in_degree(v) == 1}
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
                    (e,) = g.in_edges(u)
                    walk.append(e)
                # rotate so the walk starts at the canonically smallest vertex
                base = min(range(len(walk)), key=lambda i: g.index(walk[i].src))
                walk = walk[base:] + walk[:base]
                path = Path.from_walk(g, walk)
                witness = CycleWitness.for_cycle(g, path)
                assert witness.missing_entrance
                return ConditionL(False, witness)
            pos[v] = len(trail)
            trail.append(v)
            (e,) = g.in_edges(v)
            v = e.src
        for u in trail:
            state[u] = 1
    return ConditionL(True)


@dataclass(frozen=True)
class ConditionK:
    holds: bool
    witness: str | None = None  # a vertex with exactly one first-return path


def condition_K(g: Graph) -> ConditionK:
    for v in g.vertices:
        if first_return_count(g, v, cap=2) == 1:
            return ConditionK(False, v)
    return ConditionK(True)
