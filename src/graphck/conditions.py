"""Hereditary/saturated closure operators and Conditions (L) and (K).

Condition (L): every cycle has an entrance, i.e. an edge e != mu_k ending at
a cycle vertex r(mu_k).  Condition (K): every vertex has zero or at least two
first-return paths.  Both tests return explicit witnesses on failure.

Both fail only on a strongly connected component that is a bare simple
cycle, read off the graph's in-edge table.  (K) is read off the components:
it fails on the first one each of whose members has exactly one source
inside it, not repeated (so the component is cyclic).  (L) fails on such a
component with no entrance, and is read off the ancestry of the first vertex
whose ancestors all have in-degree one (one source, not repeated): they hold
that cycle, which ``Graph._cycle_at`` finds from its lowest vertex.

Saturation is read off the prime-point kernel, whose one home is `Graph`
(see `graphs`): ``Graph._sh_closure`` is the one saturated hereditary
closure.  Vertex sets are frozensets of names at the public API and int
masks in canonical order inside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graphs import DEFAULT_LIMIT, Edge, Graph, Path
from .ideals import admissible_pairs
from .poset import bits, clip, union


def is_hereditary(g: Graph, S: Iterable[str]) -> bool:
    m = g.mask(S)
    return union(g._back, m) == m


def is_saturated(g: Graph, S: Iterable[str]) -> bool:
    """No vertex outside S has finite nonzero in-degree with every source in S."""
    m = g.mask(S)
    return not any(
        src and not omega and not src & ~m and not m >> i & 1
        for i, (src, omega) in enumerate(zip(g._in.src, g._in.omega))
    )


def saturation(g: Graph, H: Iterable[str]) -> frozenset[str]:
    """Least saturated superset of a hereditary H; stays hereditary."""
    H = frozenset(H)
    if not is_hereditary(g, H):
        raise ValueError(f"saturation input is not hereditary: {clip(sorted(H))}")
    return g.unmask(g._sh_closure(g.mask(H)))


def saturated_hereditary_sets(
    g: Graph, limit: int = DEFAULT_LIMIT
) -> list[frozenset[str]]:
    """All simultaneously hereditary and saturated vertex sets, ordered by
    (size, canonical bitmask): the H parts of the admissible pairs with B empty."""
    return [p.h for p in admissible_pairs(g, limit).pairs if not p.b]


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
    used, heads = set(cycle.edge_ids), set(cycle.walk_vertices())
    # canonical edge order keeps the output deterministic; a cycle edge of
    # multiplicity other than one counts for its parallel copy
    return tuple(e for e in g.edges if e.rng in heads and (e.id not in used or e.mult != 1))


@dataclass(frozen=True)
class ConditionL:
    holds: bool
    witness: CycleWitness | None = None


def condition_L(g: Graph) -> ConditionL:
    """Decide Condition (L); a failure carries an entrance-less cycle: the
    one among the ancestors of the first vertex whose ancestors all have
    in-degree one, found from its smallest vertex (the only first-return
    walk there, as each of its vertices has one in-edge)."""
    src, repeated = g._in.src, g._in.repeated
    deg1 = sum(1 << i for i, s in enumerate(src) if s.bit_count() == 1 and not repeated[i])
    for back in g._back:
        if not back & ~deg1:
            cycle = g._cycle_at(g.vertices[next(bits(back & g._cyclic))])
            return ConditionL(False, CycleWitness.for_cycle(g, cycle))
    return ConditionL(True)


@dataclass(frozen=True)
class ConditionK:
    holds: bool
    witness: str | None = None  # a vertex with exactly one first-return path


def condition_K(g: Graph) -> ConditionK:
    """Decide Condition (K); a failure carries the smallest vertex of the
    first component that is a bare cycle (see the module docstring): each
    member has one first-return path."""
    src, repeated = g._in.src, g._in.repeated
    for c in g._comps:
        if all((src[i] & c).bit_count() == 1 and not repeated[i] & c for i in bits(c)):
            return ConditionK(False, g.vertices[next(bits(c))])
    return ConditionK(True)
