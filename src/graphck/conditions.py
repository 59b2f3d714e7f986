"""Hereditary/saturated closure operators and Conditions (L) and (K).

Condition (L): every cycle has an entrance, i.e. an edge e != mu_k ending at
a cycle vertex r(mu_k).  Condition (K): every vertex has zero or at least two
first-return paths.  Both tests return explicit witnesses on failure.

Both fail only on a strongly connected component that is a bare simple
cycle: each of its members has exactly one source inside it, not repeated.
The kernel pass that finds the components marks their members
(``Graph._one_return``: the vertices with exactly one first-return path),
and (K) is read off that mask: it fails at its lowest vertex, the smallest
member of the first such component.  (L) fails on such a component with no
entrance, read off the reach rows: the ancestors of the first vertex that
no vertex of in-degree other than one (one source, not repeated) reaches
hold that cycle, found from its lowest vertex.

Saturation is read off the prime-point kernel, whose one home is `Graph`
(see `graphs`): ``Graph._sh_closure`` is the one saturated hereditary
closure.  Vertex sets are frozensets of names at the public API and int
masks in canonical order inside.
"""

from __future__ import annotations

from typing import Iterable

from .graphs import DEFAULT_LIMIT, Edge, Graph, Path
from .ideals import admissible_pairs
from .poset import bits, clip, record, union


def is_hereditary(g: Graph, S: Iterable[str]) -> bool:
    m = g.mask(S)
    return not union(g._in.src, m) & ~m


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


@record
class CycleWitness:
    """A cycle with its entrance edges; missing_entrance when it has none."""

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


@record
class ConditionL:
    """Whether Condition (L) holds; on failure, a cycle without an entrance."""

    holds: bool
    witness: CycleWitness | None = None


def entranceless_cycle_at(g: Graph) -> int | None:
    """The one (L) decider: the index of the lowest vertex of an
    entrance-less cycle, or None when Condition (L) holds.  Such a cycle is
    a bare cycle component, so there is none when ``g._one_return`` is
    empty.  Otherwise the cycle named is the one that feeds the lowest
    vertex outside the reach of every vertex whose in-degree is not one
    (one source, not repeated): that vertex has only ancestors of in-degree
    one, and the lowest cycle vertex reaching it starts the cycle (the only
    first-return walk there).  It need not be the cycle with the lowest
    vertex: with cycles c1 <-> c2 and d4 <-> d5 and an edge d4 -> u0 on the
    vertices u0, c1, c2, x3, d4, d5, it names d4."""
    if not g._one_return:
        return None
    full, reach, src, repeated = g._full, g._reach, g._in.src, g._in.repeated
    deg1 = sum(1 << i for i, s in enumerate(src) if s.bit_count() == 1 and not repeated[i])
    only = full & ~union(reach, full & ~deg1)
    for j in bits(only & g._cyclic):
        if reach[j] & only & -only:
            return j
    return None


def condition_L(g: Graph) -> ConditionL:
    """Decide Condition (L); a failure carries the cycle at the vertex
    `entranceless_cycle_at` names, with its entrances (none)."""
    j = entranceless_cycle_at(g)
    if j is None:
        return ConditionL(True)
    return ConditionL(False, CycleWitness.for_cycle(g, g._cycle_at(g.vertices[j])))


@record
class ConditionK:
    """Whether Condition (K) holds; on failure, a vertex with one first-return path."""

    holds: bool
    witness: str | None = None  # a vertex with exactly one first-return path


def condition_K(g: Graph) -> ConditionK:
    """Decide Condition (K); a failure carries the lowest vertex with one
    first-return path, the smallest member of the first component that is
    a bare cycle (see the module docstring)."""
    m = g._one_return
    return ConditionK(False, g.vertices[(m & -m).bit_length() - 1]) if m else ConditionK(True)
