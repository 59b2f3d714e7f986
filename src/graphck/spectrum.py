"""Maximal tails, breaking vertices and the prime/primitive pair poset.

A maximal tail is a nonempty vertex set M that is upward closed, co-saturated
(every finitely-received member has an in-edge from M) and downward directed:
any two members dominate a common member.  The first two conditions say
exactly that the complement of M is saturated hereditary.

Prime points come in two kinds: one per maximal tail M, carrying the pair
(Omega(M), full admissible range), and one per breaking vertex v, carrying
(Omega(v), admissible range minus v).  With Condition (K) these points are
the primitive ideal space; without it they are only the prime gauge-invariant
pairs and the space is flagged accordingly.

Note on breaking vertices: v qualifies when it receives infinitely many edges
overall but only finitely many (and at least one) from *outside* Omega(v),
i.e. from vertices that dominate v.  The count is over sources outside
Omega(v); counting sources inside Omega(v) instead is a different (and here
rejected) reading.

Vertex sets are frozensets of names at the public API and int masks in
canonical order inside; a maximal tail is a row of the ``_reach`` table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .actions import FiniteT0Space
from .conditions import _is_sh, condition_K
from .graphs import Graph
from .ideals import AdmissiblePair, _breaking, pair_order
from .poset import Poset, bits, check_antisymmetric, to_dot, union


def omega(g: Graph, xs: Iterable[str]) -> frozenset[str]:
    """Vertices outside xs dominating no member of xs.

    Equivalently: the complement of the set of vertices reachable from xs.
    """
    m = g.mask(xs)
    if not m:
        raise ValueError("omega needs a nonempty vertex set")
    return g.unmask(g._full & ~union(g._reach, m))


def is_maximal_tail(g: Graph, M: Iterable[str]) -> bool:
    """M is the set reachable from one vertex and its complement is saturated
    hereditary (see maximal_tails)."""
    m = g.mask(M)
    return m in g._reach and _is_sh(g, g._full & ~m)


def maximal_tails(g: Graph) -> list[frozenset[str]]:
    """All maximal tails, ordered by size descending then canonical mask.

    A maximal tail is finite and downward directed, so some member y lies
    below all of its members, and being upward closed it is then exactly the
    set reachable from y.  Conversely, a set reachable from one vertex is
    upward closed and downward directed, and its complement is hereditary;
    it is a maximal tail iff that complement is saturated.
    """
    tails = {M for M in g._reach if _is_sh(g, g._full & ~M)}
    return [g.unmask(M) for M in sorted(tails, key=lambda M: (-M.bit_count(), M))]


def breaking_vertices(g: Graph) -> list[str]:
    """Vertices with infinite in-degree that break over their own omega set."""
    out = []
    for i, (v, omega_src) in enumerate(zip(g.vertices, g._in.omega)):
        # omega(v) is the complement of what v reaches, hence hereditary, and
        # saturated because an infinite receiver is never forced into it
        if omega_src and _breaking(g, g._full & ~g._reach[i]) >> i & 1:
            out.append(v)
    return out


@dataclass(frozen=True)
class PrimPoint:
    kind: str  # "tail" | "breaking"
    tail: frozenset[str] | None
    vertex: str | None
    pair: AdmissiblePair

    @property
    def label(self) -> str:
        if self.kind == "tail":
            vs = self.pair.graph.sort_set(self.tail)
            return "Tail{" + ",".join(vs) + "}"
        return f"Breaking({self.vertex})"

    def to_json_obj(self) -> dict:
        return {
            "kind": self.kind,
            "tail": list(self.pair.graph.sort_set(self.tail)) if self.tail else None,
            "vertex": self.vertex,
            "label": self.label,
            "pair": self.pair.to_json_obj(),
        }


def prime_points(g: Graph) -> list[PrimPoint]:
    """One point per maximal tail, then one per breaking vertex."""
    points = []
    for M in maximal_tails(g):
        h = g._full & ~g.mask(M)
        pair = AdmissiblePair(g, g.unmask(h), g.unmask(_breaking(g, h)))
        points.append(PrimPoint("tail", M, None, pair))
    for v in breaking_vertices(g):
        i = g.index(v)
        h = g._full & ~g._reach[i]
        pair = AdmissiblePair(g, g.unmask(h), g.unmask(_breaking(g, h) & ~(1 << i)))
        points.append(PrimPoint("breaking", None, v, pair))
    return points


@dataclass(frozen=True)
class PrimSpace:
    graph: Graph
    points: tuple[PrimPoint, ...]
    status: str  # "Primitive" | "PrimeOnly"

    def __len__(self) -> int:
        return len(self.points)

    @cached_property
    def _order(self) -> Poset:
        return pair_order([pt.pair for pt in self.points])

    @cached_property
    def leq(self) -> tuple[tuple[bool, ...], ...]:
        """leq[i][j]: point j lies in the closure of point i."""
        return self._order.leq

    def closure_of(self, i: int) -> tuple[int, ...]:
        return tuple(bits(self._order.up[i]))

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        return self._order.covers


def prim_space(g: Graph) -> PrimSpace:
    points = tuple(prime_points(g))
    status = "Primitive" if condition_K(g).holds else "PrimeOnly"
    space = PrimSpace(g, points, status)
    # raises on a repeated prime pair: distinct pairs make specialization antisymmetric
    check_antisymmetric(space._order.up, [pt.label for pt in points])
    return space


def prim_space_to_t0(ps: PrimSpace):
    """The prime-point poset as a finite T0 space (labels are point labels)."""
    labels = [pt.label for pt in ps.points]
    return FiniteT0Space.from_pairs(labels, ((labels[i], labels[j]) for i, j in ps.covers))


# -- exports -------------------------------------------------------------------


def prim_space_to_json_obj(ps: PrimSpace) -> dict:
    return {
        "status": ps.status,
        "points": [
            {**pt.to_json_obj(), "closure": list(ps.closure_of(i))}
            for i, pt in enumerate(ps.points)
        ],
    }


def prim_space_to_json(ps: PrimSpace) -> str:
    return json.dumps(prim_space_to_json_obj(ps), indent=2) + "\n"


def prim_space_to_dot(ps: PrimSpace) -> str:
    return to_dot("prim_space", (pt.label for pt in ps.points), ps.covers)


def prim_space_to_text(ps: PrimSpace) -> str:
    lines = [f"status: {ps.status}", f"points: {len(ps.points)}"]
    for i, pt in enumerate(ps.points):
        closure = ",".join(str(j) for j in ps.closure_of(i))
        lines.append(f"  [{i}] {pt.label} pair I_{{{pt.pair.label}}} closure [{closure}]")
    return "\n".join(lines) + "\n"
