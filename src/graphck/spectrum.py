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
canonical order inside.  The points and their order are read off the
prime-point kernel, whose one home is `Graph` (``Graph._tails``,
``Graph._breakers``, their masks ``Graph._primes`` and the pair order of
those, ``Graph._prime_order``).  By Birkhoff (*Rings of sets*, Duke Math. J.
1937) and Bates-Hong-Raeburn-Szymanski (Illinois J. Math. 2002) they also fix
every saturated hereditary set and admissible pair (see `conditions`,
`ideals`).
"""

from __future__ import annotations

from typing import Sequence

from .conditions import condition_K
from .graphs import Graph, encode_json
from .ideals import AdmissiblePair
from .poset import bits, cached_property, check_antisymmetric, record, to_dot


def maximal_tails(g: Graph) -> list[frozenset[str]]:
    """All maximal tails, ordered by size descending then canonical mask.

    A maximal tail is finite and downward directed, so some member y lies
    below all of its members, and being upward closed it is then exactly the
    set reachable from y.  Conversely, a set reachable from one vertex is
    upward closed and downward directed, and its complement is hereditary;
    it is a maximal tail iff that complement is saturated (``Graph._tails``).
    """
    return [g.unmask(M) for M in g._tails]


def breaking_vertices(g: Graph) -> list[str]:
    """Vertices with infinite in-degree that break over their own omega set."""
    return [g.vertices[i] for i in g._breakers]


@record
class PrimPoint:
    """A prime point: a maximal tail or a breaking vertex, with its pair."""

    kind: str  # "tail" | "breaking"
    tail: frozenset[str] | None
    vertex: str | None
    pair: AdmissiblePair

    @property
    def label(self) -> str:
        return self._label(self.pair.graph.sort_set(self.tail) if self.tail else ())

    def _label(self, tail: Sequence[str]) -> str:
        """The label, given the tail in canonical order."""
        return "Tail{" + ",".join(tail) + "}" if self.kind == "tail" else f"Breaking({self.vertex})"

    def to_json_obj(self) -> dict:
        tail = self.pair.graph.sort_set(self.tail) if self.tail else ()  # sorted once
        return {
            "kind": self.kind,
            "tail": list(tail) if self.tail else None,
            "vertex": self.vertex,
            "label": self._label(tail),
            "pair": self.pair.to_json_obj(),
        }


def prime_points(g: Graph) -> list[PrimPoint]:
    """One point per maximal tail, then one per breaking vertex."""
    kinds = [("tail", M, None) for M in maximal_tails(g)]
    kinds += [("breaking", None, v) for v in breaking_vertices(g)]
    return [
        PrimPoint(kind, tail, v, AdmissiblePair._of(g, h, b))
        for (kind, tail, v), (h, b) in zip(kinds, g._primes)
    ]


@record(init=False)
class PrimSpace:
    """The prime points of a graph and the status of the space: the value
    `prim_space` returns, never built from a list of points
    (``PrimSpace(g, points, status)`` and `dataclasses.replace` raise
    TypeError), so its points are always the graph's, in the order that
    ``graph._prime_order`` ranks."""

    graph: Graph
    points: tuple[PrimPoint, ...]
    status: str  # "Primitive" | "PrimeOnly"

    def __len__(self) -> int:
        return len(self.points)

    def closure_of(self, i: int) -> tuple[int, ...]:
        """The points in the closure of point i, i included."""
        return tuple(bits(self.graph._prime_order.up[i]))

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        return self.graph._prime_order.covers


def prim_space(g: Graph) -> PrimSpace:
    points = tuple(prime_points(g))
    status = "Primitive" if condition_K(g).holds else "PrimeOnly"
    space = PrimSpace.__new__(PrimSpace)
    space.__dict__.update(graph=g, points=points, status=status)
    # raises on a repeated prime pair: distinct pairs make specialization antisymmetric
    check_antisymmetric(g._prime_order.up, lambda i: points[i].label)
    return space


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
    return encode_json(prim_space_to_json_obj(ps))


def prim_space_to_dot(ps: PrimSpace) -> str:
    return to_dot("prim_space", (pt.label for pt in ps.points), ps.covers)


def prim_space_to_text(ps: PrimSpace) -> str:
    lines = [f"status: {ps.status}", f"points: {len(ps.points)}"]
    for i, pt in enumerate(ps.points):
        closure = ",".join(str(j) for j in ps.closure_of(i))
        lines.append(f"  [{i}] {pt.label} pair I_{{{pt.pair.label}}} closure [{closure}]")
    return "\n".join(lines) + "\n"
