"""Classification verdicts for the integer-graded bundle of a graph algebra.

The dictionary is: aperiodicity of the bundle is Condition (L), the residual
version is Condition (K), and each coincides with the corresponding
intersection property.  The grading group is the integers, which are
amenable, so the bundle is always exact.  Simplicity needs (L) plus a trivial
ideal lattice; pure infiniteness needs (K) plus every maximal-tail vertex
being fed by a cycle inside its tail.  Every verdict carries a
machine-checkable witness.

Vertex sets are frozensets of names at the public API, in the verdicts and
their witnesses, and int masks in canonical order inside.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .conditions import ConditionL, CycleWitness, condition_K, condition_L
from .graphs import Graph, Path
from .ideals import AdmissiblePair
from .poset import bits, union
from .spectrum import maximal_tails

# No(L) reasons for non-simplicity lean on standard graph-algebra theory
# (an entrance-less cycle yields a non-gauge-invariant ideal); the lattice
# reason is internal to this package.
_EXTERNAL_L_NOTE = (
    "necessity of Condition (L) for simplicity is standard graph-algebra "
    "theory, cited rather than derived here"
)


@dataclass(frozen=True)
class SimpleVerdict:
    verdict: str  # "yes" | "no"
    reason_kind: Optional[str] = None  # "nontrivial_lattice" | "condition_L_fails"
    pair: Optional[AdmissiblePair] = None
    cycle: Optional[Path] = None
    note: Optional[str] = None

    def to_json_obj(self) -> dict:
        obj: dict = {"verdict": self.verdict}
        if self.reason_kind == "nontrivial_lattice":
            obj["reason"] = {
                "kind": self.reason_kind,
                "pair": self.pair.to_json_obj(),
            }
        elif self.reason_kind == "condition_L_fails":
            obj["reason"] = {
                "kind": self.reason_kind,
                "cycle": list(self.cycle.walk_edge_ids()),
                "note": self.note,
            }
        else:
            obj["reason"] = None
        return obj


@dataclass(frozen=True)
class TailWitness:
    """Audit data for one tail vertex: a cycle and a path from it."""

    tail: frozenset[str]
    vertex: str
    cycle: Path
    connect: tuple[str, ...]  # edge ids in traversal order; empty if on cycle

    def to_json_obj(self) -> dict:
        g = self.cycle.graph
        return {
            "tail": list(g.sort_set(self.tail)),
            "vertex": self.vertex,
            "cycle": list(self.cycle.walk_edge_ids()),
            "path": list(self.connect),
        }


@dataclass(frozen=True)
class PurelyInfiniteVerdict:
    verdict: str  # "yes" | "no"
    # reason kinds: "fails_K" | "tail_vertex_not_fed_by_cycle" | "breaking_vertex_gap"
    reason_kind: Optional[str] = None
    vertex: Optional[str] = None
    tail: Optional[frozenset[str]] = None
    h_set: Optional[frozenset[str]] = None
    witnesses: tuple[TailWitness, ...] = ()

    def to_json_obj(self, g: Graph) -> dict:
        obj: dict = {"verdict": self.verdict}
        if self.reason_kind == "fails_K":
            obj["reason"] = {"kind": self.reason_kind, "vertex": self.vertex}
        elif self.reason_kind == "tail_vertex_not_fed_by_cycle":
            obj["reason"] = {
                "kind": self.reason_kind,
                "tail": list(g.sort_set(self.tail)),
                "vertex": self.vertex,
            }
        elif self.reason_kind == "breaking_vertex_gap":
            obj["reason"] = {
                "kind": self.reason_kind,
                "H": list(g.sort_set(self.h_set)),
                "vertex": self.vertex,
            }
        else:
            obj["reason"] = None
        return obj


@dataclass(frozen=True)
class ClassificationReport:
    graph: Graph
    aperiodic: bool
    residually_aperiodic: bool
    intersection_property: bool
    residual_intersection: bool
    exact: bool
    ideal_property_of_crossproduct: str  # "yes" | "unknown"
    dual_system_topologically_free: str  # "yes" | "no" | "unknown"
    simple: SimpleVerdict
    purely_infinite: PurelyInfiniteVerdict
    condition_L_witness: Optional[object] = None  # CycleWitness on failure
    condition_K_witness: Optional[str] = None

    def to_json_obj(self) -> dict:
        witnesses: dict = {}
        if self.condition_L_witness is not None:
            witnesses["condition_L"] = {
                "cycle": list(self.condition_L_witness.cycle.walk_edge_ids()),
                "entrances": [e.id for e in self.condition_L_witness.entrance_edges],
            }
        else:
            witnesses["condition_L"] = None
        witnesses["condition_K"] = (
            {"vertex": self.condition_K_witness}
            if self.condition_K_witness is not None
            else None
        )
        witnesses["purely_infinite"] = (
            [w.to_json_obj() for w in self.purely_infinite.witnesses]
            if self.purely_infinite.verdict == "yes"
            else None
        )
        return {
            "aperiodic": self.aperiodic,
            "residually_aperiodic": self.residually_aperiodic,
            "intersection_property": self.intersection_property,
            "residual_intersection": self.residual_intersection,
            "exact": self.exact,
            "ideal_property_of_crossproduct": self.ideal_property_of_crossproduct,
            "dual_system_topologically_free": self.dual_system_topologically_free,
            "simple": self.simple.to_json_obj(),
            "purely_infinite": self.purely_infinite.to_json_obj(self.graph),
            "witnesses": witnesses,
            "limit_exceeded": False,  # verdicts are always decided; kept for the schema
        }


def is_simple(g: Graph):
    """Simplicity verdict: Condition (L) plus a trivial ideal lattice.

    The witness is the canonically first nontrivial saturated hereditary set.
    It has the least size, and a nontrivial set H of least size is generated
    by any of its vertices v: the saturated hereditary closure of {v} lies in
    H, is nonempty and is not everything, so it is H.
    """
    # the members of a component share their ancestors
    generated = {g._sh_closure(c & -c) for c in g._comps} - {g._full}
    if generated:
        h = min(generated, key=lambda m: (m.bit_count(), m))
        pair = AdmissiblePair._of(g, h, 0)
        return SimpleVerdict("no", "nontrivial_lattice", pair=pair)
    L = condition_L(g)
    if not L.holds:
        return SimpleVerdict(
            "no", "condition_L_fails", cycle=L.witness.cycle, note=_EXTERNAL_L_NOTE
        )
    return SimpleVerdict("yes")


def _paths_from(g: Graph, src: str) -> dict[str, tuple[str, ...]]:
    """Edge ids of a shortest path from src to each vertex it reaches, in
    traversal order: the BFS tree keeping the first edge found into each."""
    paths = {src: ()}
    frontier = [src]
    while frontier:
        nxt = []
        for u in frontier:
            for e in g.out_edges_by_vertex[u]:
                if e.rng not in paths:
                    paths[e.rng] = paths[u] + (e.id,)
                    nxt.append(e.rng)
        frontier = nxt
    return paths


def is_purely_infinite(g: Graph) -> PurelyInfiniteVerdict:
    """Pure infiniteness: Condition (K), cycles feeding every tail vertex,
    and no infinite-receiver gaps anywhere in the ideal lattice.

    Under (K), any cycle met inside a tail automatically has an entrance
    inside the tail: paths starting in a tail stay in it, so the two
    first-return paths at a cycle vertex diverge inside the tail.

    The gap clause: if some saturated hereditary H admits a vertex v in its
    breaking range, the quotient by (H, empty B) keeps the gap projection of
    v as a fresh source vertex whose corner is one-dimensional, a finite
    projection.  Pure infiniteness passes to quotients, so such a graph is
    never purely infinite.  A vertex v breaks over H only if H holds every
    source of an infinite edge bundle into v, so H contains the saturated
    hereditary closure Hmin(v) of those sources; and v then already breaks
    over Hmin(v), which is no larger.  So the canonically first H with a
    breaking vertex is some Hmin(v).

    The clauses are decided on masks, in this order; the witnesses, one per
    (maximal tail, member), are built only for a "yes", which reports them.
    """
    K = condition_K(g)
    if not K.holds:
        return PurelyInfiniteVerdict("no", "fails_K", vertex=K.witness)
    for m in g._tails:
        # a tail is forward-closed: what its cycle vertices reach is what they feed
        unfed = m & ~union(g._reach, g._cyclic & m)
        if unfed:
            v = g.vertices[next(bits(unfed))]
            return PurelyInfiniteVerdict(
                "no", "tail_vertex_not_fed_by_cycle", vertex=v, tail=g.unmask(m)
            )
    gap_sets = []
    for i in bits(g._in.infinite):
        h = g._sh_closure(g._in.omega[i])
        if g._breaking(h) >> i & 1:
            gap_sets.append(h)
    if gap_sets:
        h = min(gap_sets, key=lambda m: (m.bit_count(), m))
        gap = g.vertices[next(bits(g._breaking(h)))]
        return PurelyInfiniteVerdict("no", "breaking_vertex_gap", vertex=gap, h_set=g.unmask(h))
    return PurelyInfiniteVerdict("yes", witnesses=_tail_witnesses(g))


def _tail_witnesses(g: Graph) -> tuple[TailWitness, ...]:
    """Per maximal tail and member v, a cycle at the first cycle vertex y of
    the tail that reaches v, and the BFS-tree path from y to v; one cycle and
    one tree per y.  The searches stay inside the tail, which is forward-closed."""
    witnesses, cycles, trees = [], {}, {}
    for M, m in zip(maximal_tails(g), g._tails):
        on_cycle = g._cyclic & m
        for i in bits(m):
            v, y = g.vertices[i], g.vertices[next(bits(g._back[i] & on_cycle))]
            if y not in trees:
                cycles[y], trees[y] = g._cycle_at(y), _paths_from(g, y)
            witnesses.append(TailWitness(M, v, cycles[y], trees[y][v]))
    return tuple(witnesses)


def classify(g: Graph) -> ClassificationReport:
    # (K) is decided once, by is_purely_infinite: fails_K exactly when it fails.
    # (L) is read off is_simple, unless a nontrivial lattice decided that first.
    simple, purely_infinite = is_simple(g), is_purely_infinite(g)
    if simple.reason_kind == "nontrivial_lattice":
        L = condition_L(g)
    elif simple.reason_kind == "condition_L_fails":
        L = ConditionL(False, CycleWitness.for_cycle(g, simple.cycle))
    else:
        L = ConditionL(True)
    K_fails = purely_infinite.reason_kind == "fails_K"
    # the equivalence is only available for finite graphs
    dual_tf = "unknown" if any(g._in.omega) else "yes" if L.holds else "no"

    return ClassificationReport(
        graph=g,
        aperiodic=L.holds,
        residually_aperiodic=not K_fails,
        intersection_property=L.holds,
        residual_intersection=not K_fails,
        exact=True,  # integer grading; amenable groups give exact bundles
        ideal_property_of_crossproduct="unknown" if K_fails else "yes",
        dual_system_topologically_free=dual_tf,
        simple=simple,
        purely_infinite=purely_infinite,
        condition_L_witness=L.witness,
        condition_K_witness=purely_infinite.vertex if K_fails else None,
    )


def report_to_json(report: ClassificationReport) -> str:
    return json.dumps(report.to_json_obj(), indent=2) + "\n"


def report_to_text(report: ClassificationReport) -> str:
    g = report.graph

    def mark(b) -> str:
        if isinstance(b, bool):
            return "yes" if b else "no"
        return b

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
        hs = ",".join(g.sort_set(p.h_set))
        lines.append(
            "purely infinite:                     "
            f"no: {p.vertex} keeps an infinite-receiver gap over H={{{hs}}} "
            f"(finite corner in the quotient)"
        )
    else:
        tail = ",".join(g.sort_set(p.tail))
        lines.append(
            "purely infinite:                     "
            f"no: vertex {p.vertex} in tail {{{tail}}} is not fed by a cycle"
        )
    return "\n".join(lines) + "\n"
