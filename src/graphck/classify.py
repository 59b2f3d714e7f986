"""Classification verdicts for the integer-graded bundle of a graph algebra.

The dictionary is: aperiodicity of the bundle is Condition (L), the residual
version is Condition (K), and each coincides with the corresponding
intersection property.  The grading group is the integers, which are
amenable, so the bundle is always exact.  Simplicity needs (L) plus a trivial
ideal lattice; pure infiniteness needs (K) plus every maximal-tail vertex
being fed by a cycle inside its tail.  Every verdict carries a
machine-checkable witness, but is decided without it, from the kernel
masks: a "no" keeps its witness as data (the mask of a set, or the index of
a cycle vertex), and the witness object is built once, on its first read.
A nontrivial lattice keeps only its graph; the least nontrivial saturated
hereditary set that names it is found on first read too.
The tail witnesses of a pure-infiniteness "yes" are rendered by the JSON
report, which alone prints them.  Both reports read a verdict's reason
from its `reason` property, so the two formats give the same reason.

Vertex sets are frozensets of names at the public API, and int masks in
canonical order inside and in the verdicts' fields.
"""

from __future__ import annotations

from typing import Optional

from .conditions import CycleWitness, entranceless_cycle_at
from .graphs import Graph, Path, encode_json
from .ideals import AdmissiblePair, pair_label
from .poset import bits, cached_property, record, union

# No(L) reasons for non-simplicity lean on standard graph-algebra theory
# (an entrance-less cycle yields a non-gauge-invariant ideal); the lattice
# reason is internal to this package.
_EXTERNAL_L_NOTE = (
    "necessity of Condition (L) for simplicity is standard graph-algebra "
    "theory, cited rather than derived here"
)


@record
class SimpleVerdict:
    """Whether the algebra is simple, and why not: a nontrivial pair, found
    on first read, or a cycle, kept as the index of its first vertex and
    built from it on first read."""

    verdict: str  # "yes" | "no"
    reason_kind: Optional[str] = None  # "nontrivial_lattice" | "condition_L_fails"
    graph: Optional[Graph] = None  # set on a "no"
    cycle_at: Optional[int] = None  # the entrance-less cycle's first vertex
    note: Optional[str] = None

    @cached_property
    def h_mask(self) -> Optional[int]:
        """H of the pair (H, empty B) of a nontrivial lattice: the least
        nonempty part of a tail that no other tail holds (see `is_simple`)."""
        if self.reason_kind != "nontrivial_lattice":
            return None
        tails, seen, shared = self.graph._tails, 0, 0
        for t in tails:
            shared |= seen & t
            seen |= t
        h = self.graph._full
        for t in tails:
            m = t & ~shared
            if m and (m.bit_count(), m) < (h.bit_count(), h):
                h = m
        return h

    @cached_property
    def pair(self) -> Optional[AdmissiblePair]:
        return None if self.h_mask is None else AdmissiblePair._of(self.graph, self.h_mask, 0)

    @cached_property
    def cycle(self) -> Optional[Path]:
        g, j = self.graph, self.cycle_at
        return None if j is None else g._cycle_at(g.vertices[j])

    @property
    def reason(self) -> Optional[dict]:
        """What both reports print for the verdict, built afresh on each
        read: the kind with the pair or the cycle, or None for a "yes"."""
        if self.reason_kind == "nontrivial_lattice":
            return {"kind": self.reason_kind, "pair": self.pair.to_json_obj()}
        if self.reason_kind == "condition_L_fails":
            return {"kind": self.reason_kind, "cycle": list(self.cycle.walk_edge_ids()), "note": self.note}
        return None

    def to_json_obj(self) -> dict:
        return {"verdict": self.verdict, "reason": self.reason}


@record
class PurelyInfiniteVerdict:
    """Whether the algebra is purely infinite, and the reason why not: a
    vertex, with the mask of its tail or of H; the name sets ``tail`` and
    ``h_set`` are built from the masks on first read."""

    verdict: str  # "yes" | "no"
    # reason kinds: "fails_K" | "tail_vertex_not_fed_by_cycle" | "breaking_vertex_gap"
    reason_kind: Optional[str] = None
    vertex: Optional[str] = None
    graph: Optional[Graph] = None  # set with either mask
    tail_mask: Optional[int] = None
    h_mask: Optional[int] = None

    @cached_property
    def tail(self) -> Optional[frozenset[str]]:
        return None if self.tail_mask is None else self.graph.unmask(self.tail_mask)

    @cached_property
    def h_set(self) -> Optional[frozenset[str]]:
        return None if self.h_mask is None else self.graph.unmask(self.h_mask)

    @property
    def reason(self) -> Optional[dict]:
        """What both reports print for the verdict, built afresh on each read:
        the kind, the tail or H the verdict holds a mask of, and the vertex."""
        if self.reason_kind is None:
            return None
        reason: dict = {"kind": self.reason_kind}
        for key, m in (("tail", self.tail_mask), ("H", self.h_mask)):
            if m is not None:
                reason[key] = list(self.graph.names(m))
        reason["vertex"] = self.vertex
        return reason

    def to_json_obj(self) -> dict:
        return {"verdict": self.verdict, "reason": self.reason}


@record
class ClassificationReport:
    """Every verdict `classify` gives on a graph, with the witnesses: the
    (L) one is kept as the index of the cycle's first vertex, and built with
    its entrances on first read."""

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
    condition_L_cycle_at: Optional[int] = None  # set when (L) fails
    condition_K_witness: Optional[str] = None

    @cached_property
    def condition_L_witness(self) -> Optional[CycleWitness]:
        if self.condition_L_cycle_at is None:
            return None
        g = self.graph  # the simple verdict's cycle, when (L) decided it, is this one
        cycle = self.simple.cycle or g._cycle_at(g.vertices[self.condition_L_cycle_at])
        return CycleWitness.for_cycle(g, cycle)

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
            _tail_witnesses(self.graph)
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
            "purely_infinite": self.purely_infinite.to_json_obj(),
            "witnesses": witnesses,
            "limit_exceeded": False,  # verdicts are always decided; kept for the schema
        }


def is_simple(g: Graph) -> SimpleVerdict:
    """Simplicity verdict: Condition (L) plus a trivial ideal lattice.

    The saturated hereditary closure of a vertex v is everything outside the
    maximal tails that miss v (see `graphs`): it holds v, and it is not
    everything exactly when some tail misses v.  Of two distinct tails one
    misses a vertex, so the lattice is trivial, and (L) decides, exactly when
    there is at most one tail.  Otherwise the witness, found on its first
    read (`SimpleVerdict.h_mask`), is the canonically first nontrivial
    saturated hereditary set: it has the least size, so it is the closure of
    any of its vertices, which lies in it and is nontrivial.  That closure
    holds the closure of a source component c above the vertex (a
    hereditary set holds the ancestors of its members), and c lies in one
    tail only, its reach row, so c's closure is the part of that tail that
    no other tail holds.  A tail inside another has no such part; the
    witness is the least nonempty one.
    """
    if len(g._tails) > 1:
        return SimpleVerdict("no", "nontrivial_lattice", g)
    j = entranceless_cycle_at(g)
    if j is not None:
        return SimpleVerdict("no", "condition_L_fails", g, j, _EXTERNAL_L_NOTE)
    return SimpleVerdict("yes")


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

    The clauses are decided on masks, in this order; (K) is read off the
    kernel mask, as `condition_K` reads it.  The tail witnesses of a "yes"
    are not built here: the JSON report renders them.
    """
    one = g._one_return
    if one:
        return PurelyInfiniteVerdict("no", "fails_K", g.vertices[(one & -one).bit_length() - 1])
    for m in g._tails:
        # a tail is forward-closed: what its cycle vertices reach is what they feed
        unfed = m & ~union(g._reach, g._cyclic & m)
        if unfed:
            v = g.vertices[next(bits(unfed))]
            return PurelyInfiniteVerdict("no", "tail_vertex_not_fed_by_cycle", v, g, m)
    gap_sets = []
    for i in bits(g._in.infinite):
        h = g._sh_closure(g._in.omega[i])
        if g._breaking(h) >> i & 1:
            gap_sets.append(h)
    if gap_sets:
        h = min(gap_sets, key=lambda m: (m.bit_count(), m))
        gap = g.vertices[next(bits(g._breaking(h)))]
        return PurelyInfiniteVerdict("no", "breaking_vertex_gap", gap, g, None, h)
    return PurelyInfiniteVerdict("yes")


def _tail_witnesses(g: Graph) -> list[dict]:
    """The ``witnesses.purely_infinite`` list of a "yes": per maximal tail and
    member v, a cycle at the first cycle vertex y of the tail that reaches v,
    and the edge ids from y to v in the BFS tree that keeps the first edge
    found into each vertex, in canonical edge order.  One cycle and one
    parent-edge tree per y; the searches stay inside the tail, which is
    forward-closed."""
    out, cycles, trees = [], {}, {}
    for m in g._tails:
        tail, feeder, todo = g.names(m), {}, m
        for j in bits(g._cyclic & m):
            for i in bits(g._reach[j] & todo):
                feeder[i] = g.vertices[j]
            todo &= ~g._reach[j]
        for v, i in zip(tail, bits(m)):
            y = feeder[i]
            if y not in trees:
                cycles[y], trees[y] = g._cycle_at(y).walk_edge_ids(), _bfs_tree(g, y)
            path, u, into = [], v, trees[y]
            while u != y:
                path.append(into[u].id)
                u = into[u].src
            path.reverse()
            out.append({"tail": list(tail), "vertex": v, "cycle": list(cycles[y]), "path": path})
    return out


def _bfs_tree(g: Graph, src: str) -> dict:
    """The first edge found into each vertex src reaches, by BFS."""
    into, order = {src: None}, [src]
    for u in order:  # the loop reads what it appends: a FIFO queue
        for e in g.out_edges_by_vertex[u]:
            if e.rng not in into:
                into[e.rng] = e
                order.append(e.rng)
    return into


def classify(g: Graph) -> ClassificationReport:
    # (K) is decided once, by is_purely_infinite: fails_K exactly when it fails.
    # (L) is read off is_simple, unless a nontrivial lattice decided that first;
    # then (K) implies it: (K) rejects an entrance-less cycle, a component each
    # of whose members has one source, inside it and not repeated.
    simple, purely_infinite = is_simple(g), is_purely_infinite(g)
    K_fails = purely_infinite.reason_kind == "fails_K"
    if simple.reason_kind == "nontrivial_lattice" and K_fails:
        L_fails_at = entranceless_cycle_at(g)
    else:
        L_fails_at = simple.cycle_at
    L_holds = L_fails_at is None
    # the equivalence is only available for finite graphs
    dual_tf = "unknown" if g._in.infinite else "yes" if L_holds else "no"

    return ClassificationReport(
        g,
        L_holds, not K_fails,  # aperiodic, residually aperiodic
        L_holds, not K_fails,  # the intersection property, residual or not
        True,  # exact: integer grading; amenable groups give exact bundles
        "unknown" if K_fails else "yes",  # ideal property of the crossed product
        dual_tf,
        simple, purely_infinite,
        L_fails_at, purely_infinite.vertex if K_fails else None,  # the (L) and (K) witnesses
    )


def report_to_json(report: ClassificationReport) -> str:
    return encode_json(report.to_json_obj())


_REASON_TEXT = {
    "nontrivial_lattice": "nontrivial ideal I_{%(pair)s}",
    "condition_L_fails": "entrance-less cycle [%(cycle)s]",
    "fails_K": "Condition (K) fails at %(vertex)s",
    "tail_vertex_not_fed_by_cycle": "vertex %(vertex)s in tail {%(tail)s} is not fed by a cycle",
    "breaking_vertex_gap": "%(vertex)s keeps an infinite-receiver gap over H={%(H)s}"
        " (finite corner in the quotient)",
}


def _reason_text(reason: dict) -> str:
    """A verdict's reason in the text report's words: its kind's template
    filled in, each list of names joined by commas and the pair labelled."""
    fields = {k: ",".join(v) if type(v) is list else v for k, v in reason.items()}
    if "pair" in reason:
        fields["pair"] = pair_label(**reason["pair"])
    return _REASON_TEXT[reason["kind"]] % fields


def report_to_text(report: ClassificationReport) -> str:
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
    for head, v in (("simple:", report.simple), ("purely infinite:", report.purely_infinite)):
        line, reason = f"{head:<37}{v.verdict}", v.reason
        lines.append(line if reason is None else f"{line}: {_reason_text(reason)}")
    return "\n".join(lines) + "\n"
