"""Admissible pairs (H, B) and their lattice.

A pair consists of a saturated hereditary vertex set H together with a set B
of infinite receivers outside H that have finitely many (and at least one)
in-edges from outside H.  The pairs, ordered by

    (H, B) <= (H', B')   iff   H is contained in H' and B in H' | B',

form a lattice naming the gauge-invariant (equivalently graded) ideals
I_{H,B} of the graph algebra.

The lattice is distributive and its meet-irreducibles are the prime points
(Bates-Hong-Raeburn-Szymanski, Illinois J. Math. 2002), so by Birkhoff's
theorem (*Rings of sets*, Duke Math. J. 1937) the pairs are the meets (AND
of H, AND of H | B) over the up-sets of prime points, one each.  A pair's
label is the up-set of prime points above it, and the lattice tables are read
off the labels: the meet of two pairs is the pair labelled by the union of
their labels, the join by the intersection, and j covers i when j's label is
i's less one prime.  The JSON export renders its tables straight from the
labels and the up-sets of pairs, building no tuple table, and streams the
document row by row to a stream it is given, so its memory is the lattice
plus one table row, not the P^2 cells of the three tables.  The prime points
and the breaking ranges come from the kernel whose one home is `Graph`
(``Graph._primes``, ``Graph._breaking``, ``Graph._sh_closure``).

Vertex sets are frozensets of names at the public API, including the
members ``h`` and ``b`` of `AdmissiblePair`, and int masks in canonical order
inside: a pair is its masks, checked when it is built, and the library builds
its pairs from masks.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence, TextIO, TypeVar

from .graphs import DEFAULT_LIMIT, Edge, Graph, LimitExceededError
from .poset import Poset, bits, cached_property, clip, subset_order, to_dot

T = TypeVar("T")


def breaking_vertices_of(g: Graph, H: Iterable[str]) -> frozenset[str]:
    """Infinite receivers outside H fed finitely (but not zero) from outside H.

    This is the admissible range for the B component of a pair over H.
    """
    H = frozenset(H)
    h = g.mask(H)
    if g._sh_closure(h) != h:
        raise ValueError(f"not a saturated hereditary set: {clip(sorted(H))}")
    return g.unmask(g._breaking(h))


@dataclass(frozen=True, init=False)
class AdmissiblePair:
    """A saturated hereditary set with a choice of breaking vertices.

    Stands for the ideal I_{H,B}; the pair is the ideal's name, operator
    data is never materialized.  The pair is H and B as masks (``_h``,
    ``_b``), checked on every construction: from names, which it masks, or
    from masks (``_of``).  The check keeps the admissible range of B over H
    as the mask ``_range``, which `quotient_graph` reads; it is not a field,
    so equality and hashing see H and B only.  The labels, the pair order,
    the lattice and `quotient_graph` read the masks; the name sets ``h`` and
    ``b`` are built when first read.
    """

    graph: Graph
    _h: int
    _b: int

    def __init__(self, graph: Graph, h: Iterable[str], b: Iterable[str]):
        H, B = frozenset(h), frozenset(b)
        unknown = [v for v in B if v not in graph._index]  # outside every range
        self._check(graph, graph.mask(H), graph.mask(B.difference(unknown)), unknown)
        self.__dict__.update(h=H, b=B)

    @classmethod
    def _of(cls, graph: Graph, h: int, b: int) -> "AdmissiblePair":
        """The pair of the masks h and b, checked as one built from names."""
        pair = cls.__new__(cls)
        pair._check(graph, h, b, ())
        return pair

    def _check(self, g: Graph, h: int, b: int, unknown: Sequence[str]) -> None:
        """Check h and b as the masks of a pair of g, unknown holding the
        names of B that g lacks, and keep them."""
        if g._sh_closure(h) != h:
            raise ValueError(f"not a saturated hereditary set: {clip(sorted(g.unmask(h)))}")
        allowed = g._breaking(h)
        extra = b & ~allowed
        if extra or unknown:
            raise ValueError(
                f"B contains vertices outside the admissible range for H: "
                f"{clip(sorted([*g.unmask(extra), *unknown]))}"
            )
        self.__dict__.update(graph=g, _h=h, _b=b, _range=allowed)

    @cached_property
    def h(self) -> frozenset[str]:
        return self.graph.unmask(self._h)

    @cached_property
    def b(self) -> frozenset[str]:
        return self.graph.unmask(self._b)

    @property
    def label(self) -> str:
        g = self.graph
        return "H={" + ",".join(g.names(self._h)) + "};B={" + ",".join(g.names(self._b)) + "}"

    def to_json_obj(self) -> dict:
        g = self.graph
        return {"H": list(g.names(self._h)), "B": list(g.names(self._b))}


def _same_graph(p: AdmissiblePair, q: AdmissiblePair) -> None:
    if p.graph != q.graph:
        raise ValueError("pairs belong to different graphs")


def pair_leq(p: AdmissiblePair, q: AdmissiblePair) -> bool:
    _same_graph(p, q)
    return not p._h & ~q._h and not p._b & ~(q._h | q._b)


def _rows(g: Graph, hbs: Iterable[tuple[int, int]]) -> list[int]:
    """Each pair (H, B) of g as the mask H | (H | B) << n: pair_leq is
    inclusion of these masks, and the meet of pairs is their AND."""
    n = len(g.vertices)
    return [h | (h | b) << n for h, b in hbs]


def pair_order(pairs: Sequence[AdmissiblePair]) -> Poset:
    """The pairs ordered by pair_leq, as one bitmask up-set per pair."""
    if not pairs:
        return Poset(())
    for p in pairs:
        _same_graph(pairs[0], p)
    g = pairs[0].graph
    return subset_order(_rows(g, [(p._h, p._b) for p in pairs]), 2 * len(g.vertices))


@dataclass(frozen=True)
class IdealLattice:
    """The pairs of a graph from bottom to top, in any order between.

    The tables need the whole lattice: the first read of `leq`, `covers`,
    `meet_table` or `join_table` raises ValueError on a pair of another
    graph, a pair listed twice, or a list missing some pair.
    """

    graph: Graph
    pairs: tuple[AdmissiblePair, ...]

    def __post_init__(self):
        if not self.pairs:
            raise ValueError("no pairs: a lattice holds at least the bottom")
        bottom = self.pairs[0]
        top = self.pairs[-1]
        if bottom._h or bottom._b:
            raise ValueError(f"first pair {bottom.label} is not the bottom (H={{}}, B={{}})")
        if top._h != self.graph._full or top._b:
            raise ValueError(f"last pair {top.label} is not the top (H=V, B={{}})")

    def __len__(self) -> int:
        return len(self.pairs)

    @cached_property
    def _labels(self) -> tuple[int, ...]:
        """Per pair, bit k set when the pair lies below the prime point
        ``graph._primes[k]``."""
        g = self.graph
        if any(p.graph != g for p in self.pairs):
            raise ValueError("pairs belong to different graphs")
        primes = _rows(g, g._primes)
        return tuple(
            sum([1 << k for k, q in enumerate(primes) if not r & ~q])
            for r in _rows(g, [(p._h, p._b) for p in self.pairs])
        )

    @cached_property
    def _hasse(self) -> tuple[dict[int, int], tuple[tuple[int, ...], ...]]:
        """The pair index of each label, and per pair the pairs covering it,
        ascending: a cover takes one minimal prime off the label.

        Raises ValueError unless the pairs are the whole lattice.  Every label
        is an up-set of prime points and the bottom's holds them all, so the
        labels are every up-set once when none repeats and every label less
        one of its minimal primes is a label too."""
        labels = self._labels
        index = {u: i for i, u in enumerate(labels)}
        if len(index) < len(labels):
            twice = next(i for i, u in enumerate(labels) if index[u] != i)
            raise ValueError(f"pair {self.pairs[twice].label} is listed twice")
        g = self.graph
        below = subset_order(_rows(g, g._primes), 2 * len(g.vertices)).down
        upper = []
        for i, u in enumerate(labels):
            try:
                js = [index[u ^ 1 << k] for k in bits(u) if below[k] & u == 1 << k]
            except KeyError:
                missing = f"a pair covering {self.pairs[i].label} is missing"
                raise ValueError(f"not the whole lattice: {missing}") from None
            upper.append(tuple(sorted(js)))
        return index, tuple(upper)

    @cached_property
    def _up(self) -> tuple[int, ...]:
        """Per pair, the mask of the pairs above it, built along the covers
        from the top (no prime above) down."""
        labels, upper = self._labels, self._hasse[1]
        up = [0] * len(labels)
        for i in sorted(range(len(labels)), key=lambda i: labels[i].bit_count()):
            m = 1 << i
            for j in upper[i]:
                m |= up[j]
            up[i] = m
        return tuple(up)

    @cached_property
    def leq(self) -> tuple[tuple[bool, ...], ...]:
        return Poset(self._up).leq

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Pairs (i, j) in ascending order where j covers i: i < j with nothing between."""
        return tuple((i, j) for i, js in enumerate(self._hasse[1]) for j in js)

    def _meet_rows(self, value: Mapping[int, T]) -> Iterator[list[T]]:
        """Per pair, value at the label of its meet with each pair: the meet
        of two pairs is labelled by the union of their labels."""
        labels = self._labels
        return ([value[a | b] for b in labels] for a in labels)

    def _join_rows(self, value: Mapping[int, T]) -> Iterator[list[T]]:
        """Per pair, value at the label of its join with each pair: the join
        of two pairs is labelled by the intersection of their labels."""
        labels = self._labels
        return ([value[a & b] for b in labels] for a in labels)

    @cached_property
    def meet_table(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self._meet_rows(self._hasse[0])))

    @cached_property
    def join_table(self) -> tuple[tuple[int, ...], ...]:
        return tuple(map(tuple, self._join_rows(self._hasse[0])))


def admissible_pairs(g: Graph, limit: int = DEFAULT_LIMIT) -> IdealLattice:
    """All admissible pairs of g, in canonical order, as a lattice: the meets
    over the up-sets of prime points (see the module docstring)."""
    n = len(g.vertices)
    if n > limit:
        raise LimitExceededError(n, limit)
    rows = _rows(g, g._primes)
    meets = subset_order(rows, 2 * n).upset_meets(rows, g._full | g._full << n)
    hbs = sorted(
        ((m & g._full, m >> n & ~m) for m in meets),
        key=lambda hb: (hb[0].bit_count(), hb[0], hb[1].bit_count(), hb[1]),
    )
    return IdealLattice(g, tuple(AdmissiblePair._of(g, h, b) for h, b in hbs))


def quotient_graph(g: Graph, p: AdmissiblePair) -> Graph:
    """The graph whose algebra is the quotient by the ideal named by p.

    Vertices outside H survive; every edge with source outside H is kept
    verbatim (heredity already rules out edges entering H from outside, and
    edges leaving H die with H).  Every admissible-range vertex v left out of
    B keeps its infinite-receiver gap: a fresh source vertex v~ is added with
    a single edge v~ -> v carrying the gap.
    """
    if p.graph != g:
        raise ValueError("pair does not belong to this graph")
    h, index = p._h, g._index
    keep = g.names(g._full & ~h)
    edges = [e for e in g.edges if not h >> index[e.src] & 1]
    gaps = p._range & ~p._b
    if gaps:
        # a gap name may equal the name of a vertex in H, which is gone
        taken, edge_ids, bars = set(keep), {e.id for e in edges}, []
        for v in g.names(gaps):
            name, eid = v + "~", "e~" + v
            while name in taken:
                name += "~"
            while eid in edge_ids:
                eid += "~"
            taken.add(name)
            edge_ids.add(eid)
            bars.append(name)
            edges.append(Edge(id=eid, src=name, rng=v, mult=1))
        keep += tuple(bars)
    return Graph(vertices=keep, edges=tuple(edges))


# -- exports -------------------------------------------------------------------


def _array(items: Iterable[str], depth: int) -> str:
    """A JSON array laid out as json.dumps(obj, indent=2) lays it out, its
    items already rendered (none empty) and indented by depth * 2 spaces."""
    pad = "\n" + "  " * depth
    body = ("," + pad).join(items)
    return f"[{pad}{body}{pad[:-2]}]" if body else "[]"


def _field(opening: str, key: str, items: Iterable[str]) -> Iterator[str]:
    """A field of the lattice document in pieces: its header, each item (a
    rendered array element at depth 2) and the closing bracket, laid out as
    json.dumps(obj, indent=2) lays them out."""
    yield f'{opening}\n  "{key}": ['
    sep = "\n    "
    for item in items:
        yield sep + item
        sep = ",\n    "
    yield "]" if sep == "\n    " else "\n  ]"


def lattice_to_json(lat: IdealLattice, out: TextIO | None = None) -> str | None:
    """The lattice as json.dumps(obj, indent=2) would print it, rendered
    from the masks, the labels and the up-sets: no table is built.

    The document is written in pieces, one per field header, array element
    and closing bracket, so a table row is the largest: given `out`, each
    piece is written to it and the writer holds the lattice plus one row;
    without, the pieces are joined and returned.  A list of pairs that is
    not the whole lattice raises ValueError before anything is written.
    """
    index, _ = lat._hasse  # read before the first piece: a refused lattice writes nothing
    up = lat._up
    quoted = [json.dumps(v) for v in lat.graph.vertices]  # each name quoted once
    cell = {u: ",\n      " + str(i) for u, i in index.items()}  # a table cell, per label
    width = f"0{len(lat)}b"

    def names(m: int) -> str:
        return _array([quoted[i] for i in bits(m)], 4)

    def table(rows: Iterator[list[str]]) -> Iterator[str]:
        return ("[" + "".join(row)[1:] + "\n    ]" for row in rows)

    pairs = (f'{{\n      "H": {names(p._h)},\n      "B": {names(p._b)}\n    }}' for p in lat.pairs)
    leq = (
        _array(format(m, width)[::-1], 3).replace("0", "false").replace("1", "true")
        for m in up
    )
    fields = (
        ("{", "vertices", quoted),
        (",", "pairs", pairs),
        (",", "labels", (json.dumps(p.label) for p in lat.pairs)),
        (",", "leq", leq),
        (",", "covers", (_array((str(i), str(j)), 3) for i, j in lat.covers)),
        (",", "meet", table(lat._meet_rows(cell))),
        (",", "join", table(lat._join_rows(cell))),
    )
    pieces = itertools.chain(*(_field(*f) for f in fields), ("\n}\n",))
    if out is None:
        return "".join(pieces)
    for piece in pieces:
        out.write(piece)


def lattice_to_dot(lat: IdealLattice) -> str:
    return to_dot("ideal_lattice", (p.label for p in lat.pairs), lat.covers)


def lattice_to_text(lat: IdealLattice) -> str:
    lines = [f"admissible pairs: {len(lat.pairs)}"]
    for i, p in enumerate(lat.pairs):
        lines.append(f"  [{i}] I_{{{p.label}}}")
    lines.append("cover relations (lower -> upper):")
    if not lat.covers:
        lines.append("  none")
    for i, j in lat.covers:
        lines.append(f"  [{i}] -> [{j}]")
    return "\n".join(lines) + "\n"
