"""Admissible pairs (H, B) and their lattice.

A pair consists of a saturated hereditary vertex set H together with a set B
of infinite receivers outside H that have finitely many (and at least one)
in-edges from outside H.  The pairs, ordered by

    (H, B) <= (H', B')   iff   H is contained in H' and B in H' | B',

form a lattice naming the gauge-invariant (equivalently graded) ideals
I_{H,B} of the graph algebra.  `admissible_pairs` is the one producer of
`IdealLattice`, so a lattice always holds every pair of its graph once.

The lattice is distributive and its meet-irreducibles are the prime points
(Bates-Hong-Raeburn-Szymanski, Illinois J. Math. 2002), so by Birkhoff's
theorem (*Rings of sets*, Duke Math. J. 1937) the pairs are the meets (AND
of H, AND of H | B) over the up-sets of prime points, one each.  A pair's
label is the up-set of prime points above it, which is the up-set whose meet
the enumeration took: it is kept as the enumeration walked it.  The lattice
tables are read off the labels: the meet of two pairs is the pair labelled by
the union of their labels, the join by the intersection, and j covers i when
j's label is i's less one prime.

The JSON export renders its tables straight from the labels and the up-sets
of pairs, building no tuple table: a ``leq`` row joins one piece per byte of
the pair's up-set from a module table of 256 pieces, and a ``meet`` or
``join`` row one cell per pair.  Each vertex name is quoted once, by json's C
quoter, and the pairs' name lists are joined from those quoted names; a
pair's label is quoted from `AdmissiblePair.label`, not joined from the
quoted names.  The document streams row by row to a stream it is given, so
its memory is the lattice plus one table row, not the P^2 cells of the three
tables.

The prime points, their order and the breaking ranges come from the kernel
whose one home is `Graph` (``Graph._prime_rows``, ``Graph._prime_order``,
``Graph._breaking``, ``Graph._sh_closure``).

Vertex sets are frozensets of names at the public API, including the
members ``h`` and ``b`` of `AdmissiblePair`, and int masks in canonical order
inside: a pair is its masks, checked when it is built from names; the
library builds its pairs from masks it made valid, and checks them no more.
"""

from __future__ import annotations

import itertools
from json.encoder import encode_basestring_ascii as _QUOTE
from typing import Iterable, Iterator, Mapping, Sequence, TextIO, TypeVar

from .graphs import DEFAULT_LIMIT, Edge, Graph, LimitExceededError
from .poset import Poset, bits, cached_property, clip, record, subset_order, to_dot

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


@record(init=False)
class AdmissiblePair:
    """A saturated hereditary set with a choice of breaking vertices.

    Stands for the ideal I_{H,B}; the pair is the ideal's name, operator
    data is never materialized.  The pair is H and B as masks (``_h``,
    ``_b``).  Built from names, which it masks, it is checked: H must be
    saturated hereditary and B inside the admissible range over H.  Built
    from masks (``_of``), which the library makes only from valid data, it
    is not.  Either way it keeps that range as the mask ``_range``, which
    `quotient_graph` reads; it is not a field, so equality and hashing see
    H and B only.  The labels, the pair order, the lattice and
    `quotient_graph` read the masks; the name sets ``h`` and ``b`` are built
    when first read.
    """

    graph: Graph
    _h: int
    _b: int

    def __init__(self, graph: Graph, h: Iterable[str], b: Iterable[str]):
        H, B = frozenset(h), frozenset(b)
        hm = graph.mask(H)
        if graph._sh_closure(hm) != hm:
            raise ValueError(f"not a saturated hereditary set: {clip(sorted(H))}")
        unknown = [v for v in B if v not in graph._index]  # outside every range
        allowed = graph._breaking(hm)
        bm = graph.mask(B.difference(unknown))
        if bm & ~allowed or unknown:
            raise ValueError(
                f"B contains vertices outside the admissible range for H: "
                f"{clip(sorted([*graph.unmask(bm & ~allowed), *unknown]))}"
            )
        self.__dict__.update(graph=graph, _h=hm, _b=bm, _range=allowed, h=H, b=B)

    @classmethod
    def _of(cls, graph: Graph, h: int, b: int) -> "AdmissiblePair":
        """The pair of the masks h and b, unchecked: every caller builds them
        valid (`admissible_pairs` and `spectrum.prime_points` from the prime
        rows, `classify.SimpleVerdict.pair` from a tail's own part)."""
        pair = cls.__new__(cls)
        pair.__dict__.update(graph=graph, _h=h, _b=b, _range=graph._breaking(h))
        return pair

    @cached_property
    def h(self) -> frozenset[str]:
        return self.graph.unmask(self._h)

    @cached_property
    def b(self) -> frozenset[str]:
        return self.graph.unmask(self._b)

    @property
    def label(self) -> str:
        return pair_label(self.graph.names(self._h), self.graph.names(self._b))

    def to_json_obj(self) -> dict:
        g = self.graph
        return {"H": list(g.names(self._h)), "B": list(g.names(self._b))}


def pair_label(H: Sequence[str], B: Sequence[str]) -> str:
    return "H={" + ",".join(H) + "};B={" + ",".join(B) + "}"


def pair_leq(p: AdmissiblePair, q: AdmissiblePair) -> bool:
    if p.graph != q.graph:
        raise ValueError("pairs belong to different graphs")
    return not p._h & ~q._h and not p._b & ~(q._h | q._b)


@record(init=False)
class IdealLattice:
    """Every admissible pair of a graph in canonical order, bottom first and
    top last: the value `admissible_pairs` returns, never built from a list
    of pairs (``IdealLattice(g, pairs)`` raises TypeError).  It keeps each
    pair's label (``_labels``: bit k set when the pair lies below the prime
    point ``graph._primes[k]``) as `admissible_pairs` found it; the label is
    not a field, so equality and hashing see the graph and the pairs only.
    Its tables are read off the labels when first read.
    """

    graph: Graph
    pairs: tuple[AdmissiblePair, ...]

    def __len__(self) -> int:
        return len(self.pairs)

    @cached_property
    def _hasse(self) -> tuple[dict[int, int], tuple[tuple[int, ...], ...]]:
        """The pair index of each label, and per pair the pairs covering it,
        ascending: a cover takes one minimal prime off the label."""
        labels = self._labels
        index = {u: i for i, u in enumerate(labels)}
        below = self.graph._prime_order.down
        return index, tuple(
            tuple(sorted([index[u ^ 1 << k] for k in bits(u) if below[k] & u == 1 << k]))
            for u in labels
        )

    @cached_property
    def _up(self) -> tuple[int, ...]:
        """Per pair, the mask of the pairs above it: those whose label, the
        primes above them, lies inside its own."""
        k = len(self.graph._primes)
        return subset_order([((1 << k) - 1) & ~u for u in self._labels], k).up

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
    over the up-sets of prime points, each labelled by its up-set (see the
    module docstring)."""
    n, full = len(g.vertices), g._full
    if n > limit:
        raise LimitExceededError(n, limit)
    meets = g._prime_order.upset_meets(g._prime_rows, full | full << n)
    found = sorted(
        ((m & full, m >> n & ~m, u) for u, m in meets),
        key=lambda hbu: (hbu[0].bit_count(), hbu[0], hbu[1].bit_count(), hbu[1]),
    )
    lat = IdealLattice.__new__(IdealLattice)
    lat.__dict__.update(
        graph=g,
        pairs=tuple(AdmissiblePair._of(g, h, b) for h, b, _ in found),
        _labels=tuple(u for _, _, u in found),
    )
    return lat


def quotient_graph(g: Graph, p: AdmissiblePair) -> Graph:
    """The graph whose algebra is the quotient by the ideal named by p.

    Vertices outside H survive; every edge with source outside H is kept
    verbatim (heredity already rules out edges entering H from outside, and
    edges leaving H die with H).  Every admissible-range vertex v left out of
    B keeps its infinite-receiver gap: a fresh source vertex v~ is added with
    a single edge v~ -> v carrying the gap.

    The bottom pair's quotient is g itself: H is empty, and so is its range.
    Any other quotient is built by `Graph._of`, which builds its tables but
    checks nothing, because the quotient is valid by construction:

    - the kept vertex names and edge records come from the validated g, and
      a kept edge ends outside H, since H is hereditary;
    - each gap name is a vertex name plus ``~``s, made unique against the
      kept names and the other gaps;
    - each gap edge id is ``e~v`` plus ``~``s, made unique the same way, with
      multiplicity 1.

    It computes its reachability kernel, as any graph does, when first asked.
    """
    if p.graph is not g and p.graph != g:
        raise ValueError("pair does not belong to this graph")
    h, index = p._h, g._index
    if not h:
        return g
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
            edges.append(Edge(eid, name, v))
        keep += tuple(bars)
    return Graph._of(keep, tuple(edges))


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


# per byte x of an up-set, the leq cells of its eight pairs, lowest bit first
# (product varies the last item fastest, so a reversed item x lists x's bits)
_LEQ_BYTE = tuple(
    "".join(cells[::-1]) for cells in itertools.product((",\n      false", ",\n      true"), repeat=8)
)


def lattice_to_json(lat: IdealLattice, out: TextIO | None = None) -> str | None:
    """The lattice as json.dumps(obj, indent=2) would print it, rendered
    from the masks, the labels and the up-sets: no table is built.

    Each vertex name is quoted once, by json's C quoter, and a pair's names
    are joined from those quoted names; its label is `AdmissiblePair.label`,
    quoted whole, not joined from them.  A ``leq`` row is the up-set's
    bytes, little end first, each rendered by a module table of 256 pieces
    of eight cells; the cells of the bits past the last pair, all false,
    are cut off the row's end.

    The document is written in pieces, one per field header, array element
    and closing bracket, so a table row is the largest: given `out`, each
    piece is written to it and the writer holds the lattice plus one row;
    without, the pieces are joined and returned.
    """
    quoted = list(map(_QUOTE, lat.graph.vertices))
    cell = {u: ",\n      " + str(i) for u, i in lat._hasse[0].items()}  # a table cell, per label
    size = (len(lat) + 7) // 8  # bytes per up-set
    cut = len(",\n      false") * (-len(lat) % 8)

    def names(m: int) -> str:
        return _array([quoted[i] for i in bits(m)], 4)

    def leq(m: int) -> str:
        row = "".join(map(_LEQ_BYTE.__getitem__, m.to_bytes(size, "little")))
        return "[" + row[1 : len(row) - cut] + "\n    ]"

    def table(rows: Iterator[list[str]]) -> Iterator[str]:
        return ("[" + "".join(row)[1:] + "\n    ]" for row in rows)

    pairs = (f'{{\n      "H": {names(p._h)},\n      "B": {names(p._b)}\n    }}' for p in lat.pairs)
    fields = (
        ("{", "vertices", quoted),
        (",", "pairs", pairs),
        (",", "labels", (_QUOTE(p.label) for p in lat.pairs)),
        (",", "leq", map(leq, lat._up)),
        (",", "covers", (f"[\n      {i},\n      {j}\n    ]" for i, j in lat.covers)),
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
