"""Directed multigraphs with countable edge multiplicities.

The vertex order is canonical: it is the declaration order of the input, and
every enumeration in this package iterates vertices in that order.  All
derived outputs are therefore deterministic.

Reachability convention (fixed here once, used verbatim everywhere else):
``v >= w`` holds when there is a path *from w to v*, edges followed in the
src -> rng direction.  The empty path gives ``v >= v``.  A hereditary vertex
set is consequently closed under predecessors: whenever v lies in H, every
vertex that can reach v lies in H as well.

An edge multiplicity is a positive integer or ``OMEGA``; the latter stands
for a countably infinite bundle of parallel edges and lets finite data model
infinite receivers.  ``OMEGA`` is one object, which ``Omega()``, ``copy``
and every pickle protocol give back, so ``m is OMEGA`` is the one test for
it.  A finite bundle may equivalently be given as one edge of multiplicity m
or as m parallel edges, and prints as its ``int``.

Vertex sets are frozensets of names at the public API.  Inside the graph
layer they are int masks in canonical order (bit i is vertex i), and the
graph caches one mask per vertex for its out-neighbours (``_succ``) and the
vertices it reaches (``_reach``).  It also caches the mask of all vertices
(``_full``) and the condensation: the component masks (``_comps``), the
mask of the vertices on a cycle (``_cyclic``) and the mask of those with
exactly one first-return path (``_one_return``), the members of the
components that are a bare cycle, which Condition (K) reads.  They come
from one ``poset.closure`` over ``_succ``, the one closure routine: two
vertices share a component exactly when their rows are equal.
Every cycle witness comes from ``_cycle_at``, the one cycle search.

Every multiplicity question reads the in-edge table ``_in`` by field name.
Per vertex it holds the masks of its in-edge sources (``src``), of its
OMEGA sources (``omega``) and of its *repeated* sources (``repeated``),
which send it more than one edge: by multiplicity two or more, OMEGA, or
parallel records.  It also holds the mask of the infinite receivers, the
vertices with an OMEGA in-edge (``infinite``).

The kernel has two producers.  One table walk over the edges (``_tables``)
builds ``_index``, ``_full``, ``_succ`` and ``_in``.  It has two entry
points: the constructor, which first validates every vertex and edge
record, and ``Graph._of``, which checks nothing and serves graphs built
valid from a validated one (`ideals.quotient_graph` says why a quotient
is).  The rest stays lazy, so a graph that is only printed never pays the
closure's O(V (V + E)): the first read of any of ``_reach``, ``_comps``,
``_cyclic``, ``_one_return`` and ``_tails`` runs ``_kernel``, which takes
the closure and passes over its rows and stores all five.  A quotient
computes its own, as any graph does.

``Graph`` is the one home of the prime-point kernel, and `conditions`,
`ideals`, `spectrum` and `classify` ask it every saturation, pair and
spectrum question.  The prime points are the maximal tails (``_tails``) and
the breaking vertices (``_breakers``); ``_primes`` holds their (H, B) masks,
``_prime_rows`` each as the one mask H | (H | B) << n, ``_prime_order`` the
pair order of those rows (the one prime order that the lattice and the
spectrum read), and ``_breaking(h)`` the admissible range of B over h.  The
complement of a saturated hereditary set H is a union of maximal tails (walk
back from a vertex outside H along sources outside H to a vertex on a cycle,
with no in-edge or an OMEGA one: what it reaches is a tail).  So
``_sh_closure(m)``, the least saturated hereditary superset of m, is
everything outside the tails that miss m (Birkhoff, *Rings of sets*, Duke
Math. J. 1937; Bates-Hong-Raeburn-Szymanski, Illinois J. Math. 2002).

Input JSON is read by ``decode_json``.  Every JSON document the package
prints but the lattice's is rendered by ``encode_json``, the one
pretty-printer: its text is what ``json.dumps(obj, indent=2)`` prints, plus
a final newline, in under half the time.  json.dumps lays out an
indented document with its pure-Python encoder; ``encode_json`` quotes with
json's C quoter and shares its line breaks, indents and key heads.
"""

from __future__ import annotations

import json
import re
import sys
from typing import Iterable, NamedTuple, Union

from .poset import Poset, bits, cached_property, clip, closure, record, subset_order, union

DEFAULT_LIMIT = 16


class GraphFormatError(ValueError):
    """Raised when input text violates the graph format.

    The message always carries a location (line number or edge position).
    """


class LimitExceededError(RuntimeError):
    """Raised when a subset-enumerating operation refuses a large input."""

    def __init__(self, size: int, limit: int, what: str = "vertices"):
        self.size = size
        self.limit = limit
        super().__init__(
            f"input has {size} {what} but the enumeration limit is {limit}; "
            f"raise it with --limit"
        )


class Omega:
    """Infinite multiplicity: the one object ``OMEGA`` (see the module docstring)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __reduce__(self):
        return "OMEGA"

    def __repr__(self):
        return "OMEGA"

    def __str__(self):
        return "omega"


OMEGA = Omega()

Mult = Union[int, Omega]


def mult_to_json(m: Mult):
    return "omega" if m is OMEGA else int(m)


def _parse_mult(token, where: str) -> Mult:
    if token == "omega":
        return OMEGA
    if isinstance(token, bool) or not isinstance(token, int):
        raise GraphFormatError(
            f"{where}: multiplicity must be a positive integer or \"omega\", got {clip(token)}"
        )
    if token <= 0:
        raise GraphFormatError(f"{where}: multiplicity must be positive, got {clip(token)}")
    return token


@record
class Edge:
    """An edge from src to rng (its range) of multiplicity mult, OMEGA for infinite."""

    id: str
    src: str
    rng: str
    mult: Mult = 1


class InTable(NamedTuple):
    """Per-vertex in-edge source masks; see the module docstring."""

    src: tuple[int, ...]
    omega: tuple[int, ...]
    repeated: tuple[int, ...]
    infinite: int


@record
class Graph:
    """Immutable directed multigraph.  Safe to share between threads."""

    vertices: tuple[str, ...]
    edges: tuple[Edge, ...]

    def __post_init__(self):
        """Validate the vertices, then the edges, in input order, and build
        the tables (`_tables`) once every record has passed."""
        names: set[str] = set()
        for v in self.vertices:
            if not isinstance(v, str):  # checked first: a non-string may not hash
                raise GraphFormatError(f"vertex {clip(v)}: id must be a string")
            if v in names:
                raise GraphFormatError(f"vertex {clip(v)}: duplicate id")
            if not v:  # an empty member would print like the empty set
                raise GraphFormatError(f"vertex {clip(v)}: empty id")
            if "," in v:  # set separators in labels and selectors
                raise GraphFormatError(f"vertex {clip(v)}: reserved character ',' in id")
            if ";" in v:
                raise GraphFormatError(f"vertex {clip(v)}: reserved character ';' in id")
            names.add(v)
        eids = set()
        for e in self.edges:
            if not (isinstance(e.id, str) and isinstance(e.src, str) and isinstance(e.rng, str)):
                key = next(k for k in ("id", "src", "rng") if not isinstance(getattr(e, k), str))
                raise GraphFormatError(f"edge {clip(e.id)}: {key} must be a string")
            if e.id in eids:
                raise GraphFormatError(f"edge {clip(e.id)}: duplicate id")
            if not e.id:
                raise GraphFormatError(f"edge {clip(e.id)}: empty id")
            if "," in e.id:  # cycle witnesses list edge ids with ","
                raise GraphFormatError(f"edge {clip(e.id)}: reserved character ',' in id")
            eids.add(e.id)
            if e.src not in names or e.rng not in names:
                endpoint = e.src if e.src not in names else e.rng
                raise GraphFormatError(f"edge {clip(e.id)}: dangling endpoint {clip(endpoint)}")
            m = e.mult
            if not (m is OMEGA or type(m) is int and m > 0):
                if m == "omega":  # the text stands for OMEGA only in parsed input
                    raise GraphFormatError(
                        f"edge {clip(e.id)}: multiplicity must be a positive integer or OMEGA,"
                        " got the text 'omega'"
                    )
                _parse_mult(m, f"edge {clip(e.id)}")
        self._tables()

    @classmethod
    def _of(cls, vertices: tuple[str, ...], edges: tuple[Edge, ...]) -> "Graph":
        """The graph of vertices and edges that the caller built valid from
        a validated graph: the tables are built, nothing is checked."""
        g = cls.__new__(cls)
        g.__dict__.update(vertices=vertices, edges=edges)
        g._tables()
        return g

    def _tables(self) -> None:
        """The one table walk: each edge ORs its bits into ``_succ`` and
        ``_in``, which are stored with ``_index`` and ``_full``."""
        n = len(self.vertices)
        index = dict(zip(self.vertices, range(n)))
        succ, src, omega, repeated, infinite = [0] * n, [0] * n, [0] * n, [0] * n, 0
        for e in self.edges:
            s, r, m = index[e.src], index[e.rng], e.mult
            bit = 1 << s
            succ[s] |= 1 << r
            if m != 1 or src[r] & bit:
                repeated[r] |= bit
                if m is OMEGA:
                    omega[r] |= bit
                    infinite |= 1 << r
            src[r] |= bit
        into = InTable(tuple(src), tuple(omega), tuple(repeated), infinite)
        self.__dict__.update(_index=index, _full=(1 << n) - 1, _succ=tuple(succ), _in=into)

    # -- canonical order helpers -------------------------------------------

    def index(self, v: str) -> int:
        try:
            return self._index[v]
        except KeyError:
            raise KeyError(f"unknown vertex {clip(v)}") from None

    def sort_set(self, vs: Iterable[str]) -> tuple[str, ...]:
        """Vertices of vs in canonical order."""
        return tuple(sorted(vs, key=self.index))

    def mask(self, vs: Iterable[str]) -> int:
        m = 0
        for v in vs:
            m |= 1 << self.index(v)
        return m

    def names(self, m: int) -> tuple[str, ...]:
        """Vertices of the mask m in canonical order."""
        return tuple([self.vertices[i] for i in bits(m)])  # a list: no generator frame

    def unmask(self, m: int) -> frozenset[str]:
        return frozenset(self.vertices[i] for i in bits(m))

    # -- adjacency ----------------------------------------------------------

    @cached_property
    def out_edges_by_vertex(self) -> dict[str, tuple[Edge, ...]]:
        by: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            by[e.src].append(e)
        return {v: tuple(es) for v, es in by.items()}

    @cached_property
    def _edge_by_id(self) -> dict[str, Edge]:
        return {e.id: e for e in self.edges}

    # -- per-vertex masks ------------------------------------------------------

    def _kernel(self) -> dict:
        """Store ``_reach``, ``_comps`` (the classes of equal reach rows, met
        in smallest-member order), ``_cyclic``, ``_one_return`` and
        ``_tails`` from the one closure; returns the instance dict that
        holds them."""
        succ, src, omega, repeated = self._succ, self._in.src, self._in.omega, self._in.repeated
        reach, comps = closure(succ), {}
        for i, r in enumerate(reach):
            comps[r] = comps.get(r, 0) | 1 << i
        cyclic, multi, rows = 0, 0, set()  # multi: cyclic components that are not a bare cycle
        for i, r in enumerate(reach):
            c = comps[r]
            if succ[i] & c:  # a successor shares the component
                cyclic |= 1 << i
                rows.add(r)
                s = src[i] & c  # not empty: the component is strongly connected
                if s & (s - 1) or repeated[i] & c:
                    multi |= c
            elif not src[i] or omega[i]:
                rows.add(r)
        tails = sorted(rows)
        tails.sort(key=int.bit_count, reverse=True)  # stable: by (-size, mask)
        self.__dict__.update(
            _reach=reach, _comps=tuple(comps.values()), _cyclic=cyclic,
            _one_return=cyclic & ~multi, _tails=tuple(tails),
        )
        return self.__dict__

    @cached_property
    def _reach(self) -> tuple[int, ...]:
        """reach[i] = mask of the vertices reachable from vertex i (incl. i)."""
        return self._kernel()["_reach"]

    @cached_property
    def _comps(self) -> tuple[int, ...]:
        """Strongly connected component masks, ordered by smallest member."""
        return self._kernel()["_comps"]

    @cached_property
    def _cyclic(self) -> int:
        """Mask of the vertices on a cycle: some successor reaches back."""
        return self._kernel()["_cyclic"]

    @cached_property
    def _one_return(self) -> int:
        """Mask of the vertices with exactly one first-return path: the
        members of the components that are a bare cycle."""
        return self._kernel()["_one_return"]

    @cached_property
    def _tails(self) -> tuple[int, ...]:
        """The maximal tails, by (-size, mask): the distinct ``_reach`` rows of
        the vertices on a cycle, with no in-edge or with an OMEGA in-edge (every
        other member of such a row has a source inside it).  They cover V."""
        return self._kernel()["_tails"]

    @cached_property
    def _breakers(self) -> tuple[int, ...]:
        """The breaking vertices: fed by OMEGA only from vertices they do not
        reach, and by some vertex they reach (so they lie on a cycle)."""
        s, o = self._in.src, self._in.omega
        return tuple(i for i, r in enumerate(self._reach) if o[i] and not o[i] & r and s[i] & r)

    def _sh_closure(self, m: int) -> int:
        """Least saturated hereditary superset of the mask m: everything
        outside the maximal tails that miss m (see the module docstring)."""
        out = self._full
        for t in self._tails:
            if not t & m:
                out &= ~t
        return out

    def _breaking(self, h: int) -> int:
        """Mask of the infinite receivers outside the hereditary mask h fed
        finitely (but not zero) from outside h: the admissible range of B."""
        src, omega, out = self._in.src, self._in.omega, 0
        for i in bits(self._in.infinite):
            if not omega[i] & ~h and src[i] & ~h:
                out |= 1 << i
        return out

    @cached_property
    def _primes(self) -> tuple[tuple[int, int], ...]:
        """(H, B) of the prime points: per maximal tail, H outside it and B
        the whole range; then per breaking vertex v, H outside its reach and
        B the range minus v."""
        out = [(h, self._breaking(h)) for h in (self._full & ~t for t in self._tails)]
        for i in self._breakers:
            h = self._full & ~self._reach[i]
            out.append((h, self._breaking(h) & ~(1 << i)))
        return tuple(out)

    @cached_property
    def _prime_rows(self) -> tuple[int, ...]:
        """Each prime point (H, B) as the mask H | (H | B) << n: the pair
        order is inclusion of these masks, and the meet of pairs their AND."""
        n = len(self.vertices)
        return tuple(h | (h | b) << n for h, b in self._primes)

    @cached_property
    def _prime_order(self) -> Poset:
        """The prime points in the pair order: ``up[k]`` masks the points
        above point k."""
        return subset_order(self._prime_rows, 2 * len(self.vertices))

    def _cycle_at(self, v: str) -> "Path":
        """A first-return cycle at v, by DFS in canonical edge order.  Each
        vertex keeps the edge it was first reached along, so the walk is
        built once, back from the edge that returns to v."""
        stack: list[tuple[str, Edge | None]] = [(v, None)]
        into: dict[str, Edge | None] = {}
        while stack:
            u, last = stack.pop()
            if u in into:
                continue
            into[u] = last
            for e in reversed(self.out_edges_by_vertex[u]):
                if e.rng == v:
                    walk = [e]
                    while walk[-1].src != v:
                        walk.append(into[walk[-1].src])
                    return Path.from_walk(self, walk[::-1])
                if e.rng not in into:
                    stack.append((e.rng, e))
        raise RuntimeError(f"no cycle at {v!r}: caller promised one")


@record
class Component:
    """A strongly connected component; nontrivial when it contains a cycle."""

    vertices: tuple[str, ...]
    nontrivial: bool


def scc_decomposition(g: Graph) -> tuple[Component, ...]:
    """Strongly connected components, ordered by smallest member vertex.

    A component is nontrivial exactly when it contains a cycle, i.e. it has
    more than one vertex or carries a self-loop.
    """
    return tuple(
        Component(tuple(g.vertices[j] for j in bits(c)), bool(c & g._cyclic)) for c in g._comps
    )


def first_return_count(g: Graph, v: str, cap: int = 2) -> int:
    """Number of distinct first-return paths at v, saturated at cap.

    A first-return path runs from v back to v and visits v only at its
    endpoints.  Parallel edges of multiplicity m contribute m choices per
    step; OMEGA multiplicities count as at least cap choices.  The result is
    exact below cap and equals cap when at least cap paths exist.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    i = g.index(v)
    bit = 1 << i
    succ = [s & ~bit for s in g._succ]
    reach = closure(succ)  # walks that never enter v
    # the region: vertices on some v -> ... -> v walk avoiding v internally
    into_v = g._in.src[i] & ~bit
    region = 0
    for u in bits(union(reach, succ[i])):
        if reach[u] & into_v:
            region |= 1 << u

    # a cycle inside the region pumps to infinitely many first returns
    if any(reach[w] >> u & 1 for u in bits(region) for w in bits(succ[u])):
        return cap

    # region is a DAG: a successor reaches fewer region vertices, so it comes
    # first; count completions u -> ... -> v by saturated DP, v itself last
    order = sorted(bits(region), key=lambda u: (reach[u] & region).bit_count())
    count = [0] * len(g.vertices)
    for u in order + [i]:
        total = 0
        for e in g.out_edges_by_vertex[g.vertices[u]]:
            j = g._index[e.rng]
            step = cap if e.mult is OMEGA else min(e.mult, cap)
            if j == i:
                total += step
            elif region >> j & 1:
                total += step * count[j]
            if total >= cap:
                total = cap
                break
        count[u] = total
    return count[i]


@record
class Path:
    """A composable edge sequence, listed range-first.

    Edges are stored in the order mu_1 ... mu_n with src(mu_i) = rng(mu_(i+1)),
    so the walk starts at src(mu_n) and ends at rng(mu_1).  Use from_walk to
    build a Path from edges in traversal order.
    """

    graph: Graph
    edge_ids: tuple[str, ...]

    def __post_init__(self):
        if not self.edge_ids:
            raise ValueError("a path needs at least one edge")
        edges = self._edges
        for a, b in zip(edges, edges[1:]):
            if a.src != b.rng:
                raise ValueError(
                    f"edges {a.id!r} and {b.id!r} do not compose: "
                    f"src({a.id})={a.src!r} != rng({b.id})={b.rng!r}"
                )

    @classmethod
    def from_walk(cls, graph: Graph, edges: Iterable[Edge]) -> "Path":
        """Build from edges in traversal order (source of the walk first)."""
        return cls(graph, tuple(e.id for e in reversed(list(edges))))

    @cached_property
    def _edges(self) -> tuple[Edge, ...]:
        by_id = self.graph._edge_by_id
        for eid in self.edge_ids:
            if eid not in by_id:
                raise ValueError(f"unknown edge {eid!r}")
        return tuple(by_id[eid] for eid in self.edge_ids)

    @property
    def src(self) -> str:
        return self._edges[-1].src

    @property
    def rng(self) -> str:
        return self._edges[0].rng

    @property
    def is_cycle(self) -> bool:
        return self.rng == self.src

    def walk_vertices(self) -> tuple[str, ...]:
        """Vertices in traversal order, endpoints included."""
        out = [self.src]
        for e in reversed(self._edges):
            out.append(e.rng)
        return tuple(out)

    def walk_edge_ids(self) -> tuple[str, ...]:
        return tuple(reversed(self.edge_ids))


# -- parsing and serialization ------------------------------------------------


def detect_format(text: str) -> str:
    return "json" if text.lstrip()[:1] in ("{", "[") else "edgelist"


def parse_graph(text: str, format: str = "json") -> Graph:
    if format == "json":
        return _parse_json(text)
    if format == "edgelist":
        return _parse_edgelist(text)
    raise ValueError(f"unknown graph format {format!r}")


def decode_json(text: str, error: type[ValueError]):
    """json.loads, raising error on malformed or too deeply nested text."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"line {exc.lineno}: invalid JSON: {exc.msg}") from None
    except RecursionError:
        raise error("invalid JSON: nested too deeply") from None
    except ValueError:  # int() refuses literals over sys.get_int_max_str_digits()
        raise error(f"integer literal too long: over {sys.get_int_max_str_digits()} digits") from None


_QUOTE = json.encoder.encode_basestring_ascii  # the C quoter json.dumps uses


def _level(d: int) -> tuple[str, str, str, str, dict[str, str]]:
    """The pieces of nesting depth d: the line break and its indent, the
    same after a comma, the closing bracket and brace on such a line, and
    the heads of the keys met at depth d (line break, indent, quoted key
    and colon), at most 256 of them."""
    pad = "\n" + "  " * d
    return pad, "," + pad, pad + "]", pad + "}", {}


_LEVELS = tuple(_level(d) for d in range(32))  # deeper levels are built per container


def encode_json(obj) -> str:
    """``json.dumps(obj, indent=2) + "\\n"``, byte for byte, for str-keyed
    dicts, lists, tuples, str, int, bool and None; any other type, a float
    or an int subclass other than bool included, raises TypeError.

    json.dumps renders an indented document with its pure-Python encoder.
    Here the C quoter renders every string, a list of strings is one joined
    piece, and the line breaks, indents, brackets and key heads are pieces
    shared by every document, so the memory beyond obj is about the text."""
    pieces: list[str] = []
    _encode(obj, 0, pieces)
    pieces.append("\n")
    return "".join(pieces)


def _encode(x, d: int, pieces: list[str]) -> None:
    """Append the pieces of x, a value at depth d, to pieces (see
    `encode_json`); the scalar values of a dict are rendered inline."""
    put, t = pieces.append, type(x)
    if t is str:
        put(_QUOTE(x))
    elif t is int:
        put(int.__repr__(x))
    elif x is None or t is bool:
        put("null" if x is None else "true" if x else "false")
    elif t is not dict and t is not list and t is not tuple:
        if not isinstance(x, str):
            raise TypeError(f"Object of type {t.__name__} is not JSON serializable")
        put(_QUOTE(x))
    elif not x:
        put("{}" if t is dict else "[]")
    else:
        pad, comma, _, _, heads = _LEVELS[d + 1] if d + 1 < len(_LEVELS) else _level(d + 1)
        close = _LEVELS[d] if d < len(_LEVELS) else _level(d)
        if t is dict:
            sep = "{"
            for k, v in x.items():
                head = heads.get(k)
                if head is None:
                    if not isinstance(k, str):
                        raise TypeError(f"keys must be str, not {type(k).__name__}")
                    head = pad + _QUOTE(k) + ": "
                    if len(heads) < 256:
                        heads[k] = head
                put(sep)
                put(head)
                sep = ","
                if type(v) is str:
                    put(_QUOTE(v))
                elif v is None:
                    put("null")
                else:
                    _encode(v, d + 1, pieces)
            put(close[3])
            return
        if type(x[0]) is str:
            try:  # a list of strings, the common case, is one piece
                body = comma.join(map(_QUOTE, x))
            except TypeError:
                pass  # a mixed list: item by item
            else:
                put("[" + pad)
                put(body)
                put(close[2])
                return
        sep = "[" + pad
        for v in x:
            put(sep)
            _encode(v, d + 1, pieces)
            sep = comma
        put(close[2])


def _parse_json(text: str) -> Graph:
    raw = decode_json(text, GraphFormatError)
    if not isinstance(raw, dict):
        raise GraphFormatError("top level: expected a JSON object")
    vertices = raw.get("vertices")
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise GraphFormatError('"vertices": expected a list of strings')
    edges_raw = raw.get("edges", [])
    if not isinstance(edges_raw, list):
        raise GraphFormatError('"edges": expected a list')
    edges = []
    for k, e in enumerate(edges_raw):
        where = f"edge #{k}"
        if not isinstance(e, dict):
            raise GraphFormatError(f"{where}: expected an object")
        eid = e.get("id", f"e{k}")
        if not isinstance(eid, str):
            raise GraphFormatError(f"{where}: id must be a string")
        missing = [key for key in ("src", "rng", "mult") if key not in e]
        if missing:
            raise GraphFormatError(f"{where}: missing {', '.join(missing)}")
        for key in ("src", "rng"):
            if not isinstance(e[key], str):
                raise GraphFormatError(f"{where}: {key} must be a string")
        edges.append(
            Edge(
                id=eid,
                src=e["src"],
                rng=e["rng"],
                mult=_parse_mult(e["mult"], where),
            )
        )
    return Graph(vertices=tuple(vertices), edges=tuple(edges))


def _parse_edgelist(text: str) -> Graph:
    vertices: list[str] = []
    declared: set[str] = set()
    edges: list[Edge] = []
    k = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        tokens = body.split()
        where = f"line {lineno}"
        if tokens[0] == "vertex":
            if len(tokens) != 2:
                raise GraphFormatError(f"{where}: expected 'vertex <id>'")
            if tokens[1] in declared:
                raise GraphFormatError(f"{where}: vertex {clip(tokens[1])}: duplicate id")
            declared.add(tokens[1])
            vertices.append(tokens[1])
            continue
        if len(tokens) != 3:
            raise GraphFormatError(f"{where}: expected 'src rng mult'")
        src, rng, mtok = tokens
        for endpoint in (src, rng):
            if endpoint not in declared:
                raise GraphFormatError(f"{where}: dangling endpoint {clip(endpoint)}")
        token = mtok  # "omega", or a bad token that _parse_mult names
        if re.fullmatch(r"[+-]?[0-9]+", mtok):  # ASCII digits: int() also reads others and "_"
            try:
                token = int(mtok)
            except ValueError:  # refused only for its length
                raise GraphFormatError(
                    f"{where}: integer literal too long: over {sys.get_int_max_str_digits()} digits"
                ) from None
        edges.append(Edge(id=f"e{k}", src=src, rng=rng, mult=_parse_mult(token, where)))
        k += 1
    return Graph(vertices=tuple(vertices), edges=tuple(edges))


def graph_to_json(g: Graph) -> str:
    obj = {
        "vertices": list(g.vertices),
        "edges": [
            {"id": e.id, "src": e.src, "rng": e.rng, "mult": mult_to_json(e.mult)}
            for e in g.edges
        ],
    }
    return encode_json(obj)


def graph_to_edgelist(g: Graph) -> str:
    """The edgelist text of g; raises ValueError for a graph that text cannot
    carry: a vertex name holding whitespace or '#', or an edge from 'vertex'
    (the line would read as a declaration).  Edge ids are not kept."""
    for v in g.vertices:
        if "#" in v or any(c.isspace() for c in v):
            raise ValueError(f"vertex {clip(v)}: edgelist names hold no whitespace or '#'")
    if any(e.src == "vertex" for e in g.edges):
        raise ValueError("vertex 'vertex': an edgelist edge line cannot start at it")
    lines = [f"vertex {v}" for v in g.vertices]
    lines += [f"{e.src} {e.rng} {mult_to_json(e.mult)}" for e in g.edges]
    return "\n".join(lines) + "\n"


def serialize_graph(g: Graph, format: str = "json") -> str:
    if format == "json":
        return graph_to_json(g)
    if format == "edgelist":
        return graph_to_edgelist(g)
    raise ValueError(f"unknown graph format {format!r}")
