"""Finite partial orders as per-element bitmask up-sets.

Elements are the indices 0..n-1.  ``up[i]`` has bit j set exactly when
i <= j (so bit i itself is always set), and ``down[j]`` is its transpose.
One closure routine turns any successor relation into such masks (every
graph, a quotient too, takes its reachability rows from it); covers and the
DOT drawing are read off them.  Two elements of a closed relation are
related both ways exactly when their rows are equal, so the closure is
antisymmetric, a partial order, exactly when its rows are distinct.

Two fixed costs every module pays live here too.  ``bits`` reads masks
below 256 off a byte table.  ``record`` makes every frozen value class: it
behaves as ``dataclass(frozen=True)``, but it generates one function per
class, the ``__init__``, which writes the instance dict directly.  No code
is generated for equality, hashing, repr or frozen assignment (dataclasses
execs one function for each, per class, which was most of the cost of
importing the package): those are closures made per class from one template.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields
from operator import attrgetter
from reprlib import recursive_repr
from typing import Callable, Iterable, Iterator, Sequence


class cached_property:
    """functools.cached_property without the lock Python 3.11 takes on every
    first access: the values are pure, so a race only computes one twice.
    ``func`` is read at access time, so a wrapper may replace it."""

    def __init__(self, func):
        self.func, self.name, self.__doc__ = func, func.__name__, func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def record(cls=None, /, *, init: bool = True):
    """A frozen record: what ``dataclass(frozen=True)`` builds (fields,
    ``__init__`` parameters, equality, hash, repr and frozen assignment,
    with dataclasses' messages), for a class that defines none of those
    methods and whose fields take plain defaults.

    ``dataclass(init=False, repr=False, eq=False)`` only collects the
    fields.  The one generated function is the ``__init__``, with the
    dataclass parameters, order, defaults and annotations: it stores each
    field straight into the instance dict, then calls ``__post_init__`` if
    the class has one, where the frozen one calls ``object.__setattr__`` per
    field, at two to three times the cost.  ``init=False`` writes no
    ``__init__``.  The other methods come from `_frozen_methods`, without
    code generation."""
    if cls is None:
        return lambda c: record(c, init=init)
    taken = _FROZEN_METHODS & cls.__dict__.keys()
    if taken:
        raise TypeError(f"{cls.__name__}: a record defines none of {sorted(taken)}")
    cls = dataclass(init=False, repr=False, eq=False)(cls)
    fs = fields(cls)
    if any(
        f.default_factory is not MISSING or not (f.init and f.repr and f.compare) or f.hash is not None
        for f in fs
    ):
        raise TypeError(f"{cls.__name__}: record fields take plain defaults only")
    for name, method in _frozen_methods(cls, tuple(f.name for f in fs)).items():
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    if init:
        scope = {f"_{f.name}": f.default for f in fs if f.default is not MISSING}
        params = ", ".join(f.name + (f"=_{f.name}" if f"_{f.name}" in scope else "") for f in fs)
        body = "".join(f"\n    __dict[{f.name!r}] = {f.name}" for f in fs)
        post = "\n    self.__post_init__()" if hasattr(cls, "__post_init__") else ""
        exec(f"def __init__(self, {params}):\n    __dict = self.__dict__{body}{post}", scope)
        init_fn = scope["__init__"]
        init_fn.__qualname__ = f"{cls.__qualname__}.__init__"
        init_fn.__annotations__ = {**{f.name: f.type for f in fs}, "return": None}
        cls.__init__ = init_fn
    return cls


_FROZEN_METHODS = frozenset({"__eq__", "__hash__", "__repr__", "__setattr__", "__delattr__"})


def _frozen_methods(cls: type, names: tuple[str, ...]) -> dict[str, Callable]:
    """The methods ``dataclass(frozen=True)`` would generate for cls with
    the fields names: equality and hash on the tuple of the fields (read by
    one C-level ``attrgetter``), the recursion-guarded repr, and assignment
    and deletion refused with `FrozenInstanceError`."""
    if len(names) > 1:
        key = attrgetter(*names)
    else:  # attrgetter of one name gives no tuple

        def key(self):
            return tuple(getattr(self, name) for name in names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in names])
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot assign to field {name!r}")
        super(cls, self).__setattr__(name, value)

    def __delattr__(self, name):
        if type(self) is cls or name in names:
            raise FrozenInstanceError(f"cannot delete field {name!r}")
        super(cls, self).__delattr__(name)

    return {
        "__eq__": __eq__,
        "__hash__": __hash__,
        "__repr__": recursive_repr()(__repr__),
        "__setattr__": __setattr__,
        "__delattr__": __delattr__,
    }


# per byte value x, the indices of the set bits of x
_BYTE_BITS = tuple(tuple(j for j in range(8) if x >> j & 1) for x in range(256))


def bits(m: int) -> Iterator[int]:
    """Indices of the set bits of m, ascending.  Below 256 they come from a
    table; otherwise one at a time, so the first costs O(1) at any width.  A
    negative m (m >> 8 is -1) never reads the table, and never ends."""
    if m >> 8:
        return _wide_bits(m)
    return iter(_BYTE_BITS[m])


def _wide_bits(m: int) -> Iterator[int]:
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def union(table: Sequence[int], m: int) -> int:
    """OR of table[i] over the set bits i of m."""
    out = 0
    for i in bits(m):
        out |= table[i]
    return out


def transpose(rows: Sequence[int], width: int) -> list[int]:
    """out[j] has bit i set exactly when rows[i] has bit j, for j < width."""
    out = [0] * width
    for i, m in enumerate(rows):
        for j in bits(m):
            out[j] |= 1 << i
    return out


def subset_order(rows: Sequence[int], width: int) -> "Poset":
    """The rows, masks below bit width, ordered by inclusion.  With no more
    rows than bits, each pair of rows takes one mask test: P^2 tests cost no
    more than the P * width bit steps of the transpose.  Otherwise out[v]
    masks the rows missing bit v, so the rows not above i are the OR of out
    over the bits of rows[i]."""
    if len(rows) <= width:
        return Poset(tuple([sum([1 << j for j, s in enumerate(rows) if not r & ~s]) for r in rows]))
    out = transpose([((1 << width) - 1) & ~r for r in rows], width)
    return Poset(tuple(((1 << len(rows)) - 1) & ~union(out, r) for r in rows))


def closure(succ: Sequence[int]) -> tuple[int, ...]:
    """Reflexive-transitive closure: out[i] = everything reachable from i, i included."""
    out = []
    for i in range(len(succ)):
        seen = 1 << i
        stack = [i]
        while stack:
            new = succ[stack.pop()] & ~seen
            seen |= new
            while new:  # inlined bits(new): this loop runs for every graph
                low = new & -new
                stack.append(low.bit_length() - 1)
                new ^= low
        out.append(seen)
    return tuple(out)


def clip(value) -> str:
    """repr(value) cut to 80 characters: diagnostics echo input of any size."""
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


_BIT = {"0": False, "1": True}


@record
class Poset:
    """A finite poset given by up-sets: bit j of up[i] is set when i <= j."""

    up: tuple[int, ...]

    @cached_property
    def down(self) -> tuple[int, ...]:
        return tuple(transpose(self.up, len(self.up)))

    @cached_property
    def leq(self) -> tuple[tuple[bool, ...], ...]:
        n = len(self.up)
        return tuple(tuple(map(_BIT.__getitem__, format(m, f"0{n}b")[::-1])) for m in self.up)

    @cached_property
    def covers(self) -> tuple[tuple[int, int], ...]:
        """Pairs (i, j) in ascending order where j covers i: i < j, nothing between."""
        down = self.down
        out = []
        for i, m in enumerate(self.up):
            above = m & ~(1 << i)
            out.extend((i, j) for j in bits(above) if down[j] & above == 1 << j)
        return tuple(out)

    def upset_meets(self, values: Sequence[int], top: int) -> list[tuple[int, int]]:
        """Each up-set, as a mask, with the AND of values (growing with the
        order) over it, top for the empty one.  Branches on the elements in
        index order: including one adds its up-set, excluding one its
        down-set; neither contradicts an earlier choice, so every branch ends
        in an up-set (polynomial delay)."""
        n, up, down, out = len(self.up), self.up, self.down, []
        stack = [(0, 0, 0, top)]  # (next index, decided mask, up-set so far, AND so far)
        while stack:
            i, decided, upset, acc = stack.pop()
            while i < n and decided >> i & 1:
                i += 1
            if i == n:
                out.append((upset, acc))
            else:
                stack.append((i + 1, decided | down[i], upset, acc))
                stack.append((i + 1, decided | up[i], upset | up[i], acc & values[i]))
        return out


def to_dot(name: str, labels: Iterable[str], covers: Iterable[tuple[int, int]]) -> str:
    """Hasse diagram, edges from lower to upper; labels quoted, \\ and " escaped."""
    nodes = ['"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"' for s in labels]
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    lines += [f"  {x};" for x in nodes]
    lines += [f"  {nodes[i]} -> {nodes[j]};" for i, j in covers]
    return "\n".join(lines + ["}"]) + "\n"
