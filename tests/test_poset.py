"""The bitmask poset kernel, and the reference meet and join tables in
`util`, against brute-force order oracles."""

import dataclasses
import functools
import importlib
import inspect
import itertools
import random

import pytest

from graphck import Edge, Graph
from graphck.poset import (
    Poset,
    bits,
    cached_property,
    closure,
    record,
    subset_order,
    to_dot,
)

from util import (
    brute_closure,
    brute_covers,
    brute_glb,
    brute_lub,
    ref_bits,
    ref_join_table,
    ref_meet_table,
)


def random_relation(rng, n, p):
    return {(i, j) for i in range(n) for j in range(n) if rng.random() < p}


def masks(rel, n):
    return [sum(1 << j for j in range(n) if (i, j) in rel) for i in range(n)]


def test_bits_ascending():
    assert list(bits(0)) == [] and list(bits(0b101001)) == [0, 3, 5]


def test_bits_match_the_reference_generator():
    """Every mask below 2**12 (the byte table, its 256 boundary and the wide
    path), random masks of up to 4,096 bits, and the first bit alone.  Wide
    and negative masks take the lazy path, never the table: a negative mask's
    bits never end there either."""
    for m in range(1 << 12):
        assert list(bits(m)) == list(ref_bits(m))
    rng = random.Random(83)
    for _ in range(400):
        m = rng.getrandbits(rng.randint(1, 4096))
        assert list(bits(m)) == list(ref_bits(m))
        assert next(bits(m), None) == next(ref_bits(m), None)
    for m in (256, 1 << 4095, -1, -2, -255, -256, -257, -(1 << 40)):
        assert inspect.isgenerator(bits(m))
        assert list(itertools.islice(bits(m), 20)) == list(itertools.islice(ref_bits(m), 20))


def test_record_stores_fields_then_runs_post_init():
    seen = []

    @record
    class Pair:
        a: int
        b: tuple = ()

        def __post_init__(self):
            seen.append((self.a, self.b))

    assert Pair(1) == Pair(a=1, b=()) and seen == [(1, ()), (1, ())]
    assert vars(Pair(2, (3,))) == {"a": 2, "b": (3,)}
    with pytest.raises(dataclasses.FrozenInstanceError):
        Pair(1).a = 2


def test_record_refuses_fields_it_cannot_fill():
    with pytest.raises(TypeError, match="plain defaults only"):

        @record
        class Listed:
            items: list = dataclasses.field(default_factory=list)

    with pytest.raises(TypeError, match="plain defaults only"):

        @record
        class Hidden:
            shown: int
            hidden: int = dataclasses.field(default=0, init=False)


def test_closure_matches_warshall():
    rng = random.Random(71)
    for _ in range(300):
        n = rng.randint(0, 9)
        rel = random_relation(rng, n, rng.choice((0.05, 0.15, 0.4)))  # cycles included
        up = closure(masks(rel, n))
        brute = brute_closure(n, rel)
        assert [[bool(m >> j & 1) for j in range(n)] for m in up] == brute


def random_order(rng, n):
    """A random partial order on range(n), indices a linear extension."""
    rel = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3}
    return Poset(closure(masks(rel, n)))


def test_covers_and_leq_match_brute_force():
    rng = random.Random(73)
    for _ in range(300):
        n = rng.randint(0, 9)
        order = random_order(rng, n)
        assert len(set(order.up)) == n  # distinct rows: antisymmetric
        assert list(order.covers) == brute_covers(order.leq)
        for i in range(n):
            for j in range(n):
                assert (order.down[j] >> i & 1) == (order.up[i] >> j & 1)


@pytest.mark.parametrize("width", [7, 8, 9, 63, 64, 65])
def test_subset_order_matches_a_brute_inclusion_test(width):
    """Both branches of `subset_order`: P = width - 1 and P = width rows
    take the pairwise mask tests, P = width + 1 the transpose.  Each row is
    random, or a subset or superset of an earlier one, or a repeat of one."""
    rng, seen = random.Random(89 + width), dict.fromkeys(["strict", "repeated"], 0)
    for p in (width - 1, width, width + 1):
        for _ in range(10):
            rows = []
            for _ in range(p):
                r, step = rng.getrandbits(width), rng.random()
                if rows and step < 0.6:
                    old = rng.choice(rows)
                    r = old if step < 0.2 else old & r if step < 0.4 else old | r
                rows.append(r)
            up = [
                sum(1 << j for j, s in enumerate(rows) if all(s >> k & 1 for k in ref_bits(r)))
                for r in rows
            ]
            assert subset_order(rows, width).up == tuple(up), (width, rows)
            seen["strict"] += sum(m.bit_count() > rows.count(r) for r, m in zip(rows, up))
            seen["repeated"] += len(set(rows)) < len(rows)
    assert min(seen.values()) >= 5, seen


def test_meet_and_join_of_random_lattices():
    """Random orders with a bottom and a top; checked where they are lattices."""
    rng = random.Random(79)
    checked = 0
    for _ in range(400):
        n = rng.randint(1, 8)
        rel = {(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3}
        rel |= {(0, j) for j in range(n)} | {(i, n - 1) for i in range(n)}
        order = Poset(closure(masks(rel, n)))
        leq = order.leq
        glb = [[brute_glb(leq, i, j) for j in range(n)] for i in range(n)]
        lub = [[brute_lub(leq, i, j) for j in range(n)] for i in range(n)]
        if any(x is None for row in glb + lub for x in row):
            continue  # not a lattice
        assert [list(r) for r in ref_meet_table(order)] == glb
        assert [list(r) for r in ref_join_table(order)] == lub
        checked += 1
    assert checked > 100


def relabel_along_linear_extension(rng, leq):
    """The order leq (a list of rows) relabelled along a random linear extension."""
    n = len(leq)
    left, order = set(range(n)), []
    while left:
        x = rng.choice(sorted(i for i in left if not any(leq[k][i] for k in left - {i})))
        order.append(x)
        left.remove(x)
    return [[leq[a][b] for b in order] for a in order]


def grid_lattice(a, b):
    cells = [(x, y) for x in range(a) for y in range(b)]
    return [[p[0] <= q[0] and p[1] <= q[1] for q in cells] for p in cells]


def tree_lattice(rng, n):
    """A random rooted tree on n - 1 nodes (meet = nearest common ancestor)
    with a top adjoined."""
    parent = [None] + [rng.randrange(i) for i in range(1, n - 1)]
    anc = []
    for i in range(n - 1):
        anc.append({i} | (anc[parent[i]] if i else set()))
    return [[j == n - 1 or (i < n - 1 and i in anc[j]) for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("n", [1, 7, 8, 9, 63, 64, 65])
def test_meet_and_join_tables_across_word_boundaries(n):
    rng = random.Random(83 + n)
    shapes = {1: (1, 1), 7: (1, 7), 8: (2, 4), 9: (3, 3), 63: (7, 9), 64: (8, 8), 65: (5, 13)}
    tree = tree_lattice(rng, n) if n > 1 else [[True]]
    dual_tree = [list(col) for col in zip(*tree)]
    for leq in (grid_lattice(*shapes[n]), tree, dual_tree):
        leq = relabel_along_linear_extension(rng, leq)
        order = Poset(tuple(sum(1 << j for j in range(n) if row[j]) for row in leq))
        assert [list(r) for r in order.leq] == leq
        assert [list(r) for r in ref_meet_table(order)] == [
            [brute_glb(leq, i, j) for j in range(n)] for i in range(n)
        ]
        assert [list(r) for r in ref_join_table(order)] == [
            [brute_lub(leq, i, j) for j in range(n)] for i in range(n)
        ]


def test_meet_needs_a_linear_extension():
    chain = Poset((0b11, 0b10))  # 0 <= 1
    assert ref_meet_table(chain) == ((0, 0), (0, 1))
    with pytest.raises(ValueError, match="linear extension"):
        ref_meet_table(Poset((0b01, 0b11)))  # 1 <= 0


def test_dot_escapes_labels():
    dot = to_dot("g", ['a"x', "b\\y"], [(0, 1)])
    assert dot == (
        'digraph g {\n  rankdir=BT;\n  "a\\"x";\n  "b\\\\y";\n  "a\\"x" -> "b\\\\y";\n}\n'
    )


def test_cached_property_computes_once_and_reads_func_at_access():
    calls = []

    class Box:
        @cached_property
        def value(self):
            """The doc."""
            calls.append(self)
            return len(calls)

    box = Box()
    assert (box.value, box.value, len(calls)) == (1, 1, 1)
    assert Box.value.__doc__ == "The doc."
    # a replaced func (a tracer wraps it this way) serves the next first access
    Box.__dict__["value"].func = lambda self: 42
    assert (Box().value, box.value) == (42, 1)
    # frozen dataclasses cache through the instance dict, as before
    g = Graph(("a", "b"), (Edge("e", "a", "b"),))
    assert g._reach == (0b11, 0b10) and vars(g)["_reach"] is g._reach


def test_every_cached_member_uses_the_lock_free_descriptor():
    found = 0
    for name in ("graphs", "poset", "conditions", "ideals", "spectrum", "classify", "actions"):
        module = importlib.import_module(f"graphck.{name}")
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                for member in vars(cls).values():
                    assert not isinstance(member, functools.cached_property), (name, cls)
                    found += isinstance(member, cached_property)
    assert found >= 20
