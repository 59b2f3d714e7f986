"""Every frozen record of graphck is built by `poset.record`, whose __init__
writes the instance dict directly.  Each one still binds its arguments,
refuses assignment, compares, hashes, prints, pickles and replaces exactly as
the plain frozen dataclass with the same fields.  PrimSpace, which only
`prim_space` fills, refuses assignment, compares, hashes, prints and pickles
the same way, and `replace` on it raises TypeError."""

import builtins
import dataclasses
import importlib
import inspect
import pickle

import pytest

from graphck import (
    ActionFormatError,
    Decomposition,
    Edge,
    FinitePartialAction,
    FiniteT0Space,
    Graph,
    GraphFormatError,
    PartialHomeo,
    Path,
    PrimSpace,
    check_paradoxical_witness,
    classify,
    condition_K,
    condition_L,
    decide_G_infinite,
    prim_space,
    scc_decomposition,
)
from graphck.poset import record

from util import load_corpus

MODULES = ("actions", "classify", "conditions", "graphs", "ideals", "poset", "spectrum")


def record_classes() -> dict[str, type]:
    """The graphck dataclasses with a generated __init__, by name: their own
    __init__ takes exactly their fields.  (`record` has dataclasses write no
    __init__, so __dataclass_params__.init is false on every record.)"""
    out = {}
    for name in MODULES:
        module = importlib.import_module(f"graphck.{name}")
        for cls in vars(module).values():
            if (
                isinstance(cls, type)
                and cls.__module__ == module.__name__
                and dataclasses.is_dataclass(cls)
                and "__init__" in vars(cls)
                and list(inspect.signature(cls).parameters)
                == [f.name for f in dataclasses.fields(cls)]
            ):
                out[cls.__name__] = cls
    return out


def samples() -> dict[str, object]:
    """One instance of each record class, from real computations."""
    corpus = load_corpus()
    no_L, lattice, unfed = corpus["e2"], corpus["e6"], corpus["e4"]
    space = FiniteT0Space.from_pairs(("1", "2", "3"))
    move = PartialHomeo(space, (("1", "2"), ("2", "3")))
    action = FinitePartialAction(space, "F1", ("g",), (move,))
    d = Decomposition(frozenset({"1"}), ((frozenset({"1"}), "g"), (frozenset({"1"}), "")), 1)
    check, decision = check_paradoxical_witness(action, d), decide_G_infinite(action, {"1"})
    no_L_report = classify(no_L)
    ps = prim_space(lattice)
    return {
        "FiniteT0Space": space,
        "PartialHomeo": move,
        "FinitePartialAction": action,
        "QuasiOrbitSpace": action.quasi_orbit_space(),
        "Decomposition": d,
        "Violation": check.violation,
        "WitnessCheck": check,
        "FiniteCounting": decision.proof,
        "GInfiniteDecision": decision,
        "SimpleVerdict": no_L_report.simple,
        "PurelyInfiniteVerdict": classify(unfed).purely_infinite,
        "ClassificationReport": no_L_report,
        "CycleWitness": no_L_report.condition_L_witness,
        "ConditionL": condition_L(no_L),
        "ConditionK": condition_K(no_L),
        "Edge": no_L.edges[0],
        "Graph": no_L,
        "Component": scc_decomposition(no_L)[0],
        "Path": no_L_report.simple.cycle,
        "Poset": lattice._prime_order,
        "PrimPoint": ps.points[0],
        "PrimSpace": ps,
    }


SAMPLES = samples()
# PrimSpace has no generated __init__: only prim_space fills it
NAMES = sorted(set(SAMPLES) - {"PrimSpace"})
FROZEN = sorted(SAMPLES)


def rebuild(x):
    """A fresh value with x's fields: from the constructor, or for a
    PrimSpace from prim_space on the same graph."""
    if isinstance(x, PrimSpace):
        return prim_space(x.graph)
    return type(x)(*(getattr(x, f.name) for f in dataclasses.fields(x)))


def twin(cls: type) -> type:
    """The plain frozen dataclass with cls's fields and defaults: the
    __init__ that @dataclass(frozen=True) would generate, and no methods."""
    specs = [(f.name, f.type, dataclasses.field(default=f.default)) for f in dataclasses.fields(cls)]
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


def test_every_record_class_has_a_sample():
    assert sorted(record_classes()) == NAMES and len(NAMES) == 21
    assert all(type(SAMPLES[name]) is cls for name, cls in record_classes().items())


@pytest.mark.parametrize("name", NAMES)
def test_signature_is_the_dataclass_one(name):
    cls = record_classes()[name]
    sig = inspect.signature(cls)
    assert sig == inspect.signature(twin(cls))  # names, order, kinds, defaults, annotations
    assert [p.name for p in sig.parameters.values()] == [f.name for f in dataclasses.fields(cls)]


@pytest.mark.parametrize("name", NAMES)
def test_arguments_bind_by_position_keyword_and_default(name):
    x, fs = SAMPLES[name], dataclasses.fields(SAMPLES[name])
    cls, values = type(x), [getattr(x, f.name) for f in fs]
    kw = {f.name: v for f, v in zip(fs, values)}
    assert cls(*values) == x and cls(**kw) == x
    assert cls(*values[:1], **dict(list(kw.items())[1:])) == x
    required = [v for f, v in zip(fs, values) if f.default is dataclasses.MISSING]
    if len(required) < len(fs):
        y = cls(*required)
        assert all(getattr(y, f.name) == f.default for f in fs if f.default is not dataclasses.MISSING)
    # a call that cannot bind fails with the generated __init__'s message
    other = twin(cls)
    calls = [((*values, None), {}), (values, {"no_such_field": 1}), (values[:1], kw)]
    if required:
        calls.append(((), {}))
    for args, kwargs in calls:
        assert binding_error(cls, args, kwargs) == binding_error(other, args, kwargs) != ""


def binding_error(cls: type, args, kwargs) -> str:
    try:
        cls(*args, **kwargs)
    except TypeError as exc:
        return str(exc)
    return ""


@pytest.mark.parametrize("name", FROZEN)
def test_assignment_raises_frozen_instance_error(name):
    x = SAMPLES[name]
    for f in dataclasses.fields(x):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, f.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, f.name)


@pytest.mark.parametrize("name", FROZEN)
def test_equality_hash_and_repr_read_the_fields(name):
    x, fs = SAMPLES[name], dataclasses.fields(SAMPLES[name])
    values = [getattr(x, f.name) for f in fs]
    y = rebuild(x)
    assert y is not x and y == x and hash(y) == hash(x) and hash(x) == hash(tuple(values))
    shown = ", ".join(f"{f.name}={v!r}" for f, v in zip(fs, values))
    assert repr(x) == f"{type(x).__qualname__}({shown})"


@pytest.mark.parametrize("name", FROZEN)
def test_pickle_and_replace_round_trip(name):
    x = SAMPLES[name]
    back = pickle.loads(pickle.dumps(x))
    assert type(back) is type(x) and back == x and hash(back) == hash(x)
    if isinstance(x, PrimSpace):  # replace would build one from a list of points
        with pytest.raises(TypeError):
            dataclasses.replace(x)
        return
    same = dataclasses.replace(x)
    assert type(same) is type(x) and same == x


@pytest.mark.parametrize("init, execs", [(True, 1), (False, 0)])
def test_a_record_generates_one_function_its_init(monkeypatch, init, execs):
    calls, real_exec = [], builtins.exec

    def counting_exec(*args):
        calls.append(args[0])
        return real_exec(*args)

    monkeypatch.setattr(builtins, "exec", counting_exec)

    @record(init=init)
    class Pair:
        """Two fields, one with a default, and a check after the init."""

        a: int
        b: str = "x"

        def __post_init__(self):
            if self.a < 0:
                raise ValueError("a is negative")

    monkeypatch.undo()
    assert len(calls) == execs
    assert ("__init__" in vars(Pair)) is init
    if init:
        assert Pair(1) == Pair(a=1, b="x") != Pair(1, "y")
        assert inspect.signature(Pair) == inspect.signature(twin(Pair))
        with pytest.raises(ValueError, match="a is negative"):
            Pair(-1)


def test_validation_still_raises_its_messages():
    g = Graph(("a", "b", "c"), (Edge("x", "a", "b"), Edge("y", "b", "c")))
    cases = [
        (lambda: Graph(("a", "a"), ()), GraphFormatError, "vertex 'a': duplicate id"),
        (
            lambda: Graph(vertices=("a",), edges=(Edge("x", "a", "b"),)),
            GraphFormatError,
            "edge 'x': dangling endpoint 'b'",
        ),
        (lambda: Path(g, ()), ValueError, "a path needs at least one edge"),
        (lambda: Path(graph=g, edge_ids=("z",)), ValueError, "unknown edge 'z'"),
        (
            lambda: Path(g, ("x", "y")),
            ValueError,
            "edges 'x' and 'y' do not compose: src(x)='a' != rng(y)='c'",
        ),
        (lambda: FiniteT0Space(("p", "p"), frozenset()), ActionFormatError, "point 'p': duplicate id"),
    ]
    for build, kind, message in cases:
        with pytest.raises(kind) as info:
            build()
        assert str(info.value) == message
    assert Path(g, ("y", "x")).walk_edge_ids() == ("x", "y")
