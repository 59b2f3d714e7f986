"""`graphs.encode_json`, the one pretty-printer of the package, against
``json.dumps(obj, indent=2)``: on arbitrary nested values, on the values it
must refuse, and on every JSON document the CLI prints."""

import io
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from graphck import admissible_pairs, classify, graph_to_json, parse_action, parse_graph, prim_space
from graphck.cli import run
from graphck.graphs import encode_json
from graphck.spectrum import prim_space_to_json_obj

from test_golden import ACTIONS
from util import CORPUS_DIR, CORPUS_NAMES, random_action, random_graph, random_open_set, random_word

TRICKY = ["", '"', "\\", "\x00", "\x1f", "\x7f", "é", " ", "\ud800", "\udfff", "\U0001f600"]

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**60), max_value=10**60)
    | st.sampled_from([0, 1, -1, True, False])  # bool next to the ints it equals
    | st.text(st.characters(blacklist_categories=()), max_size=8)  # surrogates included
    | st.sampled_from(TRICKY)
)
keys = st.text(st.characters(blacklist_categories=()), max_size=6) | st.sampled_from(TRICKY)
values = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=5)
    | st.lists(children, max_size=5).map(tuple)
    | st.dictionaries(keys, children, max_size=5),
    max_leaves=40,
)


@settings(max_examples=250)
@given(values)
def test_writer_matches_json_dumps(obj):
    assert encode_json(obj) == json.dumps(obj, indent=2) + "\n"


def test_writer_matches_json_dumps_on_deep_and_long_values():
    deep = leaf = []
    for _ in range(60):  # past the indent pieces made at import
        leaf.append({"k": []})
        leaf = leaf[0]["k"]
    leaf.extend(["x", 1, None])
    long = {"rows": [[i, str(i), i % 2 == 0, None] for i in range(3000)], "names": TRICKY * 500}
    strs = [Str("s"), {Str("k"): Str("v"), "k": [Str("w"), "x"]}]  # rendered as their str
    for obj in (deep, long, strs, [TRICKY, 1], [1, TRICKY], ["a", ["b"]], ("a", 1)):
        assert encode_json(obj) == json.dumps(obj, indent=2) + "\n"


class Int(int):
    pass


class Str(str):
    pass


@pytest.mark.parametrize(
    "obj",
    [1.5, float("nan"), {1}, frozenset(), {1: "a"}, {None: 1}, {True: 1}, {(1,): 1}, Int(3),
     [Int(3)], {"a": [1, 2.0]}, ["a", b"b"], ["a", 1.0], object(), range(2)],
    # repr(object()) carries a memory address; name that case so its id is the same every run
    ids=lambda obj: "object()" if type(obj) is object else repr(obj),
)
def test_writer_refuses_other_types(obj):
    with pytest.raises(TypeError):
        encode_json(obj)


# -- every JSON document of the CLI -----------------------------------------------------


def invoke(*argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    assert (code, err.getvalue()) == (0, ""), argv
    return out.getvalue()


def check_layout(*argv) -> None:
    text = invoke(*argv, "--format", "json")
    assert text == json.dumps(json.loads(text), indent=2) + "\n", argv


def graph_files(tmp_path) -> list[str]:
    """Corpus e1-e7 and 50 seeded random graphs."""
    files = [str(CORPUS_DIR / f"{name}.json") for name in CORPUS_NAMES]
    rng = random.Random(28)
    for k in range(50):
        path = tmp_path / f"g{k}.json"
        path.write_text(graph_to_json(random_graph(rng, max_n=6)))
        files.append(str(path))
    return files


def test_graph_documents_have_the_json_dumps_layout(tmp_path):
    for path in graph_files(tmp_path):
        g = parse_graph(open(path).read())
        for command in ("analyze", "spectrum"):
            check_layout(command, path)
        for p in admissible_pairs(g).pairs:
            selector = f"H={','.join(g.sort_set(p.h))};B={','.join(g.sort_set(p.b))}"
            check_layout("quotient", path, "--pair", selector)
        # the library's own renderers, on the same graph
        report, space = classify(g).to_json_obj(), prim_space_to_json_obj(prim_space(g))
        for obj in (report, space):
            assert encode_json(obj) == json.dumps(obj, indent=2) + "\n"


def action_obj(a) -> dict:
    return {
        "points": list(a.space.points),
        "specialization": sorted(map(list, a.space.closure_pairs)),
        "group": a.group,
        "generators": [
            {"name": n, "map": [list(xy) for xy in gen.pairs]}
            for n, gen in zip(a.generator_names, a.generators)
        ],
    }


def test_paction_documents_have_the_json_dumps_layout(tmp_path):
    rng = random.Random(28)
    actions = [parse_action(json.dumps(obj)) for obj in ACTIONS.values()]
    actions += [random_action(rng) for _ in range(20)]
    for k, a in enumerate(actions):
        path = tmp_path / f"a{k}.json"
        path.write_text(json.dumps(action_obj(a)))
        path = str(path)
        for query in ("quasi_orbit_space", "invariant_subsets", "is_minimal",
                      "is_topologically_free", "is_residually_topologically_free"):
            check_layout("paction", path, query)
        for point in a.space.points:
            for query in ("orbit", "quasi_orbit"):
                check_layout("paction", path, query, "--point", point)
        check_layout("paction", path, "element_map", "--word", random_word(rng, a))
        V = random_open_set(rng, a.space) or a.space.points  # V must be nonempty
        check_layout("paction", path, "decide_G_infinite", "--set", ",".join(a.space.sort_set(V)))
        names = list(a.space.sort_set(V))
        parts = [{"set": names, "word": random_word(rng, a)} for _ in range(2)]
        witness = tmp_path / f"w{k}.json"
        for query, split in (("check_paradoxical_witness", 1), ("check_infinite_witness", None)):
            witness.write_text(json.dumps({"V": names, "parts": parts, "split": split}))
            check_layout("paction", path, query, "--witness", str(witness))
