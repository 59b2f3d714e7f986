"""The CLI contract on arbitrary input: every subcommand and format exits 0, 1
or 2, never raises, and prints nothing to stdout when it fails.

Inputs are arbitrary JSON values and text, plus graph-, action- and
witness-shaped objects whose ids include the empty and the reserved ones, so
that both the parsers and the code behind them are reached.
"""

import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from graphck.cli import run

GOOD_IDS = ["a", "b", "c", "d", "omega", "a~", "e~a", "v0"]
BAD_IDS = ["", ",", "a;b", "x,"]
ID = st.sampled_from(GOOD_IDS + BAD_IDS)

JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4) | ID,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["vertices", "edges", "points"]) | ID, inner, max_size=4),
    max_leaves=10,
)
BAD_MULT = st.sampled_from([0, -1, True, None, "x", 1.5, 10**30, "9" * 5000]) | JSON
WORD = st.sampled_from(["g", "g^-1", "h^-1 g", "g^1000000000000", "e", "", "3", "g^", "x", "g·h"])
SELECTOR = st.sampled_from(["H=;B=", "H=a;B=", "H=a,b;B=c", "H=omega;B=", "bad", "H=zz;B="])
LIMIT = st.sampled_from([[], ["--limit", "1"], ["--limit", "3"], ["--limit", "0"]])
QUERIES = [
    "orbit",
    "quasi_orbit",
    "quasi_orbit_space",
    "invariant_subsets",
    "is_minimal",
    "is_topologically_free",
    "is_residually_topologically_free",
    "element_map",
    "decide_G_infinite",
    "check_paradoxical_witness",
    "check_infinite_witness",
]


@st.composite
def ids(draw, max_size, fault):
    """Distinct good ids; with fault "id", one empty, reserved or mistyped id added."""
    out = draw(st.lists(st.sampled_from(GOOD_IDS), unique=True, min_size=1, max_size=max_size))
    if fault == "id":
        out.insert(draw(st.integers(0, len(out))), draw(st.sampled_from([7] + BAD_IDS + [None])))
    return out


@st.composite
def graph_text(draw, fault):
    """A graph file's text, JSON or edgelist: clean, or with the fault planted."""
    if fault == "text":
        return draw(st.text(max_size=20))
    vs = draw(ids(6, fault))
    ends, mult = st.sampled_from(vs), st.sampled_from([1, 1, 2, 3, "omega"])
    edgelist = fault != "edge_id" and draw(st.booleans())  # edgelist ids are generated
    if edgelist:
        line = st.builds("{} {} {}".format, ends, ends, mult) | st.just("# note")
        bad_mult = st.sampled_from(["0", "-3", "x", "+1", "9" * 5000])
        bad = {
            "mult": st.builds("{} {} {}".format, ends, ends, bad_mult),
            "end": st.builds("{} zz 1".format, ends),
            "edge": st.sampled_from(["vertex", "vertex a b", "a b", "a b 1 2", "vertex a"]),
            "json": st.text(max_size=8),
        }
        lines = [f"vertex {v}" for v in vs] + draw(st.lists(line, max_size=8))
    else:
        edge = st.fixed_dictionaries({"src": ends, "rng": ends, "mult": mult})
        bad = {
            "mult": st.fixed_dictionaries({"src": ends, "rng": ends, "mult": BAD_MULT}),
            "end": st.fixed_dictionaries({"src": ends, "rng": st.just("zz"), "mult": mult}),
            "edge": st.one_of(
                JSON,
                st.fixed_dictionaries({"src": ends, "rng": ends, "mult": mult, "id": ID | JSON}),
                st.fixed_dictionaries({"src": st.lists(ends), "rng": ends, "mult": mult}),
                st.fixed_dictionaries({"src": ends, "rng": ends}),
            ),
            "edge_id": st.fixed_dictionaries(
                {"src": ends, "rng": ends, "mult": mult, "id": st.sampled_from(["", ",", "x,y"])}
            ),
        }
        if fault == "json":
            return json.dumps(draw(JSON))
        lines = draw(st.lists(edge, max_size=8))
    if fault in bad:
        lines.insert(draw(st.integers(0, len(lines))), draw(bad[fault]))
    if edgelist:
        return "\n".join(lines) + "\n"
    return json.dumps({"vertices": vs, "edges": lines})


@st.composite
def action_text(draw, fault):
    """An action file's text, clean or with the fault planted, and the point
    ids the options draw from."""
    if fault == "text":
        return draw(st.text(max_size=20)), GOOD_IDS[:2]
    ps = draw(ids(4, fault))
    k = draw(st.integers(0, 2))

    def partial_map():  # injective, so a partial homeomorphism of the discrete space
        dom = draw(st.lists(st.sampled_from(ps), unique=True, max_size=len(ps)))
        img = draw(st.permutations(ps))[: len(dom)]
        return [[x, y] for x, y in zip(dom, img)]

    maps = [partial_map() for _ in range(k)]
    obj = {
        "points": ps,
        "specialization": [],
        "group": "Z" if k == 1 and draw(st.booleans()) else f"F{k}",
        "generators": [{"name": n, "map": m} for n, m in zip(["g", "h"], maps)],
    }
    point = st.sampled_from(ps + ["zz"])
    pair = st.lists(point, min_size=2, max_size=2)
    bad_pairs = st.lists(pair | st.lists(point) | JSON, min_size=1)
    if fault == "spec":  # unknown points, cycles, malformed pairs
        obj["specialization"] = draw(bad_pairs)
    elif fault in ("map", "name"):  # one more generator, malformed or misnamed
        names = ["g", "", "e", "a b", "g^2", "a*b", "g·h", "3", "-1", 7, None]
        bad = {"name": draw(st.sampled_from(names)), "map": []}
        if fault == "map":
            bad = {"name": "f", "map": draw(bad_pairs | JSON)}
        obj["generators"].insert(0, bad)
        obj["group"] = f"F{len(obj['generators'])}"
    elif fault == "group":
        obj["group"] = draw(st.sampled_from(["Z", "F3", "G", "", "Z2"]))
    text = json.dumps(draw(JSON) if fault == "json" else obj)
    return text, [p for p in ps if isinstance(p, str)]


def witness_text(points):
    point_set = st.lists(st.sampled_from(points), unique=True, max_size=3)
    bad_set = st.lists(st.sampled_from(points + ["zz", ""]), max_size=3)
    part = st.fixed_dictionaries({"set": point_set | bad_set, "word": WORD})
    obj = st.fixed_dictionaries(
        {"V": point_set, "parts": st.lists(part, max_size=3)},
        optional={"split": st.sampled_from([0, 1, 5, None, "1", True])},
    )
    return (obj | JSON).map(json.dumps)


def check(argv, must_fail=False):
    out, err = io.StringIO(), io.StringIO()
    code = run(argv, out=out, err=err)  # an exception fails the test
    assert code in ((1,) if must_fail else (0, 1, 2)), (argv, code)
    if code:
        assert out.getvalue() == "", argv
        assert err.getvalue() != "", argv


def write(tmp_path_factory, name, text):
    path = tmp_path_factory.getbasetemp() / name
    path.write_text(text)
    return str(path)


@pytest.mark.parametrize("fault", [None, "id", "mult", "end", "edge", "edge_id", "json", "text"])
@settings(max_examples=40, deadline=None)
@given(data=st.data(), pair=SELECTOR, limit=LIMIT)
def test_graph_subcommands_hold_the_contract(tmp_path_factory, fault, data, pair, limit):
    path = write(tmp_path_factory, "fuzz-graph", data.draw(graph_text(fault)))
    bad_id = fault == "edge_id"  # an empty or comma-holding edge id: every command fails
    for fmt in ("text", "json"):
        check(["analyze", path, "--format", fmt], bad_id)
        check(["quotient", path, "--pair", pair, "--format", fmt], bad_id)
    for fmt in ("text", "json", "dot"):
        check(["lattice", path, "--format", fmt, *limit], bad_id)
        check(["spectrum", path, "--format", fmt], bad_id)


@pytest.mark.parametrize("fault", [None, "id", "spec", "map", "name", "group", "json", "text"])
@settings(max_examples=12, deadline=None)
@given(data=st.data(), limit=LIMIT)
def test_paction_queries_hold_the_contract(tmp_path_factory, fault, data, limit):
    text, points = data.draw(action_text(fault))
    path = write(tmp_path_factory, "fuzz-action", text)
    witness = write(tmp_path_factory, "fuzz-witness", data.draw(witness_text(points)))
    point_set = st.lists(st.sampled_from(points), unique=True, min_size=1).map(",".join)
    options = [
        "--point", data.draw(st.sampled_from(points + ["zz", ""])),
        "--word", data.draw(WORD),
        "--set", data.draw(point_set | st.sampled_from(["", ",", "zz"])),
        "--witness", witness,
    ]
    for query in QUERIES:
        for fmt in ("text", "json"):
            check(["paction", path, query, "--format", fmt, *options, *limit])
    # the options a query needs, left out
    for query in ("orbit", "element_map", "decide_G_infinite", "check_infinite_witness"):
        check(["paction", path, query])
