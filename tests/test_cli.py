"""Command-line surface: formats, exit codes, determinism."""

import ast
import errno
import io
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc

import jsonschema
import pytest

from graphck import (
    check_paradoxical_witness,
    classify,
    parse_action,
    parse_decomposition,
    parse_graph,
)
from graphck.cli import run
from graphck.poset import Poset

from util import CORPUS_DIR, DOCS_DIR, REPO, reference_is_purely_infinite


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


E4 = str(CORPUS_DIR / "e4.json")
E1 = str(CORPUS_DIR / "e1.json")


def schema(name):
    return json.loads((DOCS_DIR / f"{name}.schema.json").read_text())


def test_analyze_json(corpus):
    code, out, err = invoke("analyze", E1, "--format", "json")
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["residually_aperiodic"] is True
    jsonschema.validate(obj, schema("report"))


def test_analyze_rejects_dot(tmp_path):
    code, out, err = invoke("analyze", E1, "--format", "dot")
    assert code == 1 and "format" in err
    # quotient and paction write text or JSON only, and say so at parse time
    for argv in (["quotient", E1, "--pair", "H=;B="], ["paction", make_action(tmp_path), "orbit"]):
        code, out, err = invoke(*argv, "--format", "dot")
        assert (code, out) == (1, "") and "invalid choice: 'dot'" in err


def test_lattice_formats(corpus):
    code, out, _ = invoke("lattice", E4, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, schema("lattice"))
    assert len(obj["pairs"]) == 4
    code, out, _ = invoke("lattice", E4, "--format", "dot")
    assert code == 0 and out.count("->") == 3
    code, out, _ = invoke("lattice", E4)
    assert code == 0 and "admissible pairs: 4" in out


def test_spectrum_formats(corpus):
    code, out, _ = invoke("spectrum", E4, "--format", "dot")
    assert code == 0
    assert out.count('"') % 2 == 0 and out.count("->") == 2  # 3-node chain
    code, out, _ = invoke("spectrum", E4, "--format", "json")
    obj = json.loads(out)
    jsonschema.validate(obj, schema("spectrum"))
    assert obj["status"] == "Primitive" and len(obj["points"]) == 3


def test_quotient_selector(tmp_path, corpus):
    code, out, _ = invoke("quotient", E4, "--pair", "H=w;B=v")
    assert code == 0
    obj = json.loads(out)
    assert obj["vertices"] == ["v"] and len(obj["edges"]) == 2
    # edgelist input produces edgelist output
    el = tmp_path / "e4.edges"
    el.write_text("vertex v\nvertex w\nv v 1\nv v 1\nw v omega\n")
    code, out, _ = invoke("quotient", str(el), "--pair", "H=w;B=v")
    assert code == 0 and out.splitlines() == ["vertex v", "v v 1", "v v 1"]
    # empty selector picks the bottom pair
    code, out, _ = invoke("quotient", E4, "--pair", "H=;B=")
    assert code == 0 and json.loads(out)["vertices"] == ["v", "w"]


def test_quotient_selector_errors():
    code, _, err = invoke("quotient", E4, "--pair", "H=w")
    assert code == 1 and "selector" in err
    code, _, err = invoke("quotient", E4, "--pair", "H=zz;B=")
    assert code == 1 and "unknown vertex" in err
    code, _, err = invoke("quotient", E4, "--pair", "H=;B=v")
    assert code == 1 and "inadmissible" in err


def test_parse_error_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": ["v"], "edges": [{"src":"v","rng":"x","mult":1}]}')
    code, out, err = invoke("analyze", str(bad))
    assert code == 1 and out == "" and "dangling endpoint" in err
    code, _, err = invoke("analyze", str(tmp_path / "missing.json"))
    assert code == 1 and "cannot read" in err


def test_undecodable_input_names_its_path_and_exits_1(tmp_path):
    """A graph, action or witness file that is not UTF-8 is a read error
    naming the file, as a missing one is."""
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"vertices": ["\xff"]}')
    action = make_action(tmp_path)
    for argv in (
        ["analyze", str(bad)],
        ["paction", str(bad), "orbit"],
        ["paction", action, "check_infinite_witness", "--witness", str(bad)],
    ):
        code, out, err = invoke(*argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff")
        assert err.count("\n") == 1


def test_a_repeated_key_keeps_its_last_value(tmp_path):
    path = tmp_path / "twice.json"
    path.write_text('{"vertices": ["a"], "edges": [], "vertices": ["b", "c"]}')
    code, out, err = invoke("quotient", str(path), "--pair", "H=;B=", "--format", "json")
    assert (code, err) == (0, "") and json.loads(out)["vertices"] == ["b", "c"]


def test_mistyped_graph_json_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"vertices": ["v"], "edges": [{"src": ["v"], "rng": "v", "mult": 1}]}')
    code, out, err = invoke("analyze", str(bad))
    assert code == 1 and out == "" and "edge #0: src must be a string" in err


def test_json_array_input_is_read_as_json(tmp_path):
    bad = tmp_path / "array.json"
    bad.write_text("[1, 2]")
    code, out, err = invoke("analyze", str(bad))
    assert code == 1 and out == "" and "top level: expected a JSON object" in err


def test_reserved_characters_in_vertex_names_exit_1(tmp_path):
    js = tmp_path / "comma.json"
    js.write_text(json.dumps({"vertices": ["a,b", "c"], "edges": []}))
    el = tmp_path / "semicolon.edges"
    el.write_text("vertex c\nvertex a;b\n")
    for path, name, char in ((js, "a,b", ","), (el, "a;b", ";")):
        for cmd in ("analyze", "lattice"):
            code, out, err = invoke(cmd, str(path))
            assert code == 1 and out == ""
            assert f"vertex {name!r}: reserved character {char!r}" in err


def test_reserved_characters_in_point_names_exit_1(tmp_path):
    path = tmp_path / "action.json"
    for name, char in (("a,b", ","), ("a;b", ";")):
        path.write_text(json.dumps({"points": [name, "c"], "group": "F0", "generators": []}))
        for extra in (["invariant_subsets"], ["decide_G_infinite", "--set", name]):
            code, out, err = invoke("paction", str(path), *extra)
            assert code == 1 and out == ""
            assert f"point {name!r}: reserved character {char!r}" in err


def test_empty_vertex_id_exit_1(tmp_path):
    # an empty id prints like the empty set: the lattice of {"", "a"} drew
    # the label "H={};B={}" twice, with a self-loop between them
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"vertices": ["", "a"], "edges": []}))
    for cmd in ("analyze", "lattice", "spectrum"):
        for fmt in ("text", "json") + (("dot",) if cmd != "analyze" else ()):
            code, out, err = invoke(cmd, str(path), "--format", fmt)
            assert code == 1 and out == ""
            assert "vertex '': empty id" in err


def test_empty_or_comma_edge_id_exit_1(tmp_path):
    # the text report joins a cycle's edge ids with ",": these two edges
    # printed as the three-edge cycle "[,x,y]"
    edges = [
        {"id": "", "src": "v", "rng": "w", "mult": 1},
        {"id": "x,y", "src": "w", "rng": "v", "mult": 1},
    ]
    path = tmp_path / "edges.json"
    cases = (([0, 1], "edge '': empty id"), ([1], "edge 'x,y': reserved character ',' in id"))
    for kept, message in cases:
        path.write_text(json.dumps({"vertices": ["v", "w"], "edges": [edges[k] for k in kept]}))
        for cmd in ("analyze", "lattice", "spectrum"):
            for fmt in ("text", "json") + (("dot",) if cmd != "analyze" else ()):
                code, out, err = invoke(cmd, str(path), "--format", fmt)
                assert (code, out) == (1, ""), (cmd, fmt)
                assert message in err
        code, out, err = invoke("quotient", str(path), "--pair", "H=;B=")
        assert (code, out) == (1, "") and message in err


def test_empty_point_id_exit_1(tmp_path):
    # invariant_subsets printed {} for both the empty set and {""}
    path = tmp_path / "action.json"
    path.write_text(json.dumps({"points": ["", "x"], "group": "F0", "generators": []}))
    for fmt in ("text", "json"):
        code, out, err = invoke("paction", str(path), "invariant_subsets", "--format", fmt)
        assert code == 1 and out == ""
        assert "point '': empty id" in err


def invoke_action(tmp_path, **changes):
    obj = {"points": ["a", "b"], "specialization": [], "group": "F1"}
    obj["generators"] = [{"name": "g", "map": [["a", "a"]]}]
    path = tmp_path / "action.json"
    path.write_text(json.dumps({**obj, **changes}))
    return invoke("paction", str(path), "is_minimal")


def test_mistyped_specialization_exit_1(tmp_path):
    code, out, err = invoke_action(tmp_path, specialization=[["a", ["b"]]])
    assert code == 1 and out == "" and "specialization #0" in err


def test_mistyped_generator_name_exit_1(tmp_path):
    code, out, err = invoke_action(tmp_path, generators=[{"name": 7, "map": []}])
    assert code == 1 and out == "" and "generator #0: name must be a string" in err


@pytest.mark.parametrize("name", ["g^2", "g^", "a*b", "g·h", "3", "-1", "007"])
def test_generator_names_a_word_cannot_reach_exit_1(tmp_path, name):
    # element_map --word "g^2" answered "unknown generator 'g'", and over Z
    # the word "3" is the third power, not a generator named 3
    for group in ("F1", "Z"):
        code, out, err = invoke_action(
            tmp_path, group=group, generators=[{"name": name, "map": [["a", "a"]]}]
        )
        assert (code, out) == (1, "") and f"bad generator name {name!r}" in err


def test_mistyped_witness_json_exit_1(tmp_path):
    path = make_action(tmp_path)
    wit = tmp_path / "w.json"
    wit.write_text(json.dumps({"V": ["1"], "parts": [{"set": [["1"]], "word": ""}]}))
    code, out, err = invoke("paction", path, "check_infinite_witness", "--witness", str(wit))
    assert code == 1 and out == "" and "part #0: set must list point names" in err


def test_argparse_writes_to_the_given_streams(capsys):
    code, out, err = invoke("paction", E1, "nope")
    assert code == 1 and out == ""
    assert err.startswith("usage: graphck paction") and "invalid choice: 'nope'" in err
    code, out, err = invoke("--help")
    assert code == 0 and err == "" and out.startswith("usage: graphck")
    assert capsys.readouterr() == ("", "")


# argparse's help at 80 columns, for the top level and each graph subcommand
HELP = {
    (): """\
usage: graphck [-h] {analyze,lattice,spectrum,quotient,paction} ...

Invariants of directed multigraphs and their graph C*-algebras, and finite
models of partial dynamical systems.

positional arguments:
  {analyze,lattice,spectrum,quotient,paction}
    analyze             classification report for a graph
    lattice             admissible-pair ideal lattice
    spectrum            prime/primitive pair poset
    quotient            quotient graph by an admissible pair
    paction             partial-action queries on a finite T0 space

options:
  -h, --help            show this help message and exit
""",
    ("analyze",): """\
usage: graphck analyze [-h] [--format {text,json}] graph

positional arguments:
  graph

options:
  -h, --help            show this help message and exit
  --format {text,json}  output format (default: text)
""",
    ("lattice",): """\
usage: graphck lattice [-h] [--format {text,json,dot}] [--limit LIMIT] graph

positional arguments:
  graph

options:
  -h, --help            show this help message and exit
  --format {text,json,dot}
                        output format (default: text)
  --limit LIMIT         input size guard of the lattice enumeration (default:
                        16)
""",
    ("spectrum",): """\
usage: graphck spectrum [-h] [--format {text,json,dot}] graph

positional arguments:
  graph

options:
  -h, --help            show this help message and exit
  --format {text,json,dot}
                        output format (default: text)
""",
    ("quotient",): """\
usage: graphck quotient [-h] --pair PAIR [--format {text,json}] graph

positional arguments:
  graph

options:
  -h, --help            show this help message and exit
  --pair PAIR           selector "H=a,b;B=c"; empty: "H=;B="
  --format {text,json}  output format (default: text)
""",
}


@pytest.mark.parametrize("command", HELP, ids=lambda c: " ".join(c) or "graphck")
def test_help_texts_are_pinned(command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert invoke(*command, "--help") == (0, HELP[command], "")


def test_limit_exit_2(tmp_path):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"vertices": [f"v{i}" for i in range(17)], "edges": []}))
    code, _, err = invoke("lattice", str(big))
    assert code == 2 and "--limit" in err
    code, out, err = invoke("lattice", str(big), "--limit", "0")
    assert (code, out) == (1, "") and "--limit: must be a positive integer, got '0'" in err
    # analyze and spectrum enumerate no subsets, so they take no limit
    for cmd in ("analyze", "spectrum"):
        code, _, _ = invoke(cmd, str(big))
        assert code == 0
        code, out, err = invoke(cmd, str(big), "--limit", "17")
        assert (code, out) == (1, "") and err.startswith("usage: graphck")
        assert "unrecognized arguments: --limit 17" in err
    # paction invariant_subsets guards the number of points, not of sets:
    # a 17-cycle has two invariant subsets
    pts = [f"p{i}" for i in range(17)]
    cycle = {"name": "t", "map": [[pts[i], pts[(i + 1) % 17]] for i in range(17)]}
    action = tmp_path / "cycle.json"
    action.write_text(json.dumps({"points": pts, "group": "Z", "generators": [cycle]}))
    code, _, err = invoke("paction", str(action), "invariant_subsets")
    assert code == 2 and "--limit" in err
    code, out, _ = invoke("paction", str(action), "invariant_subsets", "--limit", "17")
    assert code == 0 and out.startswith("invariant subsets: 2\n")


def test_parser_built_once_parses_like_a_fresh_one(tmp_path, monkeypatch):
    import graphck.cli as cli

    action = make_action(tmp_path)
    E6 = str(CORPUS_DIR / "e6.json")  # three vertices
    calls = [
        ["paction", action, "nope"],
        ["paction", action, "orbit", "--point", "1"],
        ["paction", action, "is_minimal"],
        ["lattice", E6, "--limit", "2"],
        ["lattice", E6],
    ]
    reused = [invoke(*argv) for argv in calls]
    fresh = []
    for argv in calls:
        monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
        fresh.append(invoke(*argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [1, 0, 0, 2, 0]
    assert reused[1][1] == "orbit(1) = {1,2,3}\n"


def test_deeply_nested_json_exits_1(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    action = make_action(tmp_path)
    for argv in (
        ["analyze", str(deep)],
        ["lattice", str(deep)],
        ["paction", str(deep), "is_minimal"],
        ["paction", action, "check_infinite_witness", "--witness", str(deep)],
    ):
        code, out, err = invoke(*argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("error:") and "nested too deeply" in err
        assert "Traceback" not in err


def test_long_input_values_are_clipped_in_errors(tmp_path):
    # a diagnostic echoes a bounded prefix of the offending value
    cases = {
        "long.json": '{"vertices": ["v"], "edges": [{"src": "v", "rng": "v", "mult": "%s"}]}'
        % ("x" * 1_000_000),
        "deep.json": '{"vertices": ["v"], "edges": [{"src": "v", "rng": "v", "mult": %s}]}'
        % ("[" * 900 + "]" * 900),
        "long.edges": "vertex v\nv v " + "7x" * 500_000 + "\n",
    }
    for name, text in cases.items():
        path = tmp_path / name
        path.write_text(text)
        code, out, err = invoke("analyze", str(path))
        assert (code, out) == (1, ""), name
        assert "multiplicity must be a positive integer" in err
        assert len(err.encode()) < 300, (name, len(err))
    # short values are echoed whole, as before
    short = tmp_path / "short.json"
    short.write_text('{"vertices": ["v"], "edges": [{"src": "v", "rng": "v", "mult": "x"}]}')
    assert invoke("analyze", str(short)) == (
        1,
        "",
        f'error: {short}: edge #0: multiplicity must be a positive integer or "omega", got \'x\'\n',
    )


def test_oversized_integer_literals_exit_1(tmp_path):
    # over Python's int-conversion digit limit: a located format error, no API hint
    digits = "7" * 5000
    graphs = {
        "big.json": '{"vertices": ["v"], "edges": [{"src": "v", "rng": "v", "mult": %s}]}'
        % digits,
        "big.edges": f"vertex v\nv v {digits}\n",
        "signed.edges": f"vertex v\nv v +{digits}\n",
    }
    cases = []
    for name, text in graphs.items():
        (tmp_path / name).write_text(text)
        cases.append((str(tmp_path / name), ["analyze", str(tmp_path / name)]))
    big_action = tmp_path / "big_action.json"
    big_action.write_text('{"points": ["a"], "specialization": [], "group": %s}' % digits)
    cases.append((str(big_action), ["paction", str(big_action), "is_minimal"]))
    witness = tmp_path / "witness.json"
    witness.write_text('{"pieces": [%s]}' % digits)
    cases.append(
        (str(witness), ["paction", make_action(tmp_path), "check_infinite_witness",
                        "--witness", str(witness)])
    )
    for path, argv in cases:
        code, out, err = invoke(*argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith(f"error: {path}: ") and "integer literal too long" in err, err
        assert "set_int_max_str_digits" not in err and len(err.encode()) < 300
    code, _, err = invoke("analyze", str(tmp_path / "big.edges"))
    assert "line 2: integer literal too long" in err
    # a malformed token keeps its old diagnostic
    (tmp_path / "bad.edges").write_text("vertex v\nv v 7x\n")
    code, _, err = invoke("analyze", str(tmp_path / "bad.edges"))
    assert code == 1 and 'must be a positive integer or "omega", got \'7x\'' in err


def test_analyze_and_spectrum_enumerate_no_subsets(tmp_path, monkeypatch, corpus):
    def refuse(*args, **kwargs):
        raise AssertionError("subset enumeration")

    # lattice enumerates pairs (and saturated hereditary sets) through the
    # up-set enumerator of the prime order; analyze and spectrum never reach it
    monkeypatch.setattr(Poset, "upset_meets", refuse)
    with pytest.raises(AssertionError, match="subset enumeration"):
        invoke("lattice", E4)
    # 40 vertices: far beyond what an enumeration of 2^40 sets could finish
    edgeless = tmp_path / "edgeless.json"
    edgeless.write_text(json.dumps({"vertices": [f"v{i}" for i in range(40)], "edges": []}))
    chain = tmp_path / "chain.edges"
    chain.write_text(
        "".join(f"vertex v{i}\n" for i in range(40))
        + "".join(f"v{i} v{i + 1} 1\n" for i in range(39))
    )
    paths = [str(CORPUS_DIR / f"{name}.json") for name in corpus] + [str(edgeless), str(chain)]
    outputs = {}
    for path in paths:
        for cmd, fmt in (("analyze", "text"), ("analyze", "json"), ("spectrum", "json"),
                         ("spectrum", "text"), ("spectrum", "dot")):
            code, out, err = invoke(cmd, path, "--format", fmt)
            assert code == 0 and err == ""
            outputs[cmd, fmt, path] = out
    ps = json.loads(outputs["spectrum", "json", str(edgeless)])
    assert [pt["label"] for pt in ps["points"]] == [f"Tail{{v{i}}}" for i in range(40)]
    report = json.loads(outputs["analyze", "json", str(edgeless)])
    assert report["simple"]["reason"]["pair"] == {"H": ["v0"], "B": []}
    assert report["purely_infinite"]["reason"]["kind"] == "tail_vertex_not_fed_by_cycle"
    # the chain's algebra is a full matrix algebra: simple, not purely infinite
    report = json.loads(outputs["analyze", "json", str(chain)])
    assert (report["simple"]["verdict"], report["purely_infinite"]["verdict"]) == ("yes", "no")
    assert len(json.loads(outputs["spectrum", "json", str(chain)])["points"]) == 1


def test_analyze_scales_to_a_thousand_vertex_chain(tmp_path):
    # every saturation question is read off the one maximal tail: no closure
    # rescans the chain round by round (minutes before the prime-point kernel)
    n = 1000
    chain = tmp_path / "chain.edges"
    chain.write_text(
        "".join(f"vertex v{i}\n" for i in range(n))
        + "".join(f"v{i} v{i + 1} 1\n" for i in range(n - 1))
    )
    start = time.perf_counter()
    code, out, err = invoke("analyze", str(chain), "--format", "json")
    elapsed = time.perf_counter() - start
    assert (code, err) == (0, "")
    report = json.loads(out)
    # a chain gives a full matrix algebra: simple, and its one maximal tail
    # (everything) has no cycle, so it is not purely infinite
    assert report["simple"] == {"verdict": "yes", "reason": None}
    assert report["purely_infinite"]["reason"] == {
        "kind": "tail_vertex_not_fed_by_cycle",
        "tail": [f"v{i}" for i in range(n)],
        "vertex": "v0",
    }
    assert elapsed < 60, elapsed


def test_only_the_json_report_renders_tail_witnesses(tmp_path, monkeypatch):
    # n double loops, each feeding one vertex of an n-chain: purely infinite,
    # and the tail of loop i holds it and the chain from c_i on, so there are
    # n(n + 3)/2 witnesses, one per (tail, member)
    n = 60
    loops = tmp_path / "loops.edges"
    loops.write_text(
        "".join(f"vertex c{i}\nvertex l{i}\n" for i in range(n))
        + "".join(f"l{i} l{i} 2\nl{i} c{i} 1\n" for i in range(n))
        + "".join(f"c{i} c{i + 1} 1\n" for i in range(n - 1))
    )
    g = parse_graph(loops.read_text(), "edgelist")
    expected = classify(g).to_json_obj()
    expected["witnesses"]["purely_infinite"] = reference_is_purely_infinite(g)[1]
    code, out, err = invoke("analyze", str(loops), "--format", "json")
    assert (code, err) == (0, "") and out == json.dumps(expected, indent=2) + "\n"
    assert len(expected["witnesses"]["purely_infinite"]) == n * (n + 3) // 2

    class Rendered(Exception):
        pass

    def refuse(g):
        raise Rendered

    # the package name `classify` is the function; the module is in sys.modules
    monkeypatch.setattr(sys.modules["graphck.classify"], "_tail_witnesses", refuse)
    with pytest.raises(Rendered):
        invoke("analyze", str(loops), "--format", "json")
    code, out, err = invoke("analyze", str(loops))
    assert (code, err) == (0, "") and "purely infinite:                     yes\n" in out


def test_analyze_and_spectrum_count_no_first_returns(monkeypatch, corpus):
    # Conditions (L) and (K) are read off the components, not per-vertex closures
    def refuse(*args, **kwargs):
        raise AssertionError("first-return count")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "graphck" and hasattr(module, "first_return_count"):
            monkeypatch.setattr(module, "first_return_count", refuse)
    for name in corpus:
        path = str(CORPUS_DIR / f"{name}.json")
        for cmd, fmt in (("analyze", "text"), ("analyze", "json"), ("spectrum", "json"),
                         ("spectrum", "text"), ("spectrum", "dot")):
            code, out, err = invoke(cmd, path, "--format", fmt)
            assert code == 0 and err == "" and out


def test_word_exponents_are_not_expanded(tmp_path):
    action = make_action(tmp_path)  # F1 on 1 -> 2 -> 3: g^k is empty for k >= 3
    word = "g^1000000000000 g^-999999999999"
    code, out, err = invoke("paction", action, "element_map", "--word", word)
    assert (code, err, out) == (0, "", f"word {word!r} acts as: 1->2 2->3\n")
    code, out, err = invoke("paction", action, "element_map", "--word", "g^1000000000000")
    assert (code, err) == (0, "") and out.endswith("acts as: (empty map)\n")
    # an exponent past the int-conversion digit limit names the word
    word = "g^" + "9" * 5000
    code, out, err = invoke("paction", action, "element_map", "--word", word)
    assert (code, out) == (1, "")
    assert err.startswith("error: word 'g^999") and "integer literal too long" in err, err
    assert "set_int_max_str_digits" not in err and len(err.encode()) < 300


def make_action(tmp_path):
    path = tmp_path / "action.json"
    path.write_text(
        json.dumps(
            {
                "points": ["1", "2", "3"],
                "specialization": [],
                "group": "F1",
                "generators": [{"name": "g", "map": [["1", "2"], ["2", "3"]]}],
            }
        )
    )
    return str(path)


def test_paction_queries(tmp_path):
    path = make_action(tmp_path)
    sch = schema("paction")

    code, out, _ = invoke("paction", path, "orbit", "--point", "1", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, sch)
    assert obj["set"] == ["1", "2", "3"]

    code, out, _ = invoke("paction", path, "element_map", "--word", "g g", "--format", "json")
    obj = json.loads(out)
    jsonschema.validate(obj, sch)
    assert obj["map"] == [["1", "3"]]

    code, out, _ = invoke("paction", path, "is_topologically_free")
    assert code == 0 and out == "is_topologically_free: yes\n"

    code, out, _ = invoke("paction", path, "quasi_orbit_space", "--format", "json")
    obj = json.loads(out)
    jsonschema.validate(obj, sch)
    assert obj["classes"] == [["1", "2", "3"]]

    code, out, _ = invoke(
        "paction", path, "decide_G_infinite", "--set", "1,2", "--format", "json"
    )
    obj = json.loads(out)
    jsonschema.validate(obj, sch)
    assert obj["infinite"] is False and obj["proof"]["kind"] == "finite_counting"

    code, out, _ = invoke("paction", path, "invariant_subsets", "--format", "json")
    jsonschema.validate(json.loads(out), sch)

    for query in ("orbit", "quasi_orbit"):
        assert invoke("paction", path, query, "--point", "zz") == (
            1, "", "error: unknown point 'zz'\n"
        )


def test_paction_witness_check(tmp_path):
    path = make_action(tmp_path)
    wit = tmp_path / "w.json"
    wit.write_text(
        json.dumps(
            {
                "V": ["1", "2", "3"],
                "parts": [
                    {"set": ["1", "2", "3"], "word": ""},
                    {"set": ["1", "2", "3"], "word": ""},
                ],
                "split": 1,
            }
        )
    )
    code, out, _ = invoke(
        "paction", path, "check_paradoxical_witness", "--witness", str(wit), "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    jsonschema.validate(obj, schema("paction"))
    assert obj["valid"] is False and obj["violation"]["clause"] == "images_overlap"

    wit.write_text(json.dumps({"V": ["1", "2", "3"], "parts": [], "split": True}))
    assert invoke("paction", path, "check_paradoxical_witness", "--witness", str(wit)) == (
        1, "", f'error: {wit}: malformed decomposition: "split": expected an integer or null\n'
    )

    code, _, err = invoke("paction", path, "orbit")
    assert code == 1 and "--point" in err

    # a non-discrete space: {b} is not open in the two-point chain
    chain = tmp_path / "chain.json"
    chain.write_text(
        json.dumps(
            {
                "points": ["a", "b"],
                "specialization": [["a", "b"]],
                "group": "F0",
                "generators": [],
            }
        )
    )
    code, _, err = invoke("paction", str(chain), "decide_G_infinite", "--set", "b")
    assert code == 1 and "not open" in err


def test_input_schemas_accept_corpus_and_action(tmp_path):
    for name in ("e1", "e4", "e7"):
        obj = json.loads((CORPUS_DIR / f"{name}.json").read_text())
        jsonschema.validate(obj, schema("graph"))
    jsonschema.validate(json.loads(open(make_action(tmp_path)).read()), schema("action"))


ACTION = {"points": ["1"], "group": "F0", "generators": []}
GRAPH = {"vertices": ["v"], "edges": []}


def loop(**edge):
    return {"vertices": ["v"], "edges": [{"src": "v", "rng": "v", "mult": 1, **edge}]}


# where the input schemas and the parsers part, as docs/FORMATS.md lists it:
# (id, schema, document, whether the parser reads it)
SCHEMA_GAPS = [
    ("graph-without-edges", "graph", {"vertices": ["v"]}, True),
    ("graph-unknown-key", "graph", {**GRAPH, "name": "g"}, True),
    ("edge-unknown-key", "graph", loop(note=""), True),
    ("action-unknown-key", "action", {**ACTION, "note": ""}, True),
    ("action-without-generators", "action", {"points": ["1"], "group": "F0"}, True),
    ("witness-unknown-key", "witness", {"V": [], "parts": [], "note": ""}, True),
    ("negative-split", "witness", {"V": [], "parts": [], "split": -1}, True),
    ("float-mult", "graph", loop(mult=1.0), False),
    ("float-split", "witness", {"V": [], "parts": [], "split": 1.0}, False),
    ("empty-vertex-id", "graph", {"vertices": [""], "edges": []}, False),
    ("repeated-vertex-id", "graph", {"vertices": ["v", "v"], "edges": []}, False),
    ("comma-vertex-id", "graph", {"vertices": ["a,b"], "edges": []}, False),
    ("semicolon-vertex-id", "graph", {"vertices": ["a;b"], "edges": []}, False),
    ("empty-edge-id", "graph", loop(id=""), False),
    ("comma-edge-id", "graph", loop(id="x,y"), False),
    ("repeated-edge-id", "graph", {"vertices": ["v"], "edges": loop(id="e")["edges"] * 2}, False),
    ("empty-point-id", "action", {**ACTION, "points": [""]}, False),
    ("repeated-point-id", "action", {**ACTION, "points": ["1", "1"]}, False),
    ("comma-point-id", "action", {**ACTION, "points": ["a,b"]}, False),
    ("semicolon-point-id", "action", {**ACTION, "points": ["a;b"]}, False),
]
# gaps that are closed: the schema now refuses what the parser refuses
# (the group pattern's `(?!\n)` keeps Python's re from reading `$` as
# matching before a final newline)
CLOSED_GAPS = [("newline-group", "action", {**ACTION, "group": "F1\n"}, False)]
PARSERS = {"graph": parse_graph, "action": parse_action, "witness": parse_decomposition}


@pytest.mark.parametrize(
    "name, doc, parsed, parts",
    [pytest.param(*case[1:], True, id=case[0]) for case in SCHEMA_GAPS]
    + [pytest.param(*case[1:], False, id=case[0]) for case in CLOSED_GAPS],
)
def test_input_schemas_and_parsers_part_as_documented(name, doc, parsed, parts):
    sch = schema(name)
    valid = jsonschema.validators.validator_for(sch)(sch).is_valid(doc)
    assert valid is (not parsed if parts else parsed)
    text = json.dumps(doc)
    if not parsed:
        with pytest.raises(ValueError):
            PARSERS[name](text)
        return
    value = PARSERS[name](text)
    if doc.get("split") == -1:  # the witness check refuses the split the parser read
        with pytest.raises(ValueError, match="split index out of range"):
            check_paradoxical_witness(parse_action(json.dumps(ACTION)), value)


def test_ranks_and_limits_are_read_in_ascii_digits_only(tmp_path):
    # a rank is [0-9]+, as in the schema: no other Unicode digit, and no
    # final newline
    refused = ("F\u0660", "F\u0661", "F1\n", "Z\n")
    for group in refused:
        with pytest.raises(ValueError, match=re.escape(f"unsupported group {group!r}")):
            parse_action(json.dumps({**ACTION, "group": group}))
    # the schema refuses them too: its `(?!\n)` keeps Python's re from
    # reading `$` as matching before a final newline
    sch = schema("action")
    is_valid = jsonschema.validators.validator_for(sch)(sch).is_valid
    assert not any(is_valid({**ACTION, "group": group}) for group in refused)
    assert all(is_valid({**ACTION, "group": group}) for group in ("Z", "F1", "F12"))
    path = tmp_path / "grp.json"
    path.write_text(json.dumps({"points": ["a"], "group": "F1\n", "generators": []}))
    code, out, err = invoke("paction", str(path), "is_minimal")
    assert (code, out) == (1, "") and err.count("\n") == 1 and "unsupported group 'F1\\n'" in err
    path.write_text(json.dumps({"points": ["a"], "group": "F1", "generators": []}))
    code, out, err = invoke("paction", str(path), "is_minimal")
    assert (code, out) == (1, "") and err.endswith(": group 'F1' needs 1 generator(s), got 0\n")
    code, out, err = invoke("lattice", E1, "--limit", "\u0661\u0666")
    assert (code, out) == (1, "") and "--limit: must be a positive integer, got '\u0661\u0666'" in err


# -- dot well-formedness -------------------------------------------------------------


def tokenize_dot(text):
    """Split the digraph body into statements, honoring quoted strings."""
    assert text.startswith("digraph ")
    body = text[text.index("{") + 1 : text.rindex("}")]
    statements, current, quoted = [], [], False
    chars = iter(body)
    for ch in chars:
        if ch == "\\" and quoted:
            current.append(ch + next(chars))  # an escaped character
        elif ch == '"':
            quoted = not quoted
            current.append(ch)
        elif ch == ";" and not quoted:
            stmt = "".join(current).strip()
            if stmt:
                statements.append(stmt)
            current = []
        else:
            current.append(ch)
    assert not quoted and not "".join(current).strip()
    return statements


def test_dot_outputs_parse(corpus, tmp_path):
    # the omega edge makes a"x a breaking vertex, so Breaking(...) labels show too
    quoting = tmp_path / "quoting.json"
    quoting.write_text(
        json.dumps(
            {
                "vertices": ['a"x', "b\\y"],
                "edges": [
                    {"src": 'a"x', "rng": 'a"x', "mult": 2},
                    {"src": "b\\y", "rng": 'a"x', "mult": "omega"},
                ],
            }
        )
    )
    graphs = [str(CORPUS_DIR / f"{name}.json") for name in ("e1", "e2", "e4", "e5")]
    for target in ("lattice", "spectrum"):
        for path in graphs + [str(quoting)]:
            code, out, _ = invoke(target, path, "--format", "dot")
            assert code == 0
            labels = set()
            for stmt in tokenize_dot(out):
                if stmt == "rankdir=BT":
                    continue
                chunks = stmt.split(" -> ")
                assert 1 <= len(chunks) <= 2
                for c in chunks:
                    assert c.startswith('"') and c.endswith('"')
                    labels.add(re.sub(r"\\(.)", r"\1", c[1:-1]))
            if path == str(quoting):
                expected = (
                    {'H={};B={}', 'H={b\\y};B={}', 'H={b\\y};B={a"x}', 'H={a"x,b\\y};B={}'}
                    if target == "lattice"
                    else {'Tail{a"x,b\\y}', 'Tail{a"x}', 'Breaking(a"x)'}
                )
                assert labels == expected


# -- determinism (smoke; the full matrix runs in the acceptance suite) ------------------


def test_repeat_invocations_identical():
    a = invoke("analyze", E4, "--format", "json")
    b = invoke("analyze", E4, "--format", "json")
    assert a == b


def test_subprocess_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "graphck", "analyze", E1, "--format", "json"],
        capture_output=True,
        text=True,
        cwd=str(REPO),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["aperiodic"] is True


def edgeless_file(tmp_path, n: int) -> str:
    """A graph file of n vertices and no edges: 2^n admissible pairs."""
    path = tmp_path / f"edgeless-{n}.json"
    path.write_text(json.dumps({"vertices": [f"v{i}" for i in range(n)], "edges": []}))
    return str(path)


def test_lattice_json_streams_its_rows(tmp_path):
    """The traced peak of `lattice --format json` on eight edgeless vertices
    (256 pairs, 2.2 MB of JSON) stays below a quarter of the bytes written:
    the writer holds the lattice and one table row, not the document."""

    class Sink:
        written = 0

        def write(self, text):
            self.written += len(text)  # the output is ASCII: one byte a character

    sink, err = Sink(), io.StringIO()
    graph = edgeless_file(tmp_path, 8)
    tracemalloc.start()
    try:
        code = run(["lattice", graph, "--format", "json"], sink, err)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, err.getvalue()) == (0, "")
    assert sink.written > 2_000_000
    assert peak < sink.written / 4, (peak, sink.written)


def graphck_env(unbuffered):
    """The environment of a graphck subprocess that imports this checkout,
    its stdout buffered unless unbuffered is set."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    return env


@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_closed_stdout_pipe_exits_1_without_a_traceback(tmp_path, unbuffered):
    """A reader that takes 10 bytes of the lattice JSON and closes the pipe:
    graphck stops with exit 1 and writes nothing to stderr, whether stdout
    is buffered or not.  The 2.2 MB output overfills the pipe, so a write
    meets the closed end."""
    argv = [sys.executable, "-m", "graphck", "lattice", edgeless_file(tmp_path, 8), "--format", "json"]
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=graphck_env(unbuffered),
        cwd=str(REPO),
    )
    head = proc.stdout.read(10)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert head == b'{\n  "verti'
    assert (proc.wait(timeout=120), err) == (1, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
@pytest.mark.parametrize("unbuffered", [None, "1"])
def test_a_failing_stdout_exits_1_with_one_line(unbuffered):
    """Every write to /dev/full fails with ENOSPC: graphck names the error in
    one line on stderr and exits 1, whether stdout is buffered or not."""
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "graphck", "analyze", E1], stdout=full, stderr=subprocess.PIPE,
            env=graphck_env(unbuffered), cwd=str(REPO), timeout=120,
        )
    expected = f"error: cannot write output: {os.strerror(errno.ENOSPC)}\n".encode()
    assert (proc.returncode, proc.stderr) == (1, expected)


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    # set iteration order follows PYTHONHASHSEED: the three malformed inputs
    # name one of several unknown points, and must name the same one each run
    bad_action = tmp_path / "bad_action.json"
    bad_action.write_text(json.dumps({
        "points": ["a", "b"],
        "specialization": [["a", "zz"], ["yy", "b"], ["xx", "qq"]],
        "group": "F1",
        "generators": [{"name": "g", "map": []}],
    }))
    action = tmp_path / "action.json"
    action.write_text(json.dumps({
        "points": ["a", "b"],
        "specialization": [],
        "group": "F1",
        "generators": [{"name": "g", "map": [["a", "a"]]}],
    }))
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps({
        "V": ["a", "zz", "yy"], "parts": [{"set": ["xx", "qq"], "word": "g"}], "split": None,
    }))
    decide = (
        "import sys, graphck as G\n"
        "a = G.parse_action(open(sys.argv[1]).read())\n"
        "try: G.decide_G_infinite(a, ['x', 'y', 'z', 'w'])\n"
        "except G.ActionFormatError as exc: print(exc)\n"
    )
    matrix = [  # (exit code, a line of the output, argv)
        (0, '  "aperiodic": true,', ["-m", "graphck", "analyze", E4, "--format", "json"]),
        (0, '  "pairs": [', ["-m", "graphck", "lattice", E4, "--format", "json"]),
        (1, "unknown point", ["-m", "graphck", "paction", str(bad_action), "is_minimal"]),
        (1, "unknown point", ["-m", "graphck", "paction", str(action), "check_infinite_witness",
                              "--witness", str(witness)]),
        (0, "unknown point", ["-c", decide, str(action)]),
    ]
    path = os.pathsep.join(p for p in (str(REPO / "src"), os.environ.get("PYTHONPATH")) if p)
    for code, line, argv in matrix:
        runs = []
        for seed in ("0", "1"):
            proc = subprocess.run(
                [sys.executable, *argv],
                capture_output=True,
                text=True,
                env=dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path),
                cwd=str(REPO),
                timeout=120,
            )
            runs.append((proc.returncode, proc.stdout, proc.stderr))
        assert runs[0] == runs[1], argv
        assert runs[0][0] == code and line in runs[0][1] + runs[0][2], runs[0]


def is_assertion_error(node) -> bool:
    """`raise AssertionError` or `raise AssertionError(...)`."""
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_invariants_use_no_assert():
    # python -O strips assert statements, so an invariant checked by one
    # vanishes; a broken promise raises RuntimeError, not AssertionError
    sources = sorted((REPO / "src" / "graphck").glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
        or isinstance(node, ast.Raise) and is_assertion_error(node)
    ]
    assert found == []
