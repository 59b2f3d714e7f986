"""Command-line front end.

Exit codes: 0 success, 1 parse or validation failure, 2 enumeration limit
exceeded.  Failing to write stdout gives 1 with no traceback: silently for
a reader that closed it early, else with one line on stderr.
Only `lattice` and `paction` (for `invariant_subsets`), whose outputs can be
exponential, take `--limit`; `analyze` and `spectrum` run in polynomial
time.  Results go to stdout, diagnostics to stderr.  Identical
invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys

from . import actions as act
from . import ideals as idl
from . import spectrum as spc
from .classify import classify, report_to_json, report_to_text
from .graphs import (
    DEFAULT_LIMIT,
    Graph,
    GraphFormatError,
    LimitExceededError,
    detect_format,
    encode_json,
    parse_graph,
    serialize_graph,
)
from .poset import clip


class _CliError(Exception):
    """A refused invocation: its message goes to stderr and the exit code is 1."""


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise _CliError(f"cannot read {path}: {exc}") from None


def _load_graph(path: str) -> tuple[Graph, str]:
    text = _read(path)
    fmt = detect_format(text)
    try:
        return parse_graph(text, fmt), fmt
    except GraphFormatError as exc:
        raise _CliError(f"{path}: {exc}") from None


def _load_action(path: str) -> act.FinitePartialAction:
    try:
        return act.parse_action(_read(path))
    except act.ActionFormatError as exc:
        raise _CliError(f"{path}: {exc}") from None


def _parse_pair_selector(g: Graph, text: str) -> idl.AdmissiblePair:
    """Selector grammar: "H=a,b;B=c" with empty parts allowed ("H=;B=")."""
    parts = text.split(";")
    if len(parts) != 2 or not parts[0].startswith("H=") or not parts[1].startswith("B="):
        raise _CliError(f'bad pair selector {clip(text)}: expected "H=...;B=..."')
    sets, vertices = [], set(g.vertices)
    for chunk in parts:
        body = chunk[2:]
        names = [x for x in body.split(",") if x]
        for x in names:
            if x not in vertices:
                raise _CliError(f"pair selector names unknown vertex {clip(x)}")
        sets.append(frozenset(names))
    try:
        return idl.AdmissiblePair(g, sets[0], sets[1])
    except ValueError as exc:
        raise _CliError(f"inadmissible pair: {exc}") from None


def _parse_point_set(a: act.FinitePartialAction, text: str) -> frozenset[str]:
    names = [x for x in text.split(",") if x]
    for x in names:
        if x not in a.space.index:
            raise _CliError(f"unknown point {clip(x)}")
    return frozenset(names)


# -- subcommands -----------------------------------------------------------------


def _text(render):
    """A renderer returning text, as a writer to out."""
    return lambda obj, out: out.write(render(obj))


def _graph_table(args) -> dict:
    """command -> (compute, {format: writer(result, out)}).  Built per call,
    so a wrapper rebinding a library function (the traced benchmark's spans)
    is the one called.  The lattice JSON writer streams its rows to out."""
    return {
        "analyze": (classify, {"text": _text(report_to_text), "json": _text(report_to_json)}),
        "lattice": (
            lambda g: idl.admissible_pairs(g, args.limit),
            {
                "text": _text(idl.lattice_to_text),
                "json": idl.lattice_to_json,
                "dot": _text(idl.lattice_to_dot),
            },
        ),
        "spectrum": (
            spc.prim_space,
            {
                "text": _text(spc.prim_space_to_text),
                "json": _text(spc.prim_space_to_json),
                "dot": _text(spc.prim_space_to_dot),
            },
        ),
    }


def _cmd_graph(args, out) -> None:
    compute, write = _graph_table(args)[args.command]
    g, _ = _load_graph(args.graph)
    write[args.format](compute(g), out)


def _cmd_quotient(args, out) -> None:
    g, fmt = _load_graph(args.graph)
    pair = _parse_pair_selector(g, args.pair)
    q = idl.quotient_graph(g, pair)
    # the graph is emitted in the input file's format; --format json forces JSON
    out_fmt = "json" if args.format == "json" else fmt
    out.write(serialize_graph(q, out_fmt))


def _point_set(a: act.FinitePartialAction, args) -> dict:
    if args.point is None:
        raise _CliError(f"{args.query} needs --point")
    S = getattr(a, args.query)(args.point)  # a.orbit or a.quasi_orbit
    return {"query": args.query, "point": args.point, "set": a.space.sort_set(S)}


def _point_set_text(result: dict) -> str:
    return f"{result['query']}({result['point']}) = {{{','.join(result['set'])}}}\n"


def _quasi_orbit_space(a: act.FinitePartialAction, args) -> dict:
    qo = a.quasi_orbit_space()
    return {
        "query": args.query,
        "classes": [a.space.sort_set(c) for c in qo.classes],
        "labels": qo.space.points,
        "specialization": sorted(
            [list(pq) for pq in qo.space.closure_pairs],
            key=lambda pq: (qo.space.index[pq[0]], qo.space.index[pq[1]]),  # label positions
        ),
    }


def _quasi_orbit_space_text(result: dict) -> str:
    lines = [f"quasi-orbits: {len(result['classes'])}"]
    for label, members in zip(result["labels"], result["classes"]):
        lines.append(f"  {label}: {{{','.join(members)}}}")
    lines.append("specialization pairs (b in closure of a):")
    if not result["specialization"]:
        lines.append("  none")
    for a_, b_ in result["specialization"]:
        lines.append(f"  {a_} -> {b_}")
    return "\n".join(lines) + "\n"


def _invariant_subsets(a: act.FinitePartialAction, args) -> dict:
    sets = a.invariant_subsets(args.limit)
    return {"query": args.query, "sets": [a.space.sort_set(S) for S in sets]}


def _invariant_subsets_text(result: dict) -> str:
    lines = [f"invariant subsets: {len(result['sets'])}"]
    lines += ["  {" + ",".join(S) + "}" for S in result["sets"]]
    return "\n".join(lines) + "\n"


def _verdict(a: act.FinitePartialAction, args) -> dict:
    return {"query": args.query, "result": getattr(a, args.query)()}


def _verdict_text(result: dict) -> str:
    return f"{result['query']}: {'yes' if result['result'] else 'no'}\n"


def _element_map(a: act.FinitePartialAction, args) -> dict:
    if args.word is None:
        raise _CliError("element_map needs --word")
    try:
        m = a.element_map(args.word)
    except act.ActionFormatError as exc:
        raise _CliError(str(exc)) from None
    return {
        "query": args.query,
        "word": args.word,
        "map": m.pairs,
        "domain": a.space.sort_set(m.domain),
        "image": a.space.sort_set(m.image),
    }


def _element_map_text(result: dict) -> str:
    pairs = " ".join(f"{x}->{y}" for x, y in result["map"])
    return f"word {result['word']!r} acts as: {pairs or '(empty map)'}\n"


def _decide_G_infinite(a: act.FinitePartialAction, args) -> dict:
    if args.set is None:
        raise _CliError("decide_G_infinite needs --set")
    V = _parse_point_set(a, args.set)
    try:
        decision = act.decide_G_infinite(a, V)
    except ValueError as exc:
        raise _CliError(str(exc)) from None
    return {
        "query": args.query,
        "set": a.space.sort_set(V),
        "infinite": decision.infinite,
        "proof": decision.proof.to_json_obj(),
    }


def _decide_G_infinite_text(result: dict) -> str:
    return (
        f"G-infinite: no (finite counting, |V|={result['proof']['size']})\n"
        f"  {result['proof']['detail']}\n"
    )


def _witness_check(a: act.FinitePartialAction, args) -> dict:
    if args.witness is None:
        raise _CliError(f"{args.query} needs --witness")
    try:
        d = act.parse_decomposition(_read(args.witness))
        check = getattr(act, args.query)(a, d)  # one of the two witness checkers
    except act.ActionFormatError as exc:
        raise _CliError(f"{args.witness}: malformed decomposition: {exc}") from None
    violation = check.violation.to_json_obj() if check.violation is not None else None
    return {"query": args.query, "valid": check.valid, "violation": violation}


def _witness_check_text(result: dict) -> str:
    if result["valid"]:
        return "witness: valid\n"
    v = result["violation"]
    return f"witness: violation [{v['clause']}] {v['detail']}\n"


# query -> (result builder, text renderer); the JSON format prints the result
_PACTION = {
    "orbit": (_point_set, _point_set_text),
    "quasi_orbit": (_point_set, _point_set_text),
    "quasi_orbit_space": (_quasi_orbit_space, _quasi_orbit_space_text),
    "invariant_subsets": (_invariant_subsets, _invariant_subsets_text),
    "is_minimal": (_verdict, _verdict_text),
    "is_topologically_free": (_verdict, _verdict_text),
    "is_residually_topologically_free": (_verdict, _verdict_text),
    "element_map": (_element_map, _element_map_text),
    "decide_G_infinite": (_decide_G_infinite, _decide_G_infinite_text),
    "check_paradoxical_witness": (_witness_check, _witness_check_text),
    "check_infinite_witness": (_witness_check, _witness_check_text),
}


def _cmd_paction(args, out) -> None:
    a = _load_action(args.action)
    build, render = _PACTION[args.query]
    result = build(a, args)
    if args.format == "json":
        out.write(encode_json(result))
    else:
        out.write(render(result))


# -- driver -----------------------------------------------------------------------


def _limit(text: str) -> int:
    if not (text.isascii() and text.isdecimal()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {clip(text)}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphck",
        description=(
            "Invariants of directed multigraphs and their graph C*-algebras, "
            "and finite models of partial dynamical systems."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json")):
        p.add_argument(
            "--format",
            choices=formats,
            default="text",
            help="output format (default: text)",
        )

    def limit(p, what):
        doc = f"input size guard of {what} (default: {DEFAULT_LIMIT})"
        p.add_argument("--limit", type=_limit, default=DEFAULT_LIMIT, help=doc)

    for command, doc in (
        ("analyze", "classification report for a graph"),
        ("lattice", "admissible-pair ideal lattice"),
        ("spectrum", "prime/primitive pair poset"),
    ):
        p = sub.add_parser(command, help=doc)
        p.set_defaults(handler=_cmd_graph)
        p.add_argument("graph")
        common(p, tuple(_graph_table(None)[command][1]))
        if command == "lattice":
            limit(p, "the lattice enumeration")

    p = sub.add_parser("quotient", help="quotient graph by an admissible pair")
    p.set_defaults(handler=_cmd_quotient)
    p.add_argument("graph")
    p.add_argument("--pair", required=True, help='selector "H=a,b;B=c"; empty: "H=;B="')
    common(p)

    p = sub.add_parser("paction", help="partial-action queries on a finite T0 space")
    p.set_defaults(handler=_cmd_paction)
    p.add_argument("action")
    p.add_argument("query", choices=_PACTION)
    p.add_argument("--point", help="point for orbit/quasi_orbit")
    p.add_argument("--word", help="group word for element_map")
    p.add_argument("--set", help="comma-separated open set for decide_G_infinite")
    p.add_argument("--witness", help="decomposition JSON file for witness checks")
    common(p)
    limit(p, "invariant_subsets")

    return parser


_PARSER = build_parser()  # built once: building it costs about 20 parses


def run(argv, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    try:
        # argparse prints usage errors to sys.stderr and --help to sys.stdout
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        args.handler(args, out)
    except LimitExceededError as exc:
        err.write(f"error: {exc}\n")
        return 2
    except (_CliError, ValueError) as exc:
        err.write(f"error: {exc}\n")
        return 1
    return 0


def main() -> None:
    try:
        code = run(sys.argv[1:])
        sys.stdout.flush()  # a write error raises here, not at exit
    except OSError as exc:
        # say why stdout failed unless its reader left; point it at devnull,
        # so the flush at exit writes nothing, and exit 1 with no traceback
        if not isinstance(exc, BrokenPipeError):
            sys.stderr.write(f"error: cannot write output: {exc.strerror}\n")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        code = 1
    sys.exit(code)
