"""The three workloads: their items, what each item returns, and the
correctness gate that judges the returned summaries.

An item is one closed-loop request: the benchmark calls into graphck's public
functions, or into `graphck.cli.run`, and the next item starts when the call
returns.  `run` is the only part that is timed.  `summarize` reduces its
result to comparable values outside the timer, and `check` judges one summary
after the timed phase: against the brute-force oracles of the test suite
(survey), closed forms and recorded output digests (large), or definitions
re-derived from the input JSON (paction).
"""

from __future__ import annotations

import hashlib
import importlib.util
import io
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import inputs

HERE = Path(__file__).resolve().parent
DIGESTS = json.loads((HERE / "digests.json").read_text())


class SetupError(Exception):
    """The program under test cannot be imported or fails its warm-up."""


@dataclass(frozen=True)
class Workload:
    prepare: Callable  # (graphck, seed, workdir) -> items of one pass
    run: Callable  # (graphck, item) -> result; the timed call
    summarize: Callable  # (item, result) -> comparable summary
    check: Callable  # (graphck, oracles, item, summary) -> bool
    kind: Callable = lambda item: None  # CLI subcommand of an item, if any


def load_oracles(root: Path):
    """The test suite's brute-force oracles (tests/util.py), imported by path."""
    spec = importlib.util.spec_from_file_location("graphck_test_oracles", root / "tests" / "util.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# -- survey ---------------------------------------------------------------------------


def survey_run(G, text):
    g = G.parse_graph(text)
    L = G.condition_L(g)
    K = G.condition_K(g)
    report = G.classify(g)
    ps = G.prim_space(g)
    ps.covers
    lat = G.admissible_pairs(g)
    quotients = [G.classify(G.quotient_graph(g, p)) for p in lat.pairs]
    return L, K, report, ps, lat, quotients


def _verdicts(report) -> tuple:
    return (
        report.aperiodic,
        report.residually_aperiodic,
        report.simple.verdict,
        report.purely_infinite.verdict,
    )


def survey_summarize(text, result) -> tuple:
    L, K, report, ps, lat, quotients = result
    return (
        L.holds,
        K.holds,
        _verdicts(report),
        frozenset(pt.tail for pt in ps.points if pt.kind == "tail"),
        frozenset(p.h for p in lat.pairs),
        len(lat),
        len(quotients),
        _verdicts(quotients[0]),
    )


def _return_region(raw: dict, v: str) -> str:
    """The subgraph on the vertices reachable from v that reach v, as JSON.

    Every first-return path at v stays inside it, so the first-return count
    at v is the same there; the walk oracle then searches far fewer walks.
    """
    succ = {u: [] for u in raw["vertices"]}
    pred = {u: [] for u in raw["vertices"]}
    for e in raw["edges"]:
        succ[e["src"]].append(e["rng"])
        pred[e["rng"]].append(e["src"])

    def reach(adj):
        seen, stack = {v}, [v]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    keep = reach(succ) & reach(pred)
    return json.dumps({
        "vertices": [u for u in raw["vertices"] if u in keep],
        "edges": [e for e in raw["edges"] if e["src"] in keep and e["rng"] in keep],
    })


def survey_check(G, oracles, text, summary) -> bool:
    L, K, verdicts, tails, h_sets, pairs, quotients, bottom = summary
    g = G.parse_graph(text)
    raw = json.loads(text)
    brute_L = oracles.brute_condition_L(g)
    brute_K = all(
        oracles.brute_first_return_count(G.parse_graph(_return_region(raw, v)), v) != 1
        for v in g.vertices
    )
    brute_sh = oracles.brute_sh_sets(g)
    # simple iff (L) holds and the only saturated hereditary sets are trivial
    simple = "yes" if brute_L and len(brute_sh) == 2 else "no"
    return (
        L == brute_L
        and K == brute_K
        and verdicts[:3] == (brute_L, brute_K, simple)
        and tails == oracles.brute_maximal_tails(g)
        and h_sets == brute_sh
        and pairs == quotients == inputs.admissible_pair_count(raw)
        # the bottom pair's quotient is the graph itself
        and bottom == verdicts
    )


def survey_prepare(G, seed, workdir):
    return inputs.survey_graphs(seed)


# -- large ------------------------------------------------------------------------------


def large_prepare(G, seed, workdir):
    items = []
    for rid, cmd, text in inputs.large_ladder(seed):
        path = workdir / f"{rid}.json"
        path.write_text(text)
        items.append((rid, cmd, str(path)))
    return items


def large_run(G, item):
    rid, cmd, path = item
    out, err = io.StringIO(), io.StringIO()
    rc = G.cli.run([cmd, path, "--format", "json"], out, err)
    return rc, out.getvalue(), err.getvalue()


def large_summarize(item, result) -> tuple:
    rc, out, err = result
    facts = None
    if rc == 0:
        obj = json.loads(out)
        cmd = item[1]
        if cmd == "lattice":
            facts = len(obj["pairs"])
        elif cmd == "spectrum":
            facts = (obj["status"], sorted(len(p["tail"] or ()) for p in obj["points"]))
        else:
            facts = (
                obj["aperiodic"],
                obj["residually_aperiodic"],
                obj["simple"]["verdict"],
                obj["purely_infinite"]["verdict"],
            )
    return rc, hashlib.sha256(out.encode()).hexdigest(), err, facts


def _closed_form(rid: str):
    """Expected facts of a rung, derived by hand from the graph family."""
    cmd, _, family = rid.partition("-")
    shape, _, size = family.rpartition("-")
    n = int(size)
    if cmd == "lattice":
        # edgeless: every vertex set is saturated hereditary, no breaking
        # vertices; fan k: 3^k sets with the hub in H, and 3^k weighted pairs
        # (each receiver breaking over its own source) with the hub outside
        return 2**n if shape == "edgeless" else 2 * 3**n
    if shape in ("edgeless", "double-loops"):
        # the maximal tails are the n singletons
        if cmd == "spectrum":
            return ("Primitive", [1] * n)
        looped = shape == "double-loops"
        return (True, True, "no", "yes" if looped else "no")
    if shape == "chain":  # only trivial ideals; the whole chain is one tail
        return ("Primitive", [n]) if cmd == "spectrum" else (True, True, "yes", "no")
    # cycle with entrance: (L) holds, (K) fails at the cycle, {s} is an ideal;
    # tails are the cycle and the whole graph
    return ("PrimeOnly", [n, n + 1]) if cmd == "spectrum" else (True, False, "no", "no")


def large_check(G, oracles, item, summary) -> bool:
    rid = item[0]
    rc, digest, err, facts = summary
    return rc == 0 and not err and digest == DIGESTS[rid] and facts == _closed_form(rid)


# -- paction --------------------------------------------------------------------------


def paction_prepare(G, seed, workdir):
    return inputs.paction_items(seed)


def paction_run(G, item):
    if item[0] == "bfs":
        return G.parse_action(item[1]).is_topologically_free()
    _, text, words, paradoxical, infinite = item
    a = G.parse_action(text)
    points = a.space.points
    return (
        {p: a.orbit(p) for p in points},
        {p: a.quasi_orbit(p) for p in points},
        a.quasi_orbit_space().classes,
        a.is_minimal(),
        a.is_topologically_free(),
        a.is_residually_topologically_free(),
        a.invariant_subsets(),
        [a.element_map(w).pairs for w in words],
        [G.check_paradoxical_witness(a, G.parse_decomposition(d)).valid for d in paradoxical],
        [G.check_infinite_witness(a, G.parse_decomposition(d)).valid for d in infinite],
    )


def paction_summarize(item, result):
    if item[0] == "bfs":
        return result
    orbits, quasi, classes, minimal, tf, rtf, invariant, maps, par, inf = result
    return (
        frozenset(orbits.items()),
        frozenset(quasi.items()),
        frozenset(classes),
        minimal,
        tf,
        rtf,
        frozenset(invariant),
        tuple(frozenset(m) for m in maps),
        tuple(par),
        tuple(inf),
    )


def _word_map(maps: dict, word: str) -> dict:
    """The partial map of a word on its natural domain, from the definition:
    reduce freely (over Z this sums the exponents), then compose the letters
    right to left."""
    reduced: list = []
    for tok in word.split():
        name, _, exp = tok.partition("^")
        letter = (name, -1 if exp == "-1" else 1)
        if reduced and reduced[-1] == (name, -letter[1]):
            reduced.pop()
        else:
            reduced.append(letter)
    current = {x: x for x in maps["points"]}
    for name, exp in reversed(reduced):
        step = maps[name] if exp == 1 else {y: x for x, y in maps[name].items()}
        current = {x: step[y] for x, y in current.items() if y in step}
    return current


def paction_check(G, oracles, item, summary) -> bool:
    if item[0] == "bfs":
        # the n-cycle to the n-th power fixes every point, an open set
        return summary is False
    orbits, quasi, classes, minimal, tf, rtf, invariant, maps, par, inf = summary
    raw = json.loads(item[1])
    points = raw["points"]
    gens = {g["name"]: dict(map(tuple, g["map"])) for g in raw["generators"]}
    steps = list(gens.values()) + [{y: x for x, y in m.items()} for m in gens.values()]
    above = {p: {p} for p in points}
    for p, q in raw["specialization"]:
        above[p].add(q)
    for _ in points:  # transitive closure by repeated relaxation
        for p in points:
            above[p] = set().union(*(above[q] for q in above[p]))

    def closure(S):
        return frozenset().union(*(above[p] for p in S)) if S else frozenset()

    def is_invariant(S):
        return all(m[x] in S for m in steps for x in S if x in m)

    def orbit(x):
        seen, frontier = {x}, [x]
        while frontier:
            frontier = [m[p] for p in frontier for m in steps if p in m and m[p] not in seen]
            seen.update(frontier)
        return frozenset(seen)

    true_orbit = {p: orbit(p) for p in points}
    true_quasi = {
        p: frozenset(q for q in points if closure(true_orbit[q]) == closure(true_orbit[p]))
        for p in points
    }
    all_invariant = frozenset(
        frozenset(S)
        for r in range(len(points) + 1)
        for S in itertools.combinations(points, r)
        if is_invariant(frozenset(S))
    )
    everything = frozenset(points)
    true_minimal = all(
        S in (frozenset(), everything) for S in all_invariant if closure(S) == S
    )
    word_maps = dict(gens, points=points)
    words = item[2]
    return (
        orbits == frozenset(true_orbit.items())
        and quasi == frozenset(true_quasi.items())
        and classes == frozenset(true_quasi.values())
        and minimal == true_minimal
        and invariant == all_invariant
        and maps == tuple(frozenset(_word_map(word_maps, w).items()) for w in words)
        # no decomposition of a finite carrier is a valid witness
        and not any(par)
        and not any(inf)
    )


WORKLOADS = {
    "survey": Workload(survey_prepare, survey_run, survey_summarize, survey_check),
    "large": Workload(large_prepare, large_run, large_summarize, large_check, kind=lambda item: item[1]),
    "paction": Workload(paction_prepare, paction_run, paction_summarize, paction_check),
}


# -- warm-up ------------------------------------------------------------------------------


def warm_up(G, root: Path, workdir: Path) -> None:
    """Run every CLI subcommand over corpus/e1-e7 and every paction query over
    one small action, so that lazy imports and first-call costs land here."""
    runs = []
    for k in range(1, 8):
        graph = str(root / "corpus" / f"e{k}.json")
        for fmt in ("text", "json"):
            runs.append(["analyze", graph, "--format", fmt])
            runs.append(["quotient", graph, "--pair", "H=;B=", "--format", fmt])
        for cmd in ("lattice", "spectrum"):
            for fmt in ("text", "json", "dot"):
                runs.append([cmd, graph, "--format", fmt])
    text, words, paradoxical, infinite = inputs.small_action(random.Random("warm-up"), 4, "F2", 0)
    action = workdir / "warm-up-action.json"
    action.write_text(text)
    witnesses = []
    for k, w in enumerate((paradoxical[0], infinite[0])):
        witnesses.append(workdir / f"warm-up-witness-{k}.json")
        witnesses[-1].write_text(w)
    points = json.loads(text)["points"]
    point = points[0]
    for query, extra in (
        ("orbit", ["--point", point]),
        ("quasi_orbit", ["--point", point]),
        ("quasi_orbit_space", []),
        ("invariant_subsets", []),
        ("is_minimal", []),
        ("is_topologically_free", []),
        ("is_residually_topologically_free", []),
        ("element_map", ["--word", words[0] or "e"]),
        ("decide_G_infinite", ["--set", ",".join(points)]),
        ("check_paradoxical_witness", ["--witness", str(witnesses[0])]),
        ("check_infinite_witness", ["--witness", str(witnesses[1])]),
    ):
        for fmt in ("text", "json"):
            runs.append(["paction", str(action), query, *extra, "--format", fmt])
    for argv in runs:
        out, err = io.StringIO(), io.StringIO()
        if G.cli.run(argv, out, err) != 0:
            raise SetupError(f"warm-up failed: graphck {' '.join(argv)}: {err.getvalue().strip()}")
    survey_run(G, (root / "corpus" / "e4.json").read_text())
    paction_run(G, ("small", text, words, paradoxical, infinite))
