"""Acceptance suite: one test per criterion, one printed verdict line each.

Every expected value here is hand-derivable from the definitions; the random
sweeps are seeded and their counts are part of the contract.
"""

import io
import itertools
import json
import os
import random
import subprocess
import sys

from graphck import (
    admissible_pairs,
    condition_K,
    condition_L,
    is_purely_infinite,
    is_simple,
    pair_leq,
    prim_space,
    prime_points,
    quotient_graph,
    saturation,
)
from graphck.cli import run as cli_run
from graphck.actions import Decomposition, check_paradoxical_witness, decide_G_infinite

from util import (
    CORPUS_DIR,
    REPO,
    brute_is_hereditary,
    closure,
    hereditary_closure,
    letter_map,
    meet_of_primes_above,
    open_sets,
    poset_isomorphic,
    random_action,
    random_graph,
    random_open_set,
    random_word,
    reduce_letters,
    word_text,
)


def report(num: int, name: str, ok: bool):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_1_corpus_verdicts(corpus):
    order = ["e1", "e2", "e3", "e4", "e5"]
    gs = [corpus[name] for name in order]
    ok = (
        [condition_L(g).holds for g in gs] == [True, False, True, True, True]
        and [condition_K(g).holds for g in gs] == [True, False, True, True, True]
        and [is_simple(g).verdict for g in gs] == ["yes", "no", "yes", "no", "yes"]
        and [is_purely_infinite(g).verdict for g in gs]
        == ["yes", "no", "no", "no", "yes"]
        and [len(admissible_pairs(g)) for g in gs] == [2, 2, 2, 4, 2]
        and [len(prim_space(g)) for g in gs] == [1, 1, 1, 3, 1]
    )
    report(1, "corpus verdicts", ok)


def test_criterion_2_closure_operator_laws():
    rng = random.Random(20240501)
    failures = 0
    for _ in range(500):
        g = random_graph(rng, max_n=8)
        S = frozenset(v for v in g.vertices if rng.random() < 0.4)
        T = S | frozenset(v for v in g.vertices if rng.random() < 0.3)
        for close in (
            lambda X: hereditary_closure(g, X),
            lambda X: saturation(g, hereditary_closure(g, X)),
        ):
            cS, cT = close(S), close(T)
            if not (S <= cS and cS <= cT and close(cS) == cS):
                failures += 1
        if not brute_is_hereditary(g, saturation(g, hereditary_closure(g, S))):
            failures += 1
    report(2, "closure-operator laws on 500 random graphs", failures == 0)


def _leq_masks(pairs):
    n = len(pairs)
    up = []
    down = [0] * n
    for i, p in enumerate(pairs):
        m = 0
        for j, q in enumerate(pairs):
            if pair_leq(p, q):
                m |= 1 << j
                down[j] |= 1 << i
        up.append(m)
    return up, down


def test_criterion_3_lattice_law_oracle(corpus):
    rng = random.Random(20240502)
    graphs = list(corpus.values()) + [random_graph(rng, max_n=7) for _ in range(200)]
    failures = 0
    for g in graphs:
        lat = admissible_pairs(g)
        n = len(lat)
        up, down = _leq_masks(lat.pairs)
        for i in range(n):
            for j in range(n):
                lbs = down[i] & down[j]
                glb = [k for k in range(n) if lbs >> k & 1 and lbs & ~down[k] == 0]
                ubs = up[i] & up[j]
                lub = [k for k in range(n) if ubs >> k & 1 and ubs & ~up[k] == 0]
                if len(glb) != 1 or lat.meet_table[i][j] != glb[0]:
                    failures += 1
                if len(lub) != 1 or lat.join_table[i][j] != lub[0]:
                    failures += 1
    report(3, "meet formula and join against order oracles", failures == 0)


def test_criterion_4_quotient_interval_isomorphism(corpus):
    failures = 0
    for g in corpus.values():
        if len(g.vertices) > 10:
            continue
        lat = admissible_pairs(g)
        for p in lat.pairs:
            q = quotient_graph(g, p)
            qlat = admissible_pairs(q)
            interval = [r for r in lat.pairs if pair_leq(p, r)]
            k = len(interval)
            sub = [
                [pair_leq(interval[a], interval[b]) for b in range(k)]
                for a in range(k)
            ]
            if len(qlat) != k or not poset_isomorphic(
                sub, [list(row) for row in qlat.leq]
            ):
                failures += 1
    report(4, "quotient lattice is isomorphic to the upper interval", failures == 0)


def test_criterion_5_implication_suite(corpus):
    rng = random.Random(20240503)
    graphs = list(corpus.values()) + [random_graph(rng, max_n=6) for _ in range(120)]
    failures = 0
    for g in graphs:
        K = condition_K(g).holds
        if K and not condition_L(g).holds:
            failures += 1
        pi = is_purely_infinite(g)
        if pi.verdict == "yes":
            if not K:
                failures += 1
            for p in admissible_pairs(g).pairs:
                if is_purely_infinite(quotient_graph(g, p)).verdict != "yes":
                    failures += 1
    report(5, "K implies L; PI implies K and persists to quotients", failures == 0)


def test_criterion_6_prime_point_meet_property(corpus):
    failures = 0
    for g in corpus.values():
        pts = prime_points(g)
        for p in admissible_pairs(g).pairs:
            if meet_of_primes_above(g, p, pts) != p:
                failures += 1
    report(6, "every pair is the meet of the prime pairs above it", failures == 0)


def test_criterion_7_partial_action_axioms():
    rng = random.Random(20240504)
    failures = 0
    for _ in range(200):
        a = random_action(rng, max_points=6, max_gens=2)
        letters = []
        for name in a.generator_names:
            letters += [(name, 1), (name, -1)]

        # memoized maps of reduced words, built by single-letter composition
        memo = {(): dict(a.element_map("").pairs)}
        frontier = [()]
        for _depth in range(4):
            nxt = []
            for w in frontier:
                for letter in letters:
                    if w and w[0] == (letter[0], -letter[1]):
                        continue
                    new = (letter,) + w
                    if new in memo:
                        continue
                    lm = dict(letter_map(a, letter).pairs)
                    memo[new] = {
                        x: lm[y] for x, y in memo[w].items() if y in lm
                    }
                    nxt.append(new)
            frontier = nxt
        # the memo agrees with element_map on a sample of short words
        for w in itertools.product(letters, repeat=2):
            if reduce_letters(w) not in memo:
                failures += 1
                continue
            if dict(a.element_map(word_text(w)).pairs) != memo[reduce_letters(w)]:
                failures += 1

        def theta(word):
            return memo[reduce_letters(word)]

        words = [()]
        for L in (1, 2):
            words += [w for w in itertools.product(letters, repeat=L)]
        for s in words:
            for t in words:
                ts, tt, tst = theta(s), theta(t), theta(tuple(s) + tuple(t))
                for x, y in tt.items():
                    if y in ts and tst.get(x) != ts[y]:
                        failures += 1

        # quasi-orbit relation is an equivalence with the defining classes
        qo = a.quasi_orbit_space()
        sp = a.space
        flat = sorted(p for c in qo.classes for p in c)
        if flat != sorted(sp.points):
            failures += 1
        for c in qo.classes:
            keys = {closure(sp, a.orbit(x)) for x in c}
            if len(keys) != 1:
                failures += 1
        if len({frozenset(c) for c in qo.classes}) != len(qo.classes):
            failures += 1

        if a.is_residually_topologically_free() and not a.is_topologically_free():
            failures += 1

        everything = frozenset(sp.points)
        for V in a.invariant_subsets():
            if not a.is_invariant(everything - V):
                failures += 1
    report(7, "partial-action axioms on 200 random actions", failures == 0)


def test_criterion_8_finite_impossibility():
    rng = random.Random(20240505)
    bad = 0
    actions = [random_action(rng, max_points=5) for _ in range(40)]
    for a in actions:
        for V in open_sets(a.space):
            if not V:
                continue
            decision = decide_G_infinite(a, V)
            if decision.infinite or decision.proof.size != len(V):
                bad += 1
    checked = 0
    while checked < 1000:
        a = rng.choice(actions)
        V = random_open_set(rng, a.space)
        parts = tuple(
            (random_open_set(rng, a.space), random_word(rng, a))
            for _ in range(rng.randint(0, 4))
        )
        d = Decomposition(V, parts, split=rng.randint(0, len(parts)))
        res = check_paradoxical_witness(a, d)
        if res.valid or res.violation is None or not res.violation.clause:
            bad += 1
        checked += 1
    report(8, "finite counting forbids paradoxical/infinite witnesses", bad == 0)


_CLI_MATRIX = [
    ["analyze", "e1.json", "--format", "json"],
    ["analyze", "e2.json", "--format", "text"],
    ["analyze", "e4.json", "--format", "json"],
    ["analyze", "e6.json", "--format", "json"],
    ["lattice", "e4.json", "--format", "json"],
    ["lattice", "e4.json", "--format", "dot"],
    ["lattice", "e6.json", "--format", "text"],
    ["spectrum", "e4.json", "--format", "dot"],
    ["spectrum", "e4.json", "--format", "json"],
    ["spectrum", "e2.json", "--format", "json"],
    ["spectrum", "e7.json", "--format", "text"],
    ["quotient", "e4.json", "--pair", "H=w;B=", "--format", "json"],
    ["quotient", "e4.json", "--pair", "H=w;B=v", "--format", "json"],
]


def _expand(argv):
    return [
        str(CORPUS_DIR / a) if a.endswith(".json") else a for a in argv
    ]


def test_criterion_9_cli_determinism(tmp_path):
    ok = True
    # in-process: every matrix entry twice, byte-identical
    for argv in _CLI_MATRIX:
        outs = []
        for _ in range(2):
            out, err = io.StringIO(), io.StringIO()
            code = cli_run(_expand(argv), out=out, err=err)
            outs.append((code, out.getvalue(), err.getvalue()))
        if outs[0] != outs[1] or outs[0][0] != 0:
            ok = False
    # subprocess: hash randomization must not leak into output
    action = tmp_path / "action.json"
    action.write_text(
        json.dumps(
            {
                "points": ["1", "2", "3"],
                "specialization": [["1", "2"]],
                "group": "F1",
                "generators": [{"name": "g", "map": [["3", "3"]]}],
            }
        )
    )
    sub_matrix = [
        _expand(["analyze", "e4.json", "--format", "json"]),
        _expand(["lattice", "e4.json", "--format", "dot"]),
        _expand(["spectrum", "e4.json", "--format", "json"]),
        [
            "paction", str(action), "quasi_orbit_space", "--format", "json",
        ],
    ]
    for argv in sub_matrix:
        runs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "graphck", *argv],
                capture_output=True,
                text=True,
                env=env,
                cwd=str(REPO),
            )
            runs.append((proc.returncode, proc.stdout, proc.stderr))
        if runs[0] != runs[1] or runs[0][0] != 0:
            ok = False
    report(9, "CLI invocations are byte-reproducible", ok)
