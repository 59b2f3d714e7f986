"""Finite T0 spaces and generated partial actions."""

import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter

import pytest

from graphck import (
    ActionFormatError,
    Decomposition,
    FinitePartialAction,
    FiniteT0Space,
    PartialHomeo,
    check_infinite_witness,
    check_paradoxical_witness,
    decide_G_infinite,
    parse_action,
    parse_decomposition,
    prim_space,
)
import graphck.actions as actions
from graphck.actions import Violation, WitnessCheck
from graphck.cli import run
from graphck.poset import Poset

from util import (
    all_subsets,
    letter_element_map,
    brute_fixed_union,
    brute_homeo_error,
    brute_invariant_subsets,
    brute_quasi_orbits,
    closed_invariant_masks,
    closure,
    compose,
    differential_actions,
    interior,
    open_sets,
    prim_space_t0,
    random_action,
    random_cycle_transposition_action,
    random_open_set,
    random_word,
    reduce_letters,
    ref_check_infinite_witness,
    ref_check_paradoxical_witness,
    regex_parse_word,
    restrict,
    specializes,
    state_closure_fixed_union,
    step_closure_invariant_masks,
    step_closure_orbits,
    REPO,
    trivial_action,
    word_text,
)


def sierpinski():
    # b sits in the closure of a; opens: {}, {a}, {a,b}
    return FiniteT0Space.from_pairs(("a", "b"), [("a", "b")])


def three_chain_action():
    sp = FiniteT0Space.from_pairs(("1", "2", "3"))
    gen = PartialHomeo(sp, (("1", "2"), ("2", "3")))
    return FinitePartialAction(sp, "F1", ("g",), (gen,))


# -- spaces -----------------------------------------------------------------------


def test_space_validation():
    with pytest.raises(ActionFormatError, match="duplicate"):
        FiniteT0Space.from_pairs(("a", "a"))
    with pytest.raises(ActionFormatError, match="unknown point"):
        FiniteT0Space.from_pairs(("a",), [("a", "b")])
    with pytest.raises(ActionFormatError, match="antisymmetric"):
        FiniteT0Space.from_pairs(("a", "b"), [("a", "b"), ("b", "a")])


def test_sierpinski_topology():
    sp = sierpinski()
    assert sp.closure_pairs == {("a", "b")}  # b lies in the closure of the open point
    assert sp.unmask(Poset(sp._up).down[sp.index["b"]]) == {"a", "b"}  # smallest open set around b
    assert sp.is_open({"a"}) and not sp.is_open({"b"})
    assert closure(sp, {"b"}) == {"b"} and closure(sp, {"a"}) == {"a", "b"}
    assert interior(sp, {"b"}) == frozenset()  # a fixed closed point is invisible
    assert [sorted(S) for S in open_sets(sp)] == [[], ["a"], ["a", "b"]]


def test_space_equality_is_topological():
    a = FiniteT0Space.from_pairs(("x", "y", "z"), [("x", "y"), ("y", "z")])
    b = FiniteT0Space.from_pairs(("x", "y", "z"), [("x", "y"), ("y", "z"), ("x", "z")])
    assert a == b  # transitive closure is normalized


def set_fixpoint_above(points, pairs):
    """Reflexive-transitive closure by iterating set unions to a fixpoint."""
    above = {p: {p} for p in points}
    for p, q in pairs:
        above[p].add(q)
    changed = True
    while changed:
        changed = False
        for p in points:
            new = set().union(*(above[q] for q in above[p]))
            if not new <= above[p]:
                above[p] |= new
                changed = True
    return above


def test_closure_matches_set_fixpoint():
    rng, pick = random.Random(83), random.Random(89)
    spaces = 0
    for _ in range(300):
        points = tuple(f"p{i}" for i in range(rng.randint(1, 7)))
        pairs = {(p, q) for p in points for q in points if p != q and rng.random() < 0.15}
        above = set_fixpoint_above(points, pairs)
        if any(q != p and p in above[q] for p in points for q in above[p]):
            with pytest.raises(ActionFormatError, match="antisymmetric"):
                FiniteT0Space.from_pairs(points, pairs)
            continue
        sp = FiniteT0Space.from_pairs(points, pairs)
        assert {p: sp.unmask(sp._up[sp.index[p]]) for p in points} == above
        assert sp.closure_pairs == {(p, q) for p in points for q in above[p] if q != p}
        # the topology from the definitions: closed sets are up-sets, open sets down-sets
        below = {p: {q for q in points if p in above[q]} for p in points}
        assert {p: sp.unmask(Poset(sp._up).down[sp.index[p]]) for p in points} == below
        for _ in range(8):
            S = frozenset(p for p in points if pick.random() < 0.5)
            closed = frozenset().union(*(above[p] for p in S))
            inner = frozenset(p for p in S if below[p] <= S)
            assert closure(sp, S) == closed and interior(sp, S) == inner
            assert sp.is_open(S) == (inner == S)
        spaces += 1
    assert spaces > 100


# -- partial homeomorphisms ----------------------------------------------------------


def test_homeo_validation():
    sp = sierpinski()
    with pytest.raises(ActionFormatError, match="not open"):
        PartialHomeo(sp, (("b", "b"),))
    with pytest.raises(ActionFormatError, match="not injective"):
        PartialHomeo(FiniteT0Space.from_pairs(("1", "2", "3")), (("1", "2"), ("3", "2")))
    chain = FiniteT0Space.from_pairs(("a", "b", "c", "d"), [("a", "b"), ("c", "d")])
    ok = PartialHomeo(chain, (("a", "c"), ("b", "d")))
    assert ok.image == {"c", "d"}
    with pytest.raises(ActionFormatError, match="order isomorphism"):
        PartialHomeo(chain, (("a", "d"), ("b", "c")))


def mutated_maps(rng, space, pairs):
    """The pairs in shuffled input order, then with their images shuffled, one
    image repeated, one image moved to a random point, one random pair
    inserted and one pair dropped."""
    pairs = list(pairs)
    rng.shuffle(pairs)
    xs, ys = [x for x, _ in pairs], [y for _, y in pairs]
    shuffled = rng.sample(ys, len(ys))
    out = [pairs, list(zip(xs, shuffled))]
    if len(pairs) >= 2:
        i, j = rng.sample(range(len(pairs)), 2)
        out.append(list(zip(xs, ys[:i] + [ys[j]] + ys[i + 1 :])))
    k = rng.randint(0, len(pairs))
    out.append(list(zip(xs, ys[:k] + [rng.choice(space.points)] + ys[k + 1 :])))
    out.append(pairs[:k] + [(rng.choice(space.points), rng.choice(space.points))] + pairs[k:])
    if pairs:
        out.append(pairs[:k] + pairs[k + 1 :])
    return out


def test_homeo_validation_matches_pairwise_check():
    # the mask checks accept and reject exactly as the pairwise definition,
    # naming the same offending pair
    kinds = (
        "map domain repeats a point",
        "map is not injective",
        "map domain is not open",
        "map image is not open",
        "map is not an order isomorphism",
    )
    rng = random.Random(151)
    outcomes = Counter()
    for a in differential_actions():
        sp = a.space
        index = {p: i for i, p in enumerate(sp.points)}
        for gen in a.generators:
            for pairs in mutated_maps(rng, sp, gen.pairs):
                expected = brute_homeo_error(sp, pairs)
                outcomes[expected and next(k for k in kinds if expected.startswith(k))] += 1
                if expected is not None:
                    with pytest.raises(ActionFormatError) as exc:
                        PartialHomeo(sp, tuple(pairs))
                    assert str(exc.value) == expected
                    continue
                h = PartialHomeo(sp, tuple(pairs))
                assert h.pairs == tuple(sorted(pairs, key=lambda xy: index[xy[0]]))
                fwd, inv = dict(h.pairs), {y: x for x, y in h.pairs}
                assert h._fwd == tuple(index.get(fwd.get(p), -1) for p in sp.points)
                assert h._inv == tuple(index.get(inv.get(p), -1) for p in sp.points)
    assert set(outcomes) == {None, *kinds}
    assert min(outcomes.values()) >= 20, outcomes


def test_homeo_names_the_first_unknown_point_in_input_order():
    """Domain points are read before image points, each in pair order, and an
    unknown point is reported before any other fault of the map."""
    sp = FiniteT0Space.from_pairs(("a", "b", "c"))
    cases = [
        ((("a", "zz"), ("zy", "b")), "zy"),  # an unknown image, then a later unknown domain point
        ((("a", "zz"), ("b", "zy")), "zz"),
        ((("a", "b"), ("zz", "c"), ("zy", "a")), "zz"),
        ((("a", "a"), ("a", "b"), ("zz", "c")), "zz"),  # over a repeated domain point
        ((("a", "c"), ("b", "c"), ("c", "zz")), "zz"),  # over a repeated image point
    ]
    for pairs, name in cases:
        with pytest.raises(ActionFormatError) as info:
            PartialHomeo(sp, pairs)
        assert info.value.args == (f"map names unknown point {name!r}",)
    with pytest.raises(ActionFormatError, match="map domain repeats a point"):
        PartialHomeo(sp, (("a", "a"), ("a", "b")))


def test_homeo_compose_and_inverse():
    a = three_chain_action()
    g = a.generators[0]
    gg = compose(g, g)
    assert dict(gg.pairs) == {"1": "3"}
    assert dict(a.element_map("g^-1").pairs) == {"2": "1", "3": "2"}


# -- element maps --------------------------------------------------------------------


def trusted_path_words(rng, a):
    """Words over a's generators: e, inverses, powers, 10**30 exponents and,
    over Z, integer tokens."""
    names = a.generator_names
    yield from ("", "e", "e e")
    for name in names:
        yield from (name, f"{name}^-1", f"{name} {name}^-1")
        yield from (f"{name}^{10**30}", f"{name}^-{10**30 + 1}")
    for _ in range(6 if names else 0):
        tokens = []
        for _ in range(rng.randint(1, 6)):
            name, exp, r = rng.choice(names), rng.randint(-9, 9), rng.random()
            if r < 0.1:
                tokens.append("e")
            elif r < 0.3 and a.group == "Z":
                tokens.append(str(exp))
            elif r < 0.5:
                tokens.append(f"{name}^{rng.choice((10**30, -(10**30), exp))}")
            else:
                tokens.append(name if r < 0.75 else f"{name}^{exp}")
        yield rng.choice((" ", "*", "·")).join(tokens)


def test_element_map_equals_the_validated_constructor():
    """element_map skips the constructor's checks; the record it builds is
    the one the constructor builds from its pairs, index tuples included."""
    rng = random.Random(181)
    cases = differential_actions()
    cases += [random_action(rng, max_points=7, max_gens=3) for _ in range(500)]
    seen = Counter()
    for a in cases:
        for word in trusted_path_words(rng, a):
            m = a.element_map(word)
            ref = PartialHomeo(a.space, m.pairs)
            assert m == ref and (m._fwd, m._inv) == (ref._fwd, ref._inv), (a, word)
            assert all(m._inv[j] == i for i, j in enumerate(m._fwd) if j >= 0)
            assert sum(j >= 0 for j in m._inv) == len(m.pairs)
            seen[a.group, 0 < len(m.pairs) < len(a.space.points)] += 1
    assert seen[("Z", True)] >= 100 and seen[("F2", True)] >= 100, seen


def test_element_map_runs_no_validation(monkeypatch):
    """The composite is built from trusted index tuples, never re-checked."""
    rng = random.Random(191)
    cases = [random_action(rng, max_points=6, max_gens=2) for _ in range(40)]

    def refuse(self):
        raise AssertionError("PartialHomeo.__post_init__ ran")

    monkeypatch.setattr(actions.PartialHomeo, "__post_init__", refuse)
    for a in cases:
        for word in trusted_path_words(rng, a):
            a.element_map(word)


def test_word_maps_are_memoised_per_action_and_faults_repeat():
    sp = FiniteT0Space.from_pairs(("1", "2", "3"))
    gen = PartialHomeo(sp, (("1", "2"), ("2", "3")))
    a = FinitePartialAction(sp, "Z", ("t",), (gen,))
    first = a._word_map("t t")
    assert a._word_map("t t") is first and a.element_map("t t")._fwd is first
    assert a.element_map("t t") == a.element_map("t t")
    # words that share a first token keep their own maps
    assert dict(a.element_map("t").pairs) == {"1": "2", "2": "3"}
    assert dict(a.element_map("t t").pairs) == {"1": "3"}
    assert dict(a.element_map("t^-1").pairs) == {"2": "1", "3": "2"}
    assert dict(a.element_map("t^-1 t^-1").pairs) == {"3": "1"}
    for word, bad in (("t s", "s"), ("t^", "t^")):
        message = f"unknown generator {bad!r} in word"
        for _ in range(2):
            with pytest.raises(ActionFormatError) as info:
                a.element_map(word)
            assert info.value.args == (message,)
        assert word not in a._word_maps
    b = FinitePartialAction(sp, "Z", ("t",), (gen,))
    assert b == a and "t t" not in b.__dict__.get("_word_maps", {})


def test_element_map_examples():
    a = three_chain_action()
    ident = a.element_map("")
    assert dict(ident.pairs) == {"1": "1", "2": "2", "3": "3"}
    assert a.element_map("e").pairs == ident.pairs
    assert dict(a.element_map("g g").pairs) == {"1": "3"}
    assert dict(a.element_map("g^-1").pairs) == {"2": "1", "3": "2"}
    assert dict(a.element_map("g^2").pairs) == {"1": "3"}
    with pytest.raises(ActionFormatError, match="unknown generator"):
        a.element_map("h")


def test_element_map_integer_words():
    sp = FiniteT0Space.from_pairs(("1", "2", "3"))
    gen = PartialHomeo(sp, (("1", "2"), ("2", "3"), ("3", "1")))
    a = FinitePartialAction(sp, "Z", ("t",), (gen,))
    assert dict(a.element_map("t^2").pairs) == {"1": "3", "2": "1", "3": "2"}
    assert a.element_map("2").pairs == a.element_map("t^2").pairs
    assert dict(a.element_map("t^-1").pairs) == {y: x for x, y in gen.pairs}
    assert a.element_map("3").pairs == a.element_map("t^0").pairs != ()
    assert a.element_map("t^-2").pairs == a.element_map("-2").pairs
    # integers are ASCII digits only: "t^\u0661" and the bare "\u0661" name generators
    for word in ("t^\u0661", "\u0661", "-\u0661", "t^1_0"):
        with pytest.raises(ActionFormatError, match=re.escape(f"unknown generator {word!r}")):
            a.element_map(word)
    # so a generator may be named "\u0661", and a word reaches it by that name
    one = FinitePartialAction(sp, "Z", ("\u0661",), (gen,))
    assert one.element_map("\u0661^2").pairs == one.element_map("2").pairs == a.element_map("2").pairs
    assert one.element_map("\u0661").pairs == gen.pairs
    # free reduction over the one generator leaves the exponent sum
    rng = random.Random(9)
    for _ in range(300):
        letters = tuple(("t", rng.choice((1, -1))) for _ in range(rng.randint(0, 12)))
        total = sum(exp for _, exp in letters)
        assert reduce_letters(letters) == (("t", 1 if total > 0 else -1),) * abs(total)
        assert a.element_map(word_text(letters)).pairs == a.element_map(f"t^{total}").pairs


def test_element_map_runs_match_letter_by_letter_reference():
    # exponents are reduced as runs and applied by repeated squaring; the
    # reference expands every name^k into k letters
    rng = random.Random(23)
    words = 0
    for _ in range(400):
        a = random_action(rng, max_points=6, max_gens=2)
        for _ in range(5):
            tokens = []
            for _ in range(rng.randint(0, 6)):
                name, exp = rng.choice(a.generator_names), rng.randint(-40, 40)
                r = rng.random()
                if r < 0.1:
                    tokens.append("e")
                elif r < 0.2 and a.group == "Z":
                    tokens.append(str(exp))
                else:
                    tokens.append(name if r < 0.4 else f"{name}^{exp}")
            word = rng.choice((" ", "*", "·")).join(tokens)
            assert a.element_map(word).pairs == letter_element_map(a, word), word
            words += 1
        if a.group == "Z":
            for k in (-17, -1, 0, 5, 64):
                word = f"{a.generator_names[0]}^{k}"
                assert a.element_map(word).pairs == letter_element_map(a, word)
    assert words == 2000
    # a huge exponent costs its bit length, not its value
    sp = FiniteT0Space.from_pairs(("1", "2", "3"))
    gen = PartialHomeo(sp, (("1", "2"), ("2", "3"), ("3", "1")))
    a = FinitePartialAction(sp, "Z", ("t",), (gen,))
    assert a.element_map(f"t^{10**30}").pairs == a.element_map(f"t^{10**30 % 3}").pairs
    assert a.element_map(f"t^{10**40} t^-{10**40 - 2}").pairs == a.element_map("t^2").pairs
    assert a.parse_word("t t^-1 t^5 e t^3") == (("t", 8),)


def test_free_reduction():
    a = three_chain_action()
    # g^-1 g reduces to the identity word, so it acts on all points
    assert a.element_map("g^-1 g").pairs == a.element_map("").pairs
    # unreduced composition would only act where g is defined; the reduced
    # word extends it
    g = a.generators[0]
    assert compose(a.element_map("g^-1"), g).domain == {"1", "2"}


def test_parse_word_matches_the_regex_parser():
    """Generator tokens read from the per-action table against the parser that
    sends every token through the regexes: the same runs or the same error on
    seeded token soup."""
    rng = random.Random(181)
    sp = FiniteT0Space.from_pairs(("x", "y", "z"))
    ident = PartialHomeo(sp, (("x", "x"),))
    cases = [
        FinitePartialAction(sp, "Z", ("t",), (ident,)),
        FinitePartialAction(sp, "F1", ("g",), (ident,)),
        FinitePartialAction(sp, "F2", ("a", "b"), (ident, ident)),
        FinitePartialAction(sp, "F3", ("g1", "\u0661", "-"), (ident,) * 3),
        FinitePartialAction(sp, "F0", (), ()),
    ]
    huge = "9" * (sys.get_int_max_str_digits() + 1)  # int() refuses it
    outcomes = Counter()
    for a in cases:
        names = a.generator_names or ("g",)
        for _ in range(1500):
            tokens = []
            for _ in range(rng.randint(0, 5)):
                g = rng.choice(names)
                tokens.append(rng.choice((
                    g, g, f"{g}^-1", f"{g}^-1", f"{g}^1", f"{g}^0", f"{g}^01", f"{g}^-3",
                    str(rng.randint(-12, 12)), "e", "zz", "a^b^2", f"{g}^\u0662", "\u0661",
                    f"{g}^{huge}", huge,
                )))
            word = "".join(tok + rng.choice((" ", "  ", "\u00b7", "*", " * ")) for tok in tokens)
            results = []
            for parse in (FinitePartialAction.parse_word, regex_parse_word):
                try:
                    results.append(parse(a, word))
                except ActionFormatError as exc:
                    results.append(str(exc))
            assert results[0] == results[1], word[:80]
            outcomes["runs" if isinstance(results[0], tuple) else results[0].split()[0]] += 1
    # parsed, unknown generator, bare integer off Z, and integer literal too long
    assert set(outcomes) == {"runs", "unknown", "bare", "word"}, outcomes
    assert min(outcomes.values()) >= 100, outcomes


def test_rejects_higher_rank_integer_groups():
    sp = FiniteT0Space.from_pairs(("1",))
    gen = PartialHomeo(sp, (("1", "1"),))
    with pytest.raises(ActionFormatError, match="unsupported group"):
        FinitePartialAction(sp, "Z2", ("s", "t"), (gen, gen))
    with pytest.raises(ActionFormatError, match="generator"):
        FinitePartialAction(sp, "F2", ("s",), (gen,))


BASE_ACTION = {
    "points": ["a", "b"],
    "specialization": [],
    "group": "F1",
    "generators": [{"name": "g", "map": [["a", "a"]]}],
}
BASE_WITNESS = {"V": ["a"], "parts": [{"set": ["a"], "word": ""}]}
# (document, changes to its base, the message its first fault raises)
INPUT_FAULTS = [
    ("action", {"specialization": {"a": "b"}}, '"specialization": expected a list of pairs'),
    ("action", {"group": 1}, '"group": expected "Z" or "F<k>"'),
    ("action", {"generators": {"g": []}}, '"generators": expected a list'),
    ("action", {"generators": [{"name": "g"}]}, "generator #0: expected name and map"),
    (
        "action",
        {"group": "F2", "generators": [{"name": "g", "map": []}, {"name": "g", "map": []}]},
        "generator names repeat",
    ),
    ("action", {"generators": [{"name": "g", "map": [["9", "a"]]}]}, "map names unknown point '9'"),
    ("witness", {"V": "a"}, '"V": expected a list of point names'),
    ("witness", {"parts": {}}, '"parts": expected a list'),
    ("witness", {"parts": [{"set": ["a"]}]}, "part #0: expected set and word"),
]


def test_input_fault_messages(tmp_path):
    """Each malformed action or witness raises its message, and the CLI
    exits 1 with it on stderr and nothing on stdout.  A generator on another
    space no action file can express: its message is checked in the library."""
    action, witness = tmp_path / "a.json", tmp_path / "w.json"
    for kind, changes, message in INPUT_FAULTS:
        doc = {**(BASE_ACTION if kind == "action" else BASE_WITNESS), **changes}
        action.write_text(json.dumps(doc if kind == "action" else BASE_ACTION))
        witness.write_text(json.dumps(doc if kind == "witness" else BASE_WITNESS))
        parse = parse_action if kind == "action" else parse_decomposition
        with pytest.raises(ActionFormatError) as info:
            parse(json.dumps(doc))
        assert str(info.value) == message
        argv = ["paction", str(action), "check_paradoxical_witness", "--witness", str(witness)]
        shown = f"{action}: " if kind == "action" else f"{witness}: malformed decomposition: "
        out, err = io.StringIO(), io.StringIO()
        assert run(argv, out=out, err=err) == 1
        assert (out.getvalue(), err.getvalue()) == ("", f"error: {shown}{message}\n")
    a = parse_action(json.dumps(BASE_ACTION))
    other = PartialHomeo(FiniteT0Space.from_pairs(("a",)), (("a", "a"),))
    with pytest.raises(ActionFormatError) as info:
        FinitePartialAction(a.space, "F1", ("g",), (other,))
    assert str(info.value) == "generator lives on a different space"


def test_extension_axiom_exhaustive():
    rng = random.Random(97)
    for _ in range(40):
        a = random_action(rng, max_points=5, max_gens=2)
        letters = []
        for name in a.generator_names:
            letters += [(name, 1), (name, -1)]
        words = [()]
        for L in (1, 2):
            words += list(itertools.product(letters, repeat=L))
        for s in words:
            for t in words:
                ts = a.element_map(word_text(s))
                tt = a.element_map(word_text(t))
                comp = compose(ts, tt)
                whole = dict(a.element_map(word_text(s + t)).pairs)
                for x, y in comp.pairs:
                    assert whole.get(x) == y


# -- orbits ---------------------------------------------------------------------------


def test_orbit_examples():
    a = three_chain_action()
    assert a.orbit("1") == {"1", "2", "3"}
    assert a.quasi_orbit("1") == {"1", "2", "3"}
    qo = a.quasi_orbit_space()
    assert len(qo.classes) == 1
    with pytest.raises(ActionFormatError, match="unknown point"):
        a.orbit("9")


def test_orbits_match_the_step_closure():
    """One search per orbit against one depth-first search per point; at 2,000
    points, where those searches take seconds, against the one orbit."""
    rng = random.Random(173)
    cases = differential_actions()
    cases += [random_action(rng, max_points=9, max_gens=3) for _ in range(500)]
    cases += [random_cycle_transposition_action(rng, n) for n in range(5, 41)]
    for a in cases:
        assert a._orbits == step_closure_orbits(a)
    sp = FiniteT0Space.from_pairs(tuple(f"p{i}" for i in range(2000)))
    pts = sp.points
    cycle = PartialHomeo(sp, tuple((p, pts[i - 1]) for i, p in enumerate(pts)))
    every_other = PartialHomeo(sp, tuple((p, p) for p in pts[::2]))
    path = PartialHomeo(sp, tuple(zip(pts, pts[1:])))
    for a in (
        FinitePartialAction(sp, "F2", ("a", "b"), (cycle, every_other)),
        FinitePartialAction(sp, "F1", ("g",), (path,)),
    ):
        assert a._orbits == ((1 << 2000) - 1,) * 2000
        assert a.is_minimal() and a.quasi_orbit("p7") == frozenset(pts)


def test_invariance_queries_reject_unknown_points():
    a = three_chain_action()
    with pytest.raises(ActionFormatError, match="unknown point 'zz'"):
        a.is_invariant({"zz"})


def test_is_invariant_names_the_least_unknown_point_under_any_hash_seed():
    # the set's iteration order follows the hash seed: under seed 0 it yields
    # 'zz' before 'aa', under seed 1 'aa' first
    code = (
        "from graphck import ActionFormatError, FinitePartialAction, FiniteT0Space\n"
        "a = FinitePartialAction(FiniteT0Space(('b', 'c'), frozenset()), 'F0', (), ())\n"
        "try:\n"
        "    a.is_invariant({'zz', 'aa', 'mm'})\n"
        "except ActionFormatError as exc:\n"
        "    print(exc)\n"
    )
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(REPO / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert (proc.stdout, proc.stderr) == ("unknown point 'aa'\n", ""), seed


def test_space_queries_reject_unknown_points():
    # the least unknown name is reported, whatever order the set iterates in
    sp = FiniteT0Space.from_pairs(("o", "c"), (("o", "c"),))
    for query in (sp.mask, sp.sort_set, sp.is_open):
        for points in ({"o", "zz", "zy"}, iter(["zz", "o", "zy"])):
            with pytest.raises(ActionFormatError) as info:
                query(points)
            assert info.value.args == ("unknown point 'zy'",)
    assert sp.mask(iter(["c"])) == 2 and sp.sort_set(p for p in "co") == ("o", "c")


def test_two_component_orbits():
    sp = FiniteT0Space.from_pairs(("1", "2", "3"))
    gen = PartialHomeo(sp, (("1", "2"),))
    a = FinitePartialAction(sp, "F1", ("g",), (gen,))
    assert a.orbit("3") == {"3"}
    qo = a.quasi_orbit_space()
    assert sorted(sorted(c) for c in qo.classes) == [["1", "2"], ["3"]]
    assert not a.is_minimal()  # {3} is closed invariant


def test_trivial_action_on_sierpinski():
    sp = sierpinski()
    a = trivial_action(sp)
    qo = a.quasi_orbit_space()
    assert qo.space == sp  # singleton classes keep their labels and order


def test_quasi_orbit_space_matches_prim_space(corpus):
    for g in corpus.values():
        sp = prim_space_t0(prim_space(g))
        assert trivial_action(sp).quasi_orbit_space().space == sp


def test_orbit_partition_and_quasi_orbit_equivalence():
    rng = random.Random(101)
    for _ in range(60):
        a = random_action(rng)
        pts = a.space.points
        for x in pts:
            for y in pts:
                same_orbit = y in a.orbit(x)
                assert same_orbit == (x in a.orbit(y))
        # quasi-orbit classes partition the points
        qo = a.quasi_orbit_space()
        flat = sorted(p for c in qo.classes for p in c)
        assert flat == sorted(pts)
        for x in pts:
            assert x in a.quasi_orbit(x)


def test_quasi_orbits_match_the_definition():
    """quasi_orbit at every point, and the quotient's classes in the order of
    their first points, against the classes of equal orbit closures."""
    rng = random.Random(179)
    cases = differential_actions()
    cases += [random_action(rng, max_points=9, max_gens=3) for _ in range(1000)]
    for a in cases:
        brute = brute_quasi_orbits(a)
        for x in a.space.points:
            assert a.quasi_orbit(x) == brute[x]
        assert a.quasi_orbit_space().classes == tuple(dict.fromkeys(brute.values()))


def test_quotient_map_is_continuous_and_open():
    rng = random.Random(103)
    for _ in range(60):
        a = random_action(rng)
        sp = a.space
        qo = a.quasi_orbit_space()
        # the k-th label names the k-th class
        label = {p: qo.space.points[k] for k, c in enumerate(qo.classes) for p in c}
        # continuity: specialization is preserved
        for p in sp.points:
            for q in closure(sp, {p}):
                assert specializes(qo.space, label[p], label[q])
        # openness: the image of every open set is open
        for U in open_sets(sp):
            image = frozenset(label[p] for p in U)
            assert qo.space.is_open(image)
        # the quotient order is closure containment of orbit closures
        K = {label[p]: closure(sp, a.orbit(p)) for p in sp.points}
        for c in qo.space.points:
            for d in qo.space.points:
                assert specializes(qo.space, d, c) == (K[c] <= K[d])


# -- invariant sets, minimality --------------------------------------------------------


def test_invariant_subsets_and_complement_property():
    rng = random.Random(107)
    for _ in range(40):
        a = random_action(rng, max_points=5)
        invs = a.invariant_subsets()
        everything = frozenset(a.space.points)
        assert frozenset() in invs and everything in invs
        inv_set = set(invs)
        for V in invs:
            assert everything - V in inv_set  # complements stay invariant


def test_invariant_subsets_match_brute_force():
    groups = set()
    for a in differential_actions():
        groups.add(a.group)
        brute = brute_invariant_subsets(a)
        assert a.invariant_subsets() == brute
        assert {S for S in all_subsets(a.space.points) if a.is_invariant(S)} == set(brute)
        closed = [S for S in brute if closure(a.space, S) == S]
        for x in a.space.points:
            smallest = min((S for S in closed if x in S), key=len)
            assert a.space.unmask(closed_invariant_masks(a)[a.space.index[x]]) == smallest
    assert groups == {"Z", "F0", "F1", "F2", "F3"}
    # unions of orbits, not a scan of 2^40 subsets: 40 points in two orbits
    sp = FiniteT0Space.from_pairs(tuple(f"p{i}" for i in range(40)))
    pts = sp.points
    shift = tuple((pts[i], pts[(i + 1) % 20 + 20 * (i >= 20)]) for i in range(40))
    a = FinitePartialAction(sp, "Z", ("t",), (PartialHomeo(sp, shift),))
    low, high = frozenset(pts[:20]), frozenset(pts[20:])
    assert a.invariant_subsets(limit=40) == [frozenset(), low, high, low | high]


def test_closed_invariant_masks_match_the_step_closure():
    """Orbit closures against one closure over specialization and generator
    steps, also at sizes the subset enumeration cannot reach."""
    rng = random.Random(163)
    cases = differential_actions()
    cases += [random_action(rng, max_points=9, max_gens=3) for _ in range(500)]
    for a in cases:
        assert closed_invariant_masks(a) == step_closure_invariant_masks(a)


def test_invariant_subsets_order_at_full_size():
    """Ten orbits of mixed sizes on shuffled points: all 1,024 unions, by
    size, then mask."""
    rng = random.Random(151)
    sp = FiniteT0Space.from_pairs(tuple(f"p{i}" for i in range(16)))
    pts = list(sp.points)
    rng.shuffle(pts)
    orbits, pairs = [], []
    for size in (1, 1, 2, 1, 3, 1, 2, 1, 1, 3):
        orbit, pts = pts[:size], pts[size:]
        orbits.append(frozenset(orbit))
        pairs += [(orbit[k], orbit[(k + 1) % size]) for k in range(size)]
    a = FinitePartialAction(sp, "Z", ("t",), (PartialHomeo(sp, tuple(pairs)),))
    ref = [frozenset().union(*c) for c in all_subsets(orbits)]
    ref.sort(key=lambda S: (len(S), sum(1 << sp.index[p] for p in S)))
    assert len(ref) == 1024 and a.invariant_subsets() == ref


def test_fixed_union_matches_brute_force():
    for a in differential_actions():
        assert a.space.unmask(a._fixed_union) == brute_fixed_union(a)


def test_fixed_union_matches_the_state_closure():
    """The orbit-cycle rule against reachability among (point, last letter)
    states, also at sizes the word search cannot reach."""
    cases = differential_actions()
    rng = random.Random(157)
    seeded = []
    while len(seeded) < 300:  # discrete spaces come next
        a = random_action(rng, max_points=9, max_gens=3)
        if a.space.closure_pairs:
            seeded.append(a)
    assert {a.group for a in seeded} == {"Z", "F1", "F2", "F3"}
    cases += seeded
    cases += [random_cycle_transposition_action(rng, n) for n in range(5, 13) for _ in range(4)]
    sp = FiniteT0Space.from_pairs(("x", "y", "z"), [("x", "z")])
    cases.append(FinitePartialAction(sp, "F0", (), ()))
    for a in cases:
        assert a._fixed_union == state_closure_fixed_union(a)

    disc = FiniteT0Space.from_pairs(("x", "y", "z"))

    def fixed(group, *maps):
        names = tuple(f"g{i}" for i in range(len(maps)))
        a = FinitePartialAction(disc, group, names, tuple(PartialHomeo(disc, m) for m in maps))
        assert a._fixed_union == state_closure_fixed_union(a)
        return a.space.unmask(a._fixed_union)

    ident = (("x", "x"), ("y", "y"), ("z", "z"))
    assert fixed("F1", (("y", "y"),)) == {"y"}  # a loop
    assert fixed("F1", (("x", "y"), ("z", "x"))) == set()  # the path z - x - y
    assert fixed("Z", (("x", "y"), ("y", "x"))) == {"x", "y"}  # a 2-cycle: t^2
    # two generators that agree at one point: g1^-1 g0 fixes it
    assert fixed("F2", (("y", "x"),), (("y", "x"), ("x", "y"))) == {"x", "y"}
    assert fixed("F0") == set() and fixed("F1", ident) == {"x", "y", "z"}


def test_is_minimal_matches_brute_force():
    rng = random.Random(109)
    for _ in range(60):
        a = random_action(rng, max_points=8)
        closed_inv = [
            S
            for S in a.invariant_subsets()
            if closure(a.space, S) == S and S not in (frozenset(), frozenset(a.space.points))
        ]
        assert a.is_minimal() == (not closed_inv)
    # no points, and one point: nothing closed and invariant lies strictly between
    for points in ((), ("x",)):
        a = FinitePartialAction(FiniteT0Space(points, frozenset()), "F0", (), ())
        assert a.is_minimal()


# -- topological freeness ---------------------------------------------------------------


def test_freeness_examples():
    assert three_chain_action().is_topologically_free()
    # a global permutation of a nonempty discrete space is never free
    sp = FiniteT0Space.from_pairs(("1", "2", "3"))
    perm = PartialHomeo(sp, (("1", "2"), ("2", "3"), ("3", "1")))
    a = FinitePartialAction(sp, "Z", ("t",), (perm,))
    assert not a.is_topologically_free()
    # identity on an open set is a realized nontrivial word fixing it
    ident = FinitePartialAction(sp, "F1", ("g",), (PartialHomeo(sp, (("1", "1"),)),))
    assert not ident.is_topologically_free()
    # a 12-cycle and a partial transposition realize far too many partial
    # maps to list word by word; the 12th power of the cycle fixes every point
    big = random_cycle_transposition_action(random.Random(0), 12)
    assert big.space.unmask(big._fixed_union) == frozenset(big.space.points)
    assert not big.is_topologically_free()


def test_freeness_is_no_fixed_point():
    """On a finite T0 space the points fixed by nontrivial reduced words have
    empty interior only when there are none, and residual freeness is
    freeness."""
    rng = random.Random(167)
    cases = differential_actions()
    cases += [random_action(rng, max_points=9, max_gens=3) for _ in range(2000)]
    assert {a.group for a in cases} == {"Z", "F0", "F1", "F2", "F3"}
    fixed_somewhere = 0
    for a in cases:
        fixed = a.space.unmask(state_closure_fixed_union(a))
        fixed_somewhere += bool(fixed)
        assert (not interior(a.space, fixed)) == (not fixed)
        assert a.is_residually_topologically_free() == a.is_topologically_free() == (not fixed)
    assert 100 < fixed_somewhere < len(cases) - 100


def test_z_and_f1_freeness_agree():
    rng = random.Random(113)
    for _ in range(60):
        a = random_action(rng, max_points=5, max_gens=1)
        z = FinitePartialAction(a.space, "Z", a.generator_names, a.generators)
        f1 = FinitePartialAction(a.space, "F1", a.generator_names, a.generators)
        assert z.is_topologically_free() == f1.is_topologically_free()
        assert (
            z.is_residually_topologically_free()
            == f1.is_residually_topologically_free()
        )


def test_residual_freeness_matches_full_enumeration():
    rng = random.Random(127)
    for _ in range(60):
        a = random_action(rng, max_points=5)
        brute = all(
            restrict(a, S).is_topologically_free()
            for S in a.invariant_subsets()
            if closure(a.space, S) == S
        )
        assert a.is_residually_topologically_free() == brute


def test_residual_freeness_implies_freeness():
    rng = random.Random(131)
    for _ in range(80):
        a = random_action(rng, max_points=5)
        if a.is_residually_topologically_free():
            assert a.is_topologically_free()


def test_both_freeness_queries_compute_the_fixed_union_once(monkeypatch):
    """The fixed-point union comes from the orbits: both freeness queries
    together take no closure wider than the point count, and compute the
    union once per action."""
    rng = random.Random(137)
    for _ in range(20):
        a = random_action(rng, max_points=5)
        sizes, calls = [], []
        real, rule = actions.closure, actions.FinitePartialAction._fixed_union.func
        monkeypatch.setattr(actions, "closure", lambda succ: sizes.append(len(succ)) or real(succ))
        monkeypatch.setattr(
            actions.FinitePartialAction._fixed_union, "func", lambda self: calls.append(1) or rule(self)
        )
        a.is_topologically_free()
        a.is_residually_topologically_free()
        monkeypatch.undo()
        assert max(sizes, default=0) <= len(a.space.points), sizes
        assert len(calls) == 1


def test_minimal_implies_single_quasi_orbit():
    rng = random.Random(137)
    for _ in range(80):
        a = random_action(rng, max_points=5)
        if a.is_minimal():
            assert len(a.quasi_orbit_space().classes) == 1


# -- decompositions -----------------------------------------------------------------------


def test_paradoxical_empty_v_needs_nonempty():
    a = three_chain_action()
    d = Decomposition(frozenset(), (), split=0)
    res = check_paradoxical_witness(a, d)
    assert not res.valid and res.violation.clause == "v_empty"


def test_paradoxical_overlap_names_indices():
    a = three_chain_action()
    V = frozenset(("1", "2", "3"))
    d = Decomposition(V, ((V, ""), (V, "")), split=1)
    res = check_paradoxical_witness(a, d)
    assert not res.valid
    assert res.violation.clause == "images_overlap"
    assert (res.violation.i, res.violation.j) == (0, 1)
    assert res.violation.counting


def test_infinite_witness_counting_violation():
    a = three_chain_action()
    sp = a.space
    V = frozenset(("1", "2"))
    # g maps {1} into V with image {2}: cover fails first
    d_bad_cover = Decomposition(V, ((frozenset(("1",)), "g"),))
    assert check_infinite_witness(a, d_bad_cover).violation.clause == "bad_cover"
    # identity on both parts covers V but shifts nothing
    d = Decomposition(V, ((frozenset(("1",)), ""), (frozenset(("2",)), "")))
    res = check_infinite_witness(a, d)
    assert not res.valid
    assert res.violation.clause in ("closure_not_proper", "images_overlap")
    d_empty = Decomposition(frozenset(), ())
    assert check_infinite_witness(a, d_empty).violation.clause == "no_parts"


def test_witness_malformed_errors():
    a = three_chain_action()
    with pytest.raises(ActionFormatError, match="split"):
        check_paradoxical_witness(a, Decomposition(frozenset(("1",)), ()))
    with pytest.raises(ActionFormatError, match="split"):
        check_infinite_witness(a, Decomposition(frozenset(("1",)), (), split=0))
    with pytest.raises(ActionFormatError, match="unknown point"):
        check_infinite_witness(a, Decomposition(frozenset(("9",)), ((frozenset(("9",)), ""),)))


def test_witness_split_must_be_an_integer():
    """A JSON boolean is not an integer, although Python's bool is an int."""
    text = '{"V": ["1"], "parts": [{"set": ["1"], "word": ""}], "split": %s}'
    assert parse_decomposition(text % "1").split == 1
    assert parse_decomposition(text % "null").split is None
    for bad in ("true", "false", "1.0", '"1"'):
        with pytest.raises(ActionFormatError, match='"split": expected an integer or null'):
            parse_decomposition(text % bad)


def test_random_witnesses_always_rejected():
    rng = random.Random(139)
    for _ in range(120):
        a = random_action(rng, max_points=5)
        V = random_open_set(rng, a.space)
        parts = tuple(
            (random_open_set(rng, a.space), random_word(rng, a))
            for _ in range(rng.randint(0, 3))
        )
        para = Decomposition(V, parts, split=rng.randint(0, len(parts)))
        res = check_paradoxical_witness(a, para)
        assert not res.valid and res.violation is not None
        inf = Decomposition(V, parts)
        res2 = check_infinite_witness(a, inf)
        assert not res2.valid and res2.violation is not None


def outcome(check, a, d):
    """A check's WitnessCheck, or the type and message of what it raised."""
    try:
        return check(a, d)
    except ActionFormatError as exc:
        return type(exc), str(exc)


def random_decompositions(rng, a):
    """(V, parts) that reach every clause: V empty, open or not; parts open
    or not, inside their words' domains or not, covering V or not; words that
    escape V, name no generator or do not parse; now and then an unknown point."""
    sp, pts = a.space, list(a.space.points)
    words = [random_word(rng, a) for _ in range(3)] + ["", "e", "zz", "g1^", "3"]

    def anyset():
        return frozenset(rng.sample(pts, rng.randint(0, len(pts))))

    for _ in range(8):
        V = random_open_set(rng, sp) if rng.random() < 0.75 else anyset()
        parts = []
        for _ in range(rng.randint(0, 4)):
            r = rng.random()
            S = V if r < 0.3 else random_open_set(rng, sp) & V if r < 0.6 else anyset()
            parts.append((S, rng.choice(words) if rng.random() < 0.7 else ""))
        if rng.random() < 0.05:
            parts.append((frozenset(["zz"]), ""))
        yield V, parts
        # V twice covers V in both families, so the image clauses decide
        yield V, [(V, rng.choice(words[:3] + [""])), (V, "")]
        yield V, [(V, rng.choice(words[:3] + [""]))]
        # an unknown generator after a non-open part is never read
        yield V, [(frozenset(pts) - random_open_set(rng, sp), ""), (V, "zz")]


def test_mask_witness_checks_match_the_frozenset_reference():
    rng = random.Random(149)
    seen = Counter()
    for _ in range(150):
        a = random_action(rng, max_points=6)
        for V, parts in random_decompositions(rng, a):
            n = len(parts)
            split = rng.choice([None, -1, n + 1] + list(range(n + 1)) * 3)
            cases = (
                (check_paradoxical_witness, ref_check_paradoxical_witness, split),
                (check_infinite_witness, ref_check_infinite_witness, rng.choice([None] * 9 + [0])),
            )
            for check, ref, split in cases:
                d = Decomposition(V, tuple(parts), split)
                got = outcome(check, a, d)
                assert got == outcome(ref, a, d), (a, d)
                seen[got.violation.clause if isinstance(got, WitnessCheck) else got[1][:20]] += 1
    clauses = ["v_empty", "v_not_open", "part_not_open", "part_outside_domain", "image_escapes",
               "bad_cover", "images_overlap", "closure_not_proper", "no_parts"]
    errors = ["split index out of r", "paradoxical witness ", "infiniteness witness",
              "decomposition names ", "unknown generator 'z", "unknown generator 'g",
              "bare integer token '"]  # the first 20 characters of each message
    assert all(seen[k] >= 10 for k in clauses + errors), seen


def test_unknown_generator_after_a_non_open_part_is_not_read():
    # "2" lies in the closure of "1", so {"2"} is not open
    sp = FiniteT0Space.from_pairs(("1", "2"), [("1", "2")])
    a = FinitePartialAction(sp, "F1", ("g",), (PartialHomeo(sp, (("1", "1"),)),))
    V, parts = frozenset(("1", "2")), ((frozenset(("2",)), ""), (frozenset(("1", "2")), "zz"))
    res = check_infinite_witness(a, Decomposition(V, parts))
    assert res.violation == Violation("part_not_open", "V_0 is not open", i=0)
    res = check_paradoxical_witness(a, Decomposition(V, parts, split=1))
    assert res.violation.clause == "bad_cover"  # the first family, {"2"}, misses "1"
    res = check_paradoxical_witness(a, Decomposition(V, ((V, ""),) + parts, split=2))
    assert res.violation == Violation("part_not_open", "V_1 is not open", i=1)


def test_witness_names_the_least_unknown_point_under_any_hash_seed(tmp_path):
    """V and two parts name unknown points; the least of them, in the second
    part, is reported whatever order the sets iterate in."""
    action, witness = tmp_path / "a.json", tmp_path / "w.json"
    action.write_text(json.dumps(BASE_ACTION))
    doc = {
        "V": ["zz", "a", "mm", "yy"],
        "parts": [{"set": ["a", "nn", "xx"], "word": ""}, {"set": ["pp", "ab", "b"], "word": "g"}],
        "split": 1,
    }
    witness.write_text(json.dumps(doc))
    argv = ["paction", str(action), "check_paradoxical_witness", "--witness", str(witness)]
    message = "decomposition names unknown point 'ab'"
    expected = f"error: {witness}: malformed decomposition: {message}\n"
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(REPO / "src")}
        proc = subprocess.run(
            [sys.executable, "-m", "graphck", *argv],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (1, "", expected), seed


def test_decide_G_infinite():
    a = three_chain_action()
    dec = decide_G_infinite(a, frozenset(("1", "2")))
    assert not dec.infinite
    assert dec.proof.size == 2 and "closure" in dec.proof.detail
    with pytest.raises(ValueError, match="nonempty"):
        decide_G_infinite(a, frozenset())
    sp = sierpinski()
    b = trivial_action(sp)
    with pytest.raises(ValueError, match="not open"):
        decide_G_infinite(b, frozenset(("b",)))
    one = trivial_action(FiniteT0Space.from_pairs(("x",)))
    assert not decide_G_infinite(one, frozenset(("x",))).infinite


# -- parsing -----------------------------------------------------------------------------


def test_parse_action_round_trip():
    text = """{
      "points": ["1", "2", "3"],
      "specialization": [],
      "group": "F2",
      "generators": [
        {"name": "s", "map": [["1", "2"]]},
        {"name": "t", "map": [["2", "3"], ["3", "2"]]}
      ]
    }"""
    a = parse_action(text)
    assert a.group == "F2" and a.generator_names == ("s", "t")
    assert dict(a.element_map("t t").pairs) == {"2": "2", "3": "3"}
    with pytest.raises(ActionFormatError):
        parse_action("{not json")
    with pytest.raises(ActionFormatError, match="needs 1 generator"):
        parse_action('{"points": ["1"], "group": "Z", "generators": []}')
