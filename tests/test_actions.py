"""Finite T0 spaces and generated partial actions."""

import itertools
import os
import random
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
    prim_space,
)
from graphck.actions import Violation, WitnessCheck

from util import (
    all_subsets,
    letter_element_map,
    brute_fixed_union,
    brute_homeo_error,
    brute_invariant_subsets,
    closure,
    compose,
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
    restrict,
    specializes,
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
    assert sp.unmask(sp._down[sp.index["b"]]) == {"a", "b"}  # smallest open set around b
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
        assert {p: sp.unmask(sp._down[sp.index[p]]) for p in points} == below
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


def test_homeo_compose_and_inverse():
    a = three_chain_action()
    g = a.generators[0]
    gg = compose(g, g)
    assert dict(gg.pairs) == {"1": "3"}
    assert dict(a.element_map("g^-1").pairs) == {"2": "1", "3": "2"}


# -- element maps --------------------------------------------------------------------


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


def test_rejects_higher_rank_integer_groups():
    sp = FiniteT0Space.from_pairs(("1",))
    gen = PartialHomeo(sp, (("1", "1"),))
    with pytest.raises(ActionFormatError, match="unsupported group"):
        FinitePartialAction(sp, "Z2", ("s", "t"), (gen, gen))
    with pytest.raises(ActionFormatError, match="generator"):
        FinitePartialAction(sp, "F2", ("s",), (gen,))


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


def differential_actions():
    """Seeded actions over Z, F1, F2 and F3, then cycle-plus-transposition F2
    actions on 5 and 6 discrete points."""
    rng = random.Random(149)
    out = [random_action(rng, max_points=6, max_gens=3) for _ in range(150)]
    out += [random_cycle_transposition_action(rng, n) for n in (5, 6) for _ in range(6)]
    return out


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
            assert a.space.unmask(a._closed_invariant_masks[a.space.index[x]]) == smallest
    assert groups == {"Z", "F1", "F2", "F3"}
    # unions of orbits, not a scan of 2^40 subsets: 40 points in two orbits
    sp = FiniteT0Space.from_pairs(tuple(f"p{i}" for i in range(40)))
    pts = sp.points
    shift = tuple((pts[i], pts[(i + 1) % 20 + 20 * (i >= 20)]) for i in range(40))
    a = FinitePartialAction(sp, "Z", ("t",), (PartialHomeo(sp, shift),))
    low, high = frozenset(pts[:20]), frozenset(pts[20:])
    assert a.invariant_subsets(limit=40) == [frozenset(), low, high, low | high]


def test_fixed_union_matches_brute_force():
    for a in differential_actions():
        assert a.space.unmask(a._fixed_union()) == brute_fixed_union(a)


def test_is_minimal_matches_brute_force():
    rng = random.Random(109)
    for _ in range(60):
        a = random_action(rng, max_points=5)
        closed_inv = [
            S
            for S in a.invariant_subsets()
            if closure(a.space, S) == S and S not in (frozenset(), frozenset(a.space.points))
        ]
        assert a.is_minimal() == (not closed_inv)


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
    assert big.space.unmask(big._fixed_union()) == frozenset(big.space.points)
    assert not big.is_topologically_free()


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
