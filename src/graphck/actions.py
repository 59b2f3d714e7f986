"""Finite models of partial dynamical systems on T0 spaces.

A finite T0 space is a partial order: ``q >> p`` (written q above p here)
means q lies in the closure of {p}.  Open sets are exactly the down-sets of
that order, closed sets the up-sets, and interior(S) is the largest down-set
inside S.  This convention is fixed here once and used everywhere.

Inside, a point set is an int mask over the canonical point order (bit i is
``points[i]``, as in ``poset``), and a partial map is an index tuple whose
position i holds the index of the image of point i, or -1 where the map is
undefined.  Frozensets of point names appear only at the API.

Actions are generated: the generators of a free group (or the single
generator for the integers) are partial homeomorphisms, i.e. order
isomorphisms between open sets, and a word acts by composing the letters of
its reduced form on the natural maximal domain.  Rank-two and higher integer
lattices are rejected: the generating data does not determine a canonical
action for them.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, replace
from functools import reduce
from itertools import combinations
from operator import or_
from typing import Iterable, Optional, Sequence

from .graphs import DEFAULT_LIMIT, LimitExceededError, decode_json
from .poset import Poset, bits, cached_property, check_antisymmetric, clip, closure, union

Letter = tuple[str, int]  # a run: (generator name, exponent)


class ActionFormatError(ValueError):
    """Raised when action or witness input violates the format."""


def _reduce(runs: Iterable[Letter]) -> tuple[Letter, ...]:
    """Free reduction on (generator, exponent) runs: merge neighbours that
    name the same generator and drop the runs whose exponents cancel."""
    out: list[Letter] = []
    for name, exp in runs:
        if out and out[-1][0] == name:
            exp += out.pop()[1]
        if exp:
            out.append((name, exp))
    return tuple(out)


def _check_known(index: dict, message: str, *groups: Iterable[str]) -> None:
    """Raise naming the least unknown point of the groups in sorted order: the
    order in which a set iterates depends on the hash seed."""
    if unknown := set().union(*groups) - index.keys():
        raise ActionFormatError(f"{message} {clip(min(unknown))}")


@dataclass(frozen=True)
class FiniteT0Space:
    """A finite T0 topological space, encoded by its specialization order."""

    points: tuple[str, ...]
    closure_pairs: frozenset[tuple[str, str]]  # (p, q) with q in closure{p}

    def __post_init__(self):
        index = {}
        for i, p in enumerate(self.points):
            if p in index:
                raise ActionFormatError(f"point {clip(p)}: duplicate id")
            index[p] = i
        _check_known(index, "specialization pair names unknown point", *self.closure_pairs)
        succ = [0] * len(self.points)
        for p, q in self.closure_pairs:
            succ[index[p]] |= 1 << index[q]
        # reflexive-transitive closure, then antisymmetry = T0
        up = closure(succ)
        try:
            check_antisymmetric(up, self.points)
        except ValueError as exc:
            raise ActionFormatError(f"specialization is {exc}") from None
        # normalize to the full transitive relation so that equality of spaces
        # is equality of topologies, however the input pairs were given
        pts = self.points
        object.__setattr__(
            self,
            "closure_pairs",
            frozenset((pts[i], pts[j]) for i, m in enumerate(up) for j in bits(m & ~(1 << i))),
        )
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "_up", up)

    @classmethod
    def from_pairs(
        cls, points: Iterable[str], pairs: Iterable[tuple[str, str]] = ()
    ) -> "FiniteT0Space":
        return cls(tuple(points), frozenset((p, q) for p, q in pairs))

    def sort_set(self, ps: Iterable[str]) -> tuple[str, ...]:
        ps = tuple(ps)
        _check_known(self.index, "unknown point", ps)
        return tuple(sorted(ps, key=self.index.__getitem__))

    def mask(self, ps: Iterable[str]) -> int:
        m, ps = 0, iter(ps)
        try:
            for p in ps:
                m |= 1 << self.index[p]
        except KeyError:  # the points before p are known: the rest hold the least unknown
            _check_known(self.index, "unknown point", (p,), ps)
        return m

    def unmask(self, m: int) -> frozenset[str]:
        return frozenset(self.points[j] for j in bits(m))

    @cached_property
    def _down(self) -> tuple[int, ...]:
        """Per point, the mask of the smallest open set containing it."""
        return Poset(self._up).down

    def _interior(self, m: int) -> int:
        """Mask of the interior of m: everything outside the closure of its complement."""
        return m & ~union(self._up, ((1 << len(self.points)) - 1) & ~m)

    def is_open(self, S: Iterable[str]) -> bool:
        m = self.mask(S)
        return self._interior(m) == m


@dataclass(frozen=True)
class PartialHomeo:
    """An order isomorphism between two open subsets of a finite T0 space.

    Validation leaves the map on the instance as two index tuples over the
    space's points: ``_fwd`` (theta) and ``_inv`` (its inverse).
    """

    space: FiniteT0Space
    pairs: tuple[tuple[str, str], ...]  # (x, theta(x)), sorted canonically

    def __post_init__(self):
        sp = self.space
        index, pts = sp.index, sp.points
        for x in [x for x, _ in self.pairs] + [y for _, y in self.pairs]:
            if x not in index:
                raise ActionFormatError(f"map names unknown point {clip(x)}")
        fwd, inv, order = [-1] * len(pts), [-1] * len(pts), []
        repeat = clash = False
        dom = img = 0
        for x, y in self.pairs:
            i, j = index[x], index[y]
            repeat |= fwd[i] >= 0
            clash |= inv[j] >= 0
            fwd[i], inv[j] = j, i
            dom, img = dom | 1 << i, img | 1 << j
            order.append(i)
        if repeat:
            raise ActionFormatError("map domain repeats a point")
        if clash:
            raise ActionFormatError("map is not injective")
        if sp._interior(dom) != dom:
            raise ActionFormatError(f"map domain is not open: {clip(sorted(sp.unmask(dom)))}")
        if sp._interior(img) != img:
            raise ActionFormatError(f"map image is not open: {clip(sorted(sp.unmask(img)))}")
        # theta preserves and reflects specialization at x exactly when the
        # points above x in the domain are the pull-back of those above theta(x)
        up = sp._up
        for i in order:
            pulled = 0
            for j in bits(up[fwd[i]] & img):
                pulled |= 1 << inv[j]
            bad = (up[i] & dom) ^ pulled
            if bad:  # name the first offending pair in input order
                y = min(bits(bad), key=order.index)
                raise ActionFormatError(
                    f"map is not an order isomorphism at {clip(pts[i])}, {clip(pts[y])}"
                )
        pairs = tuple((pts[i], pts[j]) for i, j in enumerate(fwd) if j >= 0)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "_fwd", tuple(fwd))
        object.__setattr__(self, "_inv", tuple(inv))

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(x for x, _ in self.pairs)

    @property
    def image(self) -> frozenset[str]:
        return frozenset(y for _, y in self.pairs)


_GROUP_RE = re.compile(r"^F(\d+)$")


@dataclass(frozen=True)
class FinitePartialAction:
    """A generated partial action of a free group or the integers."""

    space: FiniteT0Space
    group: str  # "Z" or "F<k>"
    generator_names: tuple[str, ...]
    generators: tuple[PartialHomeo, ...]

    def __post_init__(self):
        if self.group == "Z":
            rank = 1
        else:
            m = _GROUP_RE.match(self.group)
            if not m:
                raise ActionFormatError(
                    f"unsupported group {clip(self.group)}: use \"Z\" or \"F<k>\" "
                    f"(higher-rank integer lattices admit no canonical generated action)"
                )
            rank = int(m.group(1))
        if len(self.generators) != rank:
            raise ActionFormatError(
                f"group {self.group} needs {rank} generator(s), got {len(self.generators)}"
            )
        if len(set(self.generator_names)) != len(self.generator_names):
            raise ActionFormatError("generator names repeat")
        for name in self.generator_names:
            # a word could not name it: e, separators, powers and integer tokens
            if (
                not name
                or name == "e"
                or any(c.isspace() or c in "^*·" for c in name)
                or re.fullmatch(r"-?\d+", name)
            ):
                raise ActionFormatError(f"bad generator name {clip(name)}")
        for gen in self.generators:
            if gen.space != self.space:
                raise ActionFormatError("generator lives on a different space")

    @cached_property
    def _by_name(self) -> dict[str, PartialHomeo]:
        return dict(zip(self.generator_names, self.generators))

    # -- words ---------------------------------------------------------------

    def parse_word(self, word: str) -> tuple[Letter, ...]:
        """Parse a word of the text grammar (docs/FORMATS.md) into freely
        reduced (generator, exponent) runs, expanding no exponent."""
        runs: list[Letter] = []
        for tok in word.replace("·", " ").replace("*", " ").split():
            if tok == "e":
                continue
            m = re.fullmatch(r"(.+?)\^(-?\d+)", tok)
            if m:
                name, exp = m.group(1), m.group(2)
            elif re.fullmatch(r"-?\d+", tok):
                if self.group != "Z":
                    raise ActionFormatError(
                        f"bare integer token {clip(tok)} is only defined over Z"
                    )
                name, exp = self.generator_names[0], tok
            else:
                name, exp = tok, "1"
            try:
                runs.append((name, int(exp)))
            except ValueError:  # int() refuses literals over sys.get_int_max_str_digits()
                raise ActionFormatError(
                    f"word {clip(word)}: integer literal too long: "
                    f"over {sys.get_int_max_str_digits()} digits"
                ) from None
            if name not in self._by_name:
                raise ActionFormatError(f"unknown generator {clip(name)} in word")
        return _reduce(runs)

    @cached_property
    def _index_maps(self) -> tuple[tuple[int, ...], ...]:
        """Each generator's index tuple, then its inverse's."""
        return tuple(f for gen in self.generators for f in (gen._fwd, gen._inv))

    def _word_map(self, word: str) -> tuple[int, ...]:
        """The index tuple of the reduced word's map; e acts as identity."""
        maps = self._index_maps
        slot = {name: 2 * k for k, name in enumerate(self.generator_names)}
        current = tuple(range(len(self.space.points)))
        # the rightmost run acts first: theta_{l1 ... ln} = l1 o ... o ln; a run
        # f^k is applied by repeated squaring, since the powers of f commute
        for name, exp in reversed(self.parse_word(word)):
            f, k = maps[slot[name] + (exp < 0)], abs(exp)
            while k:
                if k & 1:
                    current = tuple(f[v] if v >= 0 else -1 for v in current)
                f, k = tuple(f[v] if v >= 0 else -1 for v in f), k >> 1
        return current

    def element_map(self, word: str) -> PartialHomeo:
        """The partial homeomorphism of the reduced word; e acts as identity."""
        pts = self.space.points
        pairs = tuple((pts[i], pts[j]) for i, j in enumerate(self._word_map(word)) if j >= 0)
        return PartialHomeo(self.space, pairs)

    # -- orbits ----------------------------------------------------------------

    @cached_property
    def _step_succ(self) -> tuple[int, ...]:
        """Per point, the mask of its images under the generators and their inverses."""
        succ = [0] * len(self.space.points)
        for f in self._index_maps:
            for i, j in enumerate(f):
                if j >= 0:
                    succ[i] |= 1 << j
        return tuple(succ)

    @cached_property
    def _orbits(self) -> tuple[int, ...]:
        """Per point, its orbit: the closure of the relation joining x and theta(x)."""
        return closure(self._step_succ)

    def _point(self, x: str) -> int:
        if x not in self.space.index:
            raise ActionFormatError(f"unknown point {clip(x)}")
        return self.space.index[x]

    def orbit(self, x: str) -> frozenset[str]:
        return self.space.unmask(self._orbits[self._point(x)])

    @cached_property
    def _quasi_orbits(self) -> dict[int, int]:
        """Orbit closure -> the points whose orbit has that closure, in the
        canonical order of each class's first point."""
        out: dict[int, int] = {}
        for i, m in enumerate(self._orbits):
            K = union(self.space._up, m)
            out[K] = out.get(K, 0) | 1 << i
        return out

    def quasi_orbit(self, x: str) -> frozenset[str]:
        K = union(self.space._up, self._orbits[self._point(x)])
        return self.space.unmask(self._quasi_orbits[K])

    def quasi_orbit_space(self) -> "QuasiOrbitSpace":
        sp = self.space
        classes = list(self._quasi_orbits.values())
        # label singleton classes by their sole member so that the trivial
        # action reproduces the space on the nose
        members = [[sp.points[i] for i in bits(c)] for c in classes]
        labels = [ps[0] if len(ps) == 1 else "{" + ",".join(ps) + "}" for ps in members]
        key_of = {i: k for k, c in enumerate(classes) for i in bits(c)}
        # the quotient topology is generated by the representative relation;
        # FiniteT0Space closes it and checks antisymmetry
        pairs = frozenset(
            (labels[key_of[i]], labels[key_of[j]])
            for i, up in enumerate(sp._up)
            for j in bits(up)
            if key_of[i] != key_of[j]
        )
        quotient = FiniteT0Space(tuple(labels), pairs)
        return QuasiOrbitSpace(
            space=quotient,
            classes=tuple(sp.unmask(c) for c in classes),
        )

    # -- invariance ------------------------------------------------------------

    def is_invariant(self, S: Iterable[str]) -> bool:
        """Every generator and its inverse map S into S: S is a union of orbits."""
        m = self.space.mask(S)  # names the least unknown point, whatever the hash seed
        return union(self._orbits, m) == m

    def invariant_subsets(self, limit: int = DEFAULT_LIMIT) -> list[frozenset[str]]:
        """Every invariant subset (not only open or closed ones), ordered by
        size, then mask.

        A set is invariant exactly when it is a union of orbits, so these are
        the 2^#orbits unions of the distinct orbits.  The limit bounds the
        number of points, not the number of sets returned.
        """
        n = len(self.space.points)
        if n > limit:
            raise LimitExceededError(n, limit, what="points")
        unions = [(0, frozenset())]  # (mask, set) pairs
        for m in set(self._orbits):
            orbit = self.space.unmask(m)
            unions += [(u | m, S | orbit) for u, S in unions]
        unions.sort(key=lambda uS: (uS[0].bit_count(), uS[0]))
        return [S for _, S in unions]

    @cached_property
    def _closed_invariant_masks(self) -> tuple[int, ...]:
        """Per point, the mask of the smallest closed invariant set containing it:
        everything reachable by specialization and by generator steps."""
        return closure([s | up for s, up in zip(self._step_succ, self.space._up)])

    def is_minimal(self) -> bool:
        """No closed invariant subsets besides the empty set and everything."""
        everything = (1 << len(self.space.points)) - 1
        return all(m == everything for m in self._closed_invariant_masks)

    # -- topological freeness ---------------------------------------------------

    def _fixed_union(self) -> int:
        """Mask of the union of fixed points of theta_w over nontrivial reduced words w.

        theta_w fixes x exactly when the letters of w, applied right to left,
        walk from x back to x with every step defined and no letter followed
        by its inverse.  So the union is read off reachability among
        (point, last letter) states, polynomial in the number of points; the
        generator of Z walks like the one of F1.
        """
        maps, n = self._index_maps, len(self.space.points)
        k = len(maps)  # letters: each generator, then its inverse; j ^ 1 inverts j
        succ = [0] * (n * k)
        for p in range(n):
            for j in range(k):
                for i, f in enumerate(maps):
                    if i != j ^ 1 and f[p] >= 0:  # keep the word reduced and defined
                        succ[p * k + j] |= 1 << (f[p] * k + i)
        reach = closure(succ)
        at = (1 << k) - 1  # the k states at a point, shifted to it
        fixed = 0
        for x in range(n):
            if any(f[x] >= 0 and reach[f[x] * k + i] >> (x * k) & at for i, f in enumerate(maps)):
                fixed |= 1 << x
        return fixed

    def is_topologically_free(self) -> bool:
        return not self.space._interior(self._fixed_union())

    def is_residually_topologically_free(self) -> bool:
        """Topological freeness of the restriction to every closed invariant set.

        It suffices to check the minimal closed invariant set Y of each point:
        every closed invariant set is a union of those, and a fixed open
        patch in the union already sits inside one of them.  Words act on
        the invariant set Y as on the whole space, so the restriction's fixed
        union is the whole action's fixed union inside Y, and it is free
        when no point of that set has its smallest open set within Y inside it.
        """
        fixed, down = self._fixed_union(), self.space._down
        for Y in set(self._closed_invariant_masks):
            inside = fixed & Y
            if any(not down[p] & Y & ~inside for p in bits(inside)):
                return False
        return True


@dataclass(frozen=True)
class QuasiOrbitSpace:
    space: FiniteT0Space
    classes: tuple[frozenset[str], ...]


# -- decompositions ------------------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    """Candidate witness for paradoxicality (split set) or infiniteness."""

    v: frozenset[str]
    parts: tuple[tuple[frozenset[str], str], ...]  # (open set, word)
    split: Optional[int] = None


@dataclass(frozen=True)
class Violation:
    clause: str
    detail: str
    i: Optional[int] = None
    j: Optional[int] = None
    counting: bool = False

    def to_json_obj(self) -> dict:
        obj: dict = {"clause": self.clause, "detail": self.detail}
        if self.i is not None:
            obj["i"] = self.i
        if self.j is not None:
            obj["j"] = self.j
        if self.counting:
            obj["counting"] = True
        return obj


@dataclass(frozen=True)
class WitnessCheck:
    valid: bool
    violation: Optional[Violation] = None


@dataclass(frozen=True)
class FiniteCounting:
    """Counting proof: covers force the images to exhaust V exactly."""

    size: int
    detail: str

    def to_json_obj(self) -> dict:
        return {"kind": "finite_counting", "size": self.size, "detail": self.detail}


@dataclass(frozen=True)
class GInfiniteDecision:
    infinite: bool
    proof: FiniteCounting


def _check_common(
    a: FinitePartialAction, d: Decomposition, covers: Sequence[tuple[slice, str]]
) -> tuple[Optional[Violation], int, list[int]]:
    """The clauses both notions share, in definition order: V open; every part
    open and inside its word's domain (words are read up to the first part
    that fails); each cover (a slice of the parts, with its message) exactly
    V; the images inside V and pairwise disjoint.  Returns the first
    violation, V's mask and the image masks."""
    sp = a.space
    _check_known(sp.index, "decomposition names unknown point", d.v, *(p for p, _ in d.parts))
    v, parts = sp.mask(d.v), [sp.mask(part) for part, _ in d.parts]
    if sp._interior(v) != v:
        return Violation("v_not_open", f"V={sorted(d.v)} is not open"), v, []
    bad, images = None, []
    for i, (part, (_, word)) in enumerate(zip(parts, d.parts)):
        if sp._interior(part) != part:
            bad = Violation("part_not_open", f"V_{i} is not open", i=i)
            break
        f = a._word_map(word)
        if any(f[x] < 0 for x in bits(part)):
            detail = f"V_{i} is not contained in the domain of the word {word!r}"
            bad = Violation("part_outside_domain", detail, i=i)
            break
        images.append(sum(1 << f[x] for x in bits(part)))  # f is injective
    else:
        i = next((i for i, img in enumerate(images) if img & ~v), None)
        if i is not None:
            bad = Violation("image_escapes", f"image of V_{i} leaves V", i=i)
    for family, message in covers:
        if reduce(or_, parts[family], 0) != v:
            return Violation("bad_cover", message), v, images
    if bad is not None:
        return bad, v, images
    for i, j in combinations(range(len(images)), 2):
        if images[i] & images[j]:
            detail = f"images of V_{i} and V_{j} meet"
            return Violation("images_overlap", detail, i=i, j=j), v, images
    return None, v, images


def check_paradoxical_witness(
    a: FinitePartialAction, d: Decomposition
) -> WitnessCheck:
    """Check the double-cover decomposition clauses, in definition order."""
    if d.split is None:
        raise ActionFormatError("paradoxical witness needs a split index")
    if not 0 <= d.split <= len(d.parts):
        raise ActionFormatError("split index out of range")
    if not d.v:
        return WitnessCheck(False, Violation("v_empty", "a nonempty open V is required"))
    covers = [
        (slice(None, d.split), "the first family does not cover V exactly"),
        (slice(d.split, None), "the second family does not cover V exactly"),
    ]
    bad, _, _ = _check_common(a, d, covers)
    if bad is not None and bad.clause == "images_overlap":
        # with both covers intact this clause must fail on a finite space:
        # the two families alone already supply 2|V| image points inside V
        detail = f"; on a finite space the double cover of |V|={len(d.v)} points forces an overlap"
        bad = replace(bad, detail=bad.detail + detail, counting=True)
    return WitnessCheck(bad is None, bad)


def check_infinite_witness(a: FinitePartialAction, d: Decomposition) -> WitnessCheck:
    """Check the proper-shift decomposition clauses, in definition order."""
    if d.split is not None:
        raise ActionFormatError("infiniteness witness takes no split index")
    if not d.parts:
        return WitnessCheck(
            False, Violation("no_parts", "at least one part is required")
        )
    bad, v, images = _check_common(a, d, [(slice(None), "the parts do not cover V exactly")])
    if bad is None:
        closed = union(a.space._up, reduce(or_, images, 0))
        if closed & ~v or closed == v:
            bad = Violation(
                "closure_not_proper",
                f"the closure of the image union is not a proper subset of V; "
                f"injectivity forces the {len(d.v)} covered points to map onto "
                f"all of V",
                counting=True,
            )
    return WitnessCheck(bad is None, bad)


def decide_G_infinite(a: FinitePartialAction, V: Iterable[str]) -> GInfiniteDecision:
    """On a finite carrier no nonempty open set is ever G-infinite."""
    V = frozenset(V)
    _check_known(a.space.index, "unknown point", V)
    if not V:
        raise ValueError("V must be nonempty")
    if not a.space.is_open(V):
        raise ValueError(f"V={clip(sorted(V))} is not open")
    n = len(V)
    detail = (
        f"any cover of V by parts V_i satisfies sum |V_i| >= |V| = {n}; "
        f"injectivity and disjointness of the images inside V force "
        f"sum |theta(V_i)| <= {n}, so the images exhaust V exactly and their "
        f"closure cannot be a proper subset of V"
    )
    return GInfiniteDecision(False, FiniteCounting(n, detail))


# -- parsing ---------------------------------------------------------------------


def _names(x, size: Optional[int] = None) -> bool:
    """x is a list of point names (of the given length), as the schemas require."""
    return isinstance(x, list) and all(isinstance(p, str) for p in x) and size in (None, len(x))


def action_from_json_obj(raw: dict) -> FinitePartialAction:
    if not isinstance(raw, dict):
        raise ActionFormatError("top level: expected a JSON object")
    points = raw.get("points")
    if not _names(points):
        raise ActionFormatError('"points": expected a list of strings')
    for p in points:
        if not p:  # an empty member would print like the empty set
            raise ActionFormatError(f"point {clip(p)}: empty id")
        reserved = [c for c in ",;" if c in p]  # set separators in outputs and --set
        if reserved:
            raise ActionFormatError(f"point {clip(p)}: reserved character {reserved[0]!r} in id")
    spec = raw.get("specialization", [])
    if not isinstance(spec, list):
        raise ActionFormatError('"specialization": expected a list of pairs')
    for k, pq in enumerate(spec):
        if not _names(pq, 2):
            raise ActionFormatError(f"specialization #{k}: expected a pair of point names")
    space = FiniteT0Space.from_pairs(points, spec)
    group = raw.get("group")
    if not isinstance(group, str):
        raise ActionFormatError('"group": expected "Z" or "F<k>"')
    gens_raw = raw.get("generators", [])
    if not isinstance(gens_raw, list):
        raise ActionFormatError('"generators": expected a list')
    names = []
    gens = []
    for k, gx in enumerate(gens_raw):
        where = f"generator #{k}"
        if not isinstance(gx, dict) or "name" not in gx or "map" not in gx:
            raise ActionFormatError(f"{where}: expected name and map")
        if not isinstance(gx["name"], str):
            raise ActionFormatError(f"{where}: name must be a string")
        if not isinstance(gx["map"], list) or not all(_names(xy, 2) for xy in gx["map"]):
            raise ActionFormatError(f"{where}: map must be a list of pairs")
        names.append(gx["name"])
        gens.append(PartialHomeo(space, tuple((x, y) for x, y in gx["map"])))
    return FinitePartialAction(space, group, tuple(names), tuple(gens))


def parse_action(text: str) -> FinitePartialAction:
    return action_from_json_obj(decode_json(text, ActionFormatError))


def decomposition_from_json_obj(raw: dict) -> Decomposition:
    if not isinstance(raw, dict) or "V" not in raw or "parts" not in raw:
        raise ActionFormatError("witness: expected an object with V and parts")
    if not _names(raw["V"]):
        raise ActionFormatError('"V": expected a list of point names')
    if not isinstance(raw["parts"], list):
        raise ActionFormatError('"parts": expected a list')
    parts = []
    for k, part in enumerate(raw["parts"]):
        if not isinstance(part, dict) or "set" not in part or "word" not in part:
            raise ActionFormatError(f"part #{k}: expected set and word")
        if not _names(part["set"]) or not isinstance(part["word"], str):
            raise ActionFormatError(f"part #{k}: set must list point names, word be a string")
        parts.append((frozenset(part["set"]), part["word"]))
    split = raw.get("split")
    if split is not None and not isinstance(split, int):
        raise ActionFormatError('"split": expected an integer or null')
    return Decomposition(frozenset(raw["V"]), tuple(parts), split)


def parse_decomposition(text: str) -> Decomposition:
    return decomposition_from_json_obj(decode_json(text, ActionFormatError))
