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
from functools import reduce
from itertools import combinations, repeat
from operator import or_
from typing import Iterable, Optional, Sequence

from .graphs import DEFAULT_LIMIT, LimitExceededError, decode_json
from .poset import bits, cached_property, check_antisymmetric, clip, closure, record, union

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


def _mask(index: dict, ps: Iterable[str]) -> int:
    """The mask of the named points; a KeyError names an unknown one."""
    m = 0
    for p in ps:
        m |= 1 << index[p]
    return m


def _check_known(index: dict, message: str, *groups: Iterable[str]) -> None:
    """Raise naming the least unknown point of the groups in sorted order: the
    order in which a set iterates depends on the hash seed."""
    if unknown := set().union(*groups) - index.keys():
        raise ActionFormatError(f"{message} {clip(min(unknown))}")


@record
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
            check_antisymmetric(up, self.points.__getitem__)
        except ValueError as exc:
            raise ActionFormatError(f"specialization is {exc}") from None
        # normalize to the full transitive relation so that equality of spaces
        # is equality of topologies, however the input pairs were given
        pts = self.points
        self.__dict__.update(
            closure_pairs=frozenset(
                (pts[i], pts[j]) for i, m in enumerate(up) for j in bits(m & ~(1 << i))
            ),
            index=index,
            _up=up,
        )

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
        ps = iter(ps)
        try:
            return _mask(self.index, ps)
        except KeyError as exc:  # the points before it are known: the rest hold the least unknown
            _check_known(self.index, "unknown point", exc.args, ps)
            raise

    def unmask(self, m: int) -> frozenset[str]:
        return frozenset(self.points[j] for j in bits(m))

    def _interior(self, m: int) -> int:
        """Mask of the interior of m: everything outside the closure of its complement."""
        return m & ~union(self._up, ((1 << len(self.points)) - 1) & ~m)

    def is_open(self, S: Iterable[str]) -> bool:
        m = self.mask(S)
        return self._interior(m) == m


@record
class PartialHomeo:
    """An order isomorphism between two open subsets of a finite T0 space.

    The map lives on the instance as two index tuples over the space's
    points: ``_fwd`` (theta) and ``_inv`` (its inverse).  It is built one of
    two ways: the constructor validates input pairs and derives the tuples;
    ``FinitePartialAction.element_map`` composes validated generators and
    fills in the record from the composite's tuple without re-checking it.
    """

    space: FiniteT0Space
    pairs: tuple[tuple[str, str], ...]  # (x, theta(x)), sorted canonically

    def __post_init__(self):
        sp = self.space
        index, pts = sp.index, sp.points
        fwd, inv, order = [-1] * len(pts), [-1] * len(pts), []
        repeated = clash = False
        dom = img = 0
        try:
            for x, y in self.pairs:
                i, j = index[x], index[y]
                repeated |= fwd[i] >= 0
                clash |= inv[j] >= 0
                fwd[i], inv[j] = j, i
                dom, img = dom | 1 << i, img | 1 << j
                order.append(i)
        except KeyError:  # name the first unknown domain point, then image point
            for x in [x for x, _ in self.pairs] + [y for _, y in self.pairs]:
                if x not in index:
                    raise ActionFormatError(f"map names unknown point {clip(x)}") from None
            raise
        if repeated:
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
        self.__dict__.update(pairs=pairs, _fwd=tuple(fwd), _inv=tuple(inv))

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(x for x, _ in self.pairs)

    @property
    def image(self) -> frozenset[str]:
        return frozenset(y for _, y in self.pairs)


# the word grammar's integers are ASCII: "\u0661" is a name, as "x" is
_INT_RE = re.compile(r"-?[0-9]+")  # an integer token of the word grammar
_POWER_RE = re.compile(r"(.+?)\^(-?[0-9]+)")  # a generator to an integer power


@record
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
            m = re.fullmatch(r"F([0-9]+)", self.group)
            if not m:
                raise ActionFormatError(
                    f"unsupported group {clip(self.group)}: use \"Z\" or \"F<k>\" "
                    f"(higher-rank integer lattices admit no canonical generated action)"
                )
            rank = int(m.group(1))
        if len(self.generators) != rank:
            raise ActionFormatError(
                f"group {clip(self.group)} needs {rank} generator(s), got {len(self.generators)}"
            )
        if len(set(self.generator_names)) != len(self.generator_names):
            raise ActionFormatError("generator names repeat")
        for name in self.generator_names:
            # a word could not name it: e, separators, powers and integer tokens
            if (
                not name
                or name == "e"
                or any(c.isspace() or c in "^*·" for c in name)
                or _INT_RE.fullmatch(name)
            ):
                raise ActionFormatError(f"bad generator name {clip(name)}")
        for gen in self.generators:
            if gen.space != self.space:
                raise ActionFormatError("generator lives on a different space")

    @cached_property
    def _by_name(self) -> dict[str, PartialHomeo]:
        return dict(zip(self.generator_names, self.generators))

    @cached_property
    def _letters(self) -> dict[str, Letter]:
        """The tokens g and g^-1 of each generator g, as runs: exact, since no
        name is e, an integer token, or holds "^", whitespace or a separator."""
        return {t: (g, e) for g in self.generator_names for t, e in ((g, 1), (g + "^-1", -1))}

    # -- words ---------------------------------------------------------------

    def parse_word(self, word: str) -> tuple[Letter, ...]:
        """Parse a word of the text grammar (docs/FORMATS.md) into freely
        reduced (generator, exponent) runs, expanding no exponent."""
        runs: list[Letter] = []
        letters = self._letters
        for tok in word.replace("·", " ").replace("*", " ").split():
            if tok in letters:
                runs.append(letters[tok])
                continue
            if tok == "e":
                continue
            m = _POWER_RE.fullmatch(tok)
            if m:
                name, exp = m.group(1), m.group(2)
            elif _INT_RE.fullmatch(tok):
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

    @cached_property
    def _word_maps(self) -> dict[str, tuple[int, ...]]:
        """Word text -> its index tuple, filled by _word_map."""
        return {}

    def _word_map(self, word: str) -> tuple[int, ...]:
        """The index tuple of the reduced word's map; e acts as identity.
        Computed once per word text; a word that raises is not kept, so it
        raises again."""
        memo = self._word_maps
        if word in memo:
            return memo[word]
        by_name = self._by_name
        current = tuple(range(len(self.space.points)))
        # the rightmost run acts first: theta_{l1 ... ln} = l1 o ... o ln; a run
        # f^k is applied by repeated squaring, since the powers of f commute
        for name, exp in reversed(self.parse_word(word)):
            gen, k = by_name[name], abs(exp)
            f = gen._inv if exp < 0 else gen._fwd
            while True:
                if k & 1:
                    current = tuple(f[v] if v >= 0 else -1 for v in current)
                k >>= 1
                if not k:  # no bit left: the next square would go unused
                    break
                f = tuple(f[v] if v >= 0 else -1 for v in f)
        memo[word] = current
        return current

    def element_map(self, word: str) -> PartialHomeo:
        """The partial homeomorphism of the reduced word; e acts as identity.

        Built from the composite's index tuple without the constructor's
        checks, which it passes by construction: every letter is a validated
        order isomorphism between open sets, a restriction of one to an open
        part of its domain is one onto an open part of its image, and the
        composite on its natural domain chains such restrictions."""
        sp = self.space
        pts, fwd = sp.points, self._word_map(word)
        inv = [-1] * len(fwd)
        for i, j in enumerate(fwd):
            if j >= 0:
                inv[j] = i
        h = PartialHomeo.__new__(PartialHomeo)
        h.__dict__.update(
            space=sp,
            pairs=tuple((pts[i], pts[j]) for i, j in enumerate(fwd) if j >= 0),
            _fwd=fwd,
            _inv=tuple(inv),
        )
        return h

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
        """Per point, its orbit: the connected component of x in the relation
        joining x and theta(x), which _step_succ holds both ways.  One search
        per orbit, a frontier at a time, so the cost is linear in the points
        times the generators."""
        succ = self._step_succ
        out = [0] * len(succ)
        for i in range(len(succ)):
            if not out[i]:
                m = new = 1 << i
                while new:
                    new = union(succ, new) & ~m
                    m |= new
                for j in bits(m):
                    out[j] = m
        return tuple(out)

    @cached_property
    def _orbit_sets(self) -> dict[int, frozenset[str]]:
        """Each distinct orbit's mask -> its points, in the order of first points."""
        return {m: self.space.unmask(m) for m in dict.fromkeys(self._orbits)}

    def _point(self, x: str) -> int:
        if x not in self.space.index:
            raise ActionFormatError(f"unknown point {clip(x)}")
        return self.space.index[x]

    def orbit(self, x: str) -> frozenset[str]:
        return self._orbit_sets[self._orbits[self._point(x)]]

    def quasi_orbit(self, x: str) -> frozenset[str]:
        """The points whose orbit has the closure of x's, which is x's orbit: if
        theta_w(x) = y, theta_w maps U_x onto U_y (smallest open sets), so |U_x| =
        |U_y| and no two points of one orbit are comparable; equal closures would
        give x >= y >= x' with x, x' in one orbit, so x = y."""
        return self._orbit_sets[self._orbits[self._point(x)]]

    def quasi_orbit_space(self) -> "QuasiOrbitSpace":
        """The quotient by the quasi-orbits, which are the orbits."""
        sp, orbits = self.space, self._orbits
        # label singleton classes by their sole member so that the trivial
        # action reproduces the space on the nose
        members = {m: [sp.points[i] for i in bits(m)] for m in self._orbit_sets}
        label = {m: p[0] if len(p) == 1 else "{" + ",".join(p) + "}" for m, p in members.items()}
        # the quotient topology is generated by the representative relation;
        # FiniteT0Space closes it and checks antisymmetry
        pairs = frozenset(
            (label[orbits[i]], label[orbits[j]])
            for i, up in enumerate(sp._up)
            for j in bits(up)
            if orbits[i] != orbits[j]
        )
        quotient = FiniteT0Space(tuple(label.values()), pairs)
        return QuasiOrbitSpace(space=quotient, classes=tuple(self._orbit_sets.values()))

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
        unions = {0: frozenset()}  # mask -> set
        for m, orbit in self._orbit_sets.items():
            unions.update([(u | m, S | orbit) for u, S in unions.items()])
        masks = sorted(unions)
        masks.sort(key=int.bit_count)  # stable: by size, then mask
        return [unions[u] for u in masks]

    def is_minimal(self) -> bool:
        """No closed invariant subsets besides the empty set and everything:
        at most one orbit.  The closure of an orbit is invariant, since domains
        are down-sets, and it holds no other orbit, as quasi_orbit shows."""
        return len(self._orbit_sets) <= 1

    # -- topological freeness ---------------------------------------------------

    @cached_property
    def _fixed_union(self) -> int:
        """Mask of the union of fixed points of theta_w over nontrivial reduced words w.

        Join x to theta(x) by one edge for each generator and each point x of
        its domain.  theta_w fixes x exactly when w spells a closed walk at x
        that never turns back along the edge it came by, and such a walk
        exists exactly when the orbit of x, which is connected, holds a
        cycle: at least as many edges as points, a loop or two parallel
        edges included.  Past the orbits this costs one pass over each
        generator's domain; the generator of Z counts like the one of F1.
        """
        doms = [sum(1 << i for i, j in enumerate(gen._fwd) if j >= 0) for gen in self.generators]
        return sum(
            m for m in self._orbit_sets if sum((d & m).bit_count() for d in doms) >= m.bit_count()
        )

    def is_topologically_free(self) -> bool:
        """No point is fixed by a nontrivial reduced word: if theta_w fixes x, it
        permutes x's smallest open set, so a power of w fixes an open point."""
        return not self._fixed_union

    def is_residually_topologically_free(self) -> bool:
        """Freeness on every closed invariant Y, which is freeness: the restriction
        to Y keeps whole orbits, so its fixed union is the fixed union inside Y."""
        return self.is_topologically_free()


@record
class QuasiOrbitSpace:
    """The quotient space of quasi-orbits, with the points each class holds."""

    space: FiniteT0Space
    classes: tuple[frozenset[str], ...]


# -- decompositions ------------------------------------------------------------


@record
class Decomposition:
    """Candidate witness for paradoxicality (split set) or infiniteness."""

    v: frozenset[str]
    parts: tuple[tuple[frozenset[str], str], ...]  # (open set, word)
    split: Optional[int] = None


@record
class Violation:
    """The first clause a witness breaks, with the parts (i, j) involved."""

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


@record
class WitnessCheck:
    """Whether a witness holds, and otherwise the clause it breaks."""

    valid: bool
    violation: Optional[Violation] = None


@record
class FiniteCounting:
    """Counting proof: covers force the images to exhaust V exactly."""

    size: int
    detail: str

    def to_json_obj(self) -> dict:
        return {"kind": "finite_counting", "size": self.size, "detail": self.detail}


@record
class GInfiniteDecision:
    """Whether an open set is G-infinite, and the proof of the answer."""

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
    sp, index = a.space, a.space.index
    try:
        v, parts = _mask(index, d.v), [_mask(index, part) for part, _ in d.parts]
    except KeyError:  # name the least unknown point, whatever the hash seed
        _check_known(index, "decomposition names unknown point", d.v, *(p for p, _ in d.parts))
        raise
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
        bad = Violation(bad.clause, bad.detail + detail, bad.i, bad.j, True)
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
    return isinstance(x, list) and all(map(isinstance, x, repeat(str))) and size in (None, len(x))


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
    if split is not None and (isinstance(split, bool) or not isinstance(split, int)):
        raise ActionFormatError('"split": expected an integer or null')
    return Decomposition(frozenset(raw["V"]), tuple(parts), split)


def parse_decomposition(text: str) -> Decomposition:
    return decomposition_from_json_obj(decode_json(text, ActionFormatError))
