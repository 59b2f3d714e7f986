"""Finite models of partial dynamical systems on T0 spaces.

A finite T0 space is a partial order: ``q >> p`` (written q above p here)
means q lies in the closure of {p}.  Open sets are exactly the down-sets of
that order, closed sets the up-sets, and interior(S) is the largest down-set
inside S.  This convention is fixed here once and used everywhere.

Actions are generated: the generators of a free group (or the single
generator for the integers) are partial homeomorphisms, i.e. order
isomorphisms between open sets, and a word acts by composing the letters of
its reduced form on the natural maximal domain.  Rank-two and higher integer
lattices are rejected: the generating data does not determine a canonical
action for them.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from .graphs import DEFAULT_LIMIT, LimitExceededError
from .poset import bits, check_antisymmetric, closure

Letter = tuple[str, int]  # (generator name, +1 or -1)
Word = Union[str, int, Sequence[Letter]]


class ActionFormatError(ValueError):
    """Raised when action or witness input violates the format."""


@dataclass(frozen=True)
class FiniteT0Space:
    """A finite T0 topological space, encoded by its specialization order."""

    points: tuple[str, ...]
    closure_pairs: frozenset[tuple[str, str]]  # (p, q) with q in closure{p}

    def __post_init__(self):
        index = {}
        for i, p in enumerate(self.points):
            if p in index:
                raise ActionFormatError(f"point {p!r}: duplicate id")
            index[p] = i
        succ = [0] * len(self.points)
        for p, q in self.closure_pairs:
            for x in (p, q):
                if x not in index:
                    raise ActionFormatError(f"specialization pair names unknown point {x!r}")
            succ[index[p]] |= 1 << index[q]
        # reflexive-transitive closure, then antisymmetry = T0
        up = closure(succ)
        try:
            check_antisymmetric(up, self.points)
        except ValueError as exc:
            raise ActionFormatError(f"specialization is {exc}") from None
        above = {p: frozenset(self.points[j] for j in bits(m)) for p, m in zip(self.points, up)}
        # normalize to the full transitive relation so that equality of spaces
        # is equality of topologies, however the input pairs were given
        object.__setattr__(
            self,
            "closure_pairs",
            frozenset((p, q) for p in self.points for q in above[p] if q != p),
        )
        object.__setattr__(self, "_above", above)

    @classmethod
    def from_pairs(
        cls, points: Iterable[str], pairs: Iterable[tuple[str, str]] = ()
    ) -> "FiniteT0Space":
        return cls(tuple(points), frozenset((p, q) for p, q in pairs))

    @classmethod
    def discrete(cls, points: Iterable[str]) -> "FiniteT0Space":
        return cls.from_pairs(points)

    @cached_property
    def index(self) -> dict[str, int]:
        return {p: i for i, p in enumerate(self.points)}

    def sort_set(self, ps: Iterable[str]) -> tuple[str, ...]:
        return tuple(sorted(ps, key=self.index.__getitem__))

    def above(self, p: str) -> frozenset[str]:
        """closure{p}: every point specializing to p."""
        return self._above[p]

    @cached_property
    def _below(self) -> dict[str, frozenset[str]]:
        out = {p: set() for p in self.points}
        for p in self.points:
            for q in self._above[p]:
                out[q].add(p)
        return {p: frozenset(s) for p, s in out.items()}

    def below(self, p: str) -> frozenset[str]:
        """The smallest open set containing p."""
        return self._below[p]

    def closure(self, S: Iterable[str]) -> frozenset[str]:
        out: set[str] = set()
        for p in S:
            out |= self._above[p]
        return frozenset(out)

    def interior(self, S: Iterable[str]) -> frozenset[str]:
        S = frozenset(S)
        return frozenset(p for p in S if self._below[p] <= S)

    def is_open(self, S: Iterable[str]) -> bool:
        S = frozenset(S)
        return all(self._below[p] <= S for p in S)

    def is_closed(self, S: Iterable[str]) -> bool:
        S = frozenset(S)
        return self.closure(S) == S

    def open_sets(self) -> list[frozenset[str]]:
        """All open sets, ordered by (size, canonical mask).  Exponential."""
        subsets = (
            frozenset(p for i, p in enumerate(self.points) if m >> i & 1)
            for m in range(1 << len(self.points))
        )
        return sorted((S for S in subsets if self.is_open(S)), key=self.set_key)

    def subspace(self, S: Iterable[str]) -> "FiniteT0Space":
        S = frozenset(S)
        return FiniteT0Space(
            tuple(p for p in self.points if p in S),
            frozenset((p, q) for p, q in self.closure_pairs if p in S and q in S),
        )

    def set_key(self, S: Iterable[str]):
        mask = sum(1 << self.index[p] for p in S)
        return (bin(mask).count("1"), mask)


@dataclass(frozen=True)
class PartialHomeo:
    """An order isomorphism between two open subsets of a finite T0 space."""

    space: FiniteT0Space
    pairs: tuple[tuple[str, str], ...]  # (x, theta(x)), sorted canonically

    def __post_init__(self):
        sp = self.space
        dom = [x for x, _ in self.pairs]
        img = [y for _, y in self.pairs]
        for x in dom + img:
            if x not in sp.index:
                raise ActionFormatError(f"map names unknown point {x!r}")
        if len(set(dom)) != len(dom):
            raise ActionFormatError("map domain repeats a point")
        if len(set(img)) != len(img):
            raise ActionFormatError("map is not injective")
        object.__setattr__(
            self, "pairs", tuple(sorted(self.pairs, key=lambda xy: sp.index[xy[0]]))
        )
        if not sp.is_open(frozenset(dom)):
            raise ActionFormatError(f"map domain is not open: {sorted(dom)}")
        if not sp.is_open(frozenset(img)):
            raise ActionFormatError(f"map image is not open: {sorted(img)}")
        m = dict(self.pairs)
        for x in dom:
            for y in dom:
                if (m[y] in sp.above(m[x])) != (y in sp.above(x)):
                    raise ActionFormatError(
                        f"map is not an order isomorphism at {x!r}, {y!r}"
                    )

    @classmethod
    def from_dict(cls, space: FiniteT0Space, mapping: dict) -> "PartialHomeo":
        return cls(space, tuple(mapping.items()))

    @classmethod
    def identity(cls, space: FiniteT0Space, domain: Optional[Iterable[str]] = None):
        dom = space.points if domain is None else space.sort_set(domain)
        return cls(space, tuple((x, x) for x in dom))

    @cached_property
    def mapping(self) -> dict[str, str]:
        return dict(self.pairs)

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(x for x, _ in self.pairs)

    @property
    def image(self) -> frozenset[str]:
        return frozenset(y for _, y in self.pairs)

    def __call__(self, x: str) -> str:
        return self.mapping[x]

    def apply_set(self, S: Iterable[str]) -> frozenset[str]:
        return frozenset(self.mapping[x] for x in S if x in self.mapping)

    def inverse(self) -> "PartialHomeo":
        return PartialHomeo(self.space, tuple((y, x) for x, y in self.pairs))

    def compose(self, other: "PartialHomeo") -> "PartialHomeo":
        """self after other, on the maximal natural domain."""
        pairs = []
        for x, y in other.pairs:
            if y in self.mapping:
                pairs.append((x, self.mapping[y]))
        return PartialHomeo(self.space, tuple(pairs))

    def fixed_points(self) -> frozenset[str]:
        return frozenset(x for x, y in self.pairs if x == y)

    def restrict(self, S: Iterable[str], space: Optional[FiniteT0Space] = None):
        """Restriction to an invariant set S, as a map on the subspace."""
        S = frozenset(S)
        sub = space if space is not None else self.space.subspace(S)
        pairs = tuple((x, y) for x, y in self.pairs if x in S)
        for x, y in pairs:
            assert y in S, "restriction target escapes the invariant set"
        return PartialHomeo(sub, pairs)


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
                    f"unsupported group {self.group!r}: use \"Z\" or \"F<k>\" "
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
            if not name or name == "e" or any(c.isspace() for c in name):
                raise ActionFormatError(f"bad generator name {name!r}")
        for gen in self.generators:
            if gen.space != self.space:
                raise ActionFormatError("generator lives on a different space")

    @cached_property
    def _by_name(self) -> dict[str, PartialHomeo]:
        return dict(zip(self.generator_names, self.generators))

    # -- words ---------------------------------------------------------------

    def parse_word(self, word: Word) -> tuple[Letter, ...]:
        """Parse into letters; accepts token strings and, for Z, integers."""
        if isinstance(word, int):
            if self.group != "Z" and word != 0:
                raise ActionFormatError("integer words are only defined over Z")
            if word == 0:
                return ()
            name = self.generator_names[0]
            sign = 1 if word > 0 else -1
            return tuple((name, sign) for _ in range(abs(word)))
        if isinstance(word, str):
            letters: list[Letter] = []
            tokens = word.replace("·", " ").replace("*", " ").split()
            for tok in tokens:
                if tok == "e":
                    continue
                m = re.fullmatch(r"(.+?)\^(-?\d+)", tok)
                if m:
                    name, exp = m.group(1), int(m.group(2))
                elif re.fullmatch(r"-?\d+", tok):
                    if self.group != "Z":
                        raise ActionFormatError(
                            f"bare integer token {tok!r} is only defined over Z"
                        )
                    name, exp = self.generator_names[0], int(tok)
                else:
                    name, exp = tok, 1
                if name not in self._by_name:
                    raise ActionFormatError(f"unknown generator {name!r} in word")
                sign = 1 if exp > 0 else -1
                letters.extend((name, sign) for _ in range(abs(exp)))
            return tuple(letters)
        letters = []
        for name, exp in word:
            if name not in self._by_name:
                raise ActionFormatError(f"unknown generator {name!r} in word")
            if exp not in (1, -1):
                raise ActionFormatError("explicit letters need exponent +1 or -1")
            letters.append((name, exp))
        return tuple(letters)

    def reduce_word(self, letters: Sequence[Letter]) -> tuple[Letter, ...]:
        if self.group == "Z":
            total = sum(exp for _, exp in letters)
            name = self.generator_names[0] if self.generator_names else None
            sign = 1 if total > 0 else -1
            return tuple((name, sign) for _ in range(abs(total)))
        out: list[Letter] = []
        for letter in letters:
            if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

    def letter_map(self, letter: Letter) -> PartialHomeo:
        gen = self._by_name[letter[0]]
        return gen if letter[1] == 1 else gen.inverse()

    def element_map(self, word: Word) -> PartialHomeo:
        """The partial homeomorphism of the reduced word; e acts as identity."""
        letters = self.reduce_word(self.parse_word(word))
        if not letters:
            return PartialHomeo.identity(self.space)
        # the rightmost letter acts first: theta_{l1 ... ln} = l1 o ... o ln
        maps = [self.letter_map(letter) for letter in letters]
        current = maps[-1]
        for m in reversed(maps[:-1]):
            current = m.compose(current)
        return current

    # -- orbits ----------------------------------------------------------------

    def _steps(self) -> list[PartialHomeo]:
        out = []
        for gen in self.generators:
            out.append(gen)
            out.append(gen.inverse())
        return out

    def orbit(self, x: str) -> frozenset[str]:
        if x not in self.space.index:
            raise ActionFormatError(f"unknown point {x!r}")
        return self._orbits[x]

    @cached_property
    def _orbits(self) -> dict[str, frozenset[str]]:
        """Orbits: the closure of the relation joining x and theta(x) for each generator."""
        pts, index = self.space.points, self.space.index
        succ = [0] * len(pts)
        for gen in self.generators:
            for x, y in gen.pairs:
                succ[index[x]] |= 1 << index[y]
                succ[index[y]] |= 1 << index[x]
        return {p: frozenset(pts[j] for j in bits(m)) for p, m in zip(pts, closure(succ))}

    @cached_property
    def _quasi_orbits(self) -> dict[frozenset[str], tuple[str, ...]]:
        """Points grouped by the closure of their orbit, in canonical order."""
        out: dict[frozenset[str], list[str]] = {}
        for p in self.space.points:
            out.setdefault(self.space.closure(self._orbits[p]), []).append(p)
        return {K: tuple(members) for K, members in out.items()}

    def quasi_orbit(self, x: str) -> frozenset[str]:
        if x not in self.space.index:
            raise ActionFormatError(f"unknown point {x!r}")
        return frozenset(self._quasi_orbits[self.space.closure(self._orbits[x])])

    def quasi_orbit_space(self) -> "QuasiOrbitSpace":
        sp = self.space
        classes = list(self._quasi_orbits.values())
        # label singleton classes by their sole member so that the trivial
        # action reproduces the space on the nose
        labels = [
            members[0] if len(members) == 1 else "{" + ",".join(members) + "}"
            for members in classes
        ]
        key_of = {q: i for i, members in enumerate(classes) for q in members}
        # the quotient topology is generated by the representative relation;
        # FiniteT0Space closes it and checks antisymmetry
        pairs = frozenset(
            (labels[key_of[p]], labels[key_of[q]])
            for p in sp.points
            for q in sp.above(p)
            if key_of[p] != key_of[q]
        )
        quotient = FiniteT0Space(tuple(labels), pairs)
        return QuasiOrbitSpace(
            space=quotient,
            classes=tuple(frozenset(c) for c in classes),
            class_of={p: labels[key_of[p]] for p in sp.points},
            closures=tuple(self._quasi_orbits),
        )

    # -- invariance ------------------------------------------------------------

    def is_invariant(self, S: Iterable[str]) -> bool:
        S = frozenset(S)
        for s in self._steps():
            if not s.apply_set(S & s.domain) <= S:
                return False
        return True

    def invariant_subsets(self, limit: int = DEFAULT_LIMIT) -> list[frozenset[str]]:
        """Every invariant subset (not only open or closed ones)."""
        n = len(self.space.points)
        if n > limit:
            raise LimitExceededError(n, limit, what="points")
        out = []
        for m in range(1 << n):
            S = frozenset(self.space.points[i] for i in range(n) if m >> i & 1)
            if self.is_invariant(S):
                out.append(S)
        out.sort(key=self.space.set_key)
        return out

    def minimal_closed_invariant_containing(self, x: str) -> frozenset[str]:
        S = {x}
        steps = self._steps()
        while True:
            before = len(S)
            S |= self.space.closure(S)
            for s in steps:
                S |= s.apply_set(S & s.domain)
            if len(S) == before:
                return frozenset(S)

    def is_minimal(self) -> bool:
        """No closed invariant subsets besides the empty set and everything."""
        everything = frozenset(self.space.points)
        if not everything:
            return True
        return all(
            self.minimal_closed_invariant_containing(x) == everything
            for x in self.space.points
        )

    # -- topological freeness ---------------------------------------------------

    def _fixed_union(self) -> frozenset[str]:
        """Union of fixed points of theta_w over nontrivial realized words."""
        if not self.generators:
            return frozenset()
        if self.group == "Z":
            # theta_n fixes exactly the points on cycles of the generator map
            theta = self.generators[0].mapping
            fixed: set[str] = set()
            for x in self.space.points:
                cur = x
                for _ in range(len(self.space.points)):
                    cur = theta.get(cur)
                    if cur is None:
                        break
                    if cur == x:
                        fixed.add(x)
                        break
            return frozenset(fixed)
        # free group: BFS over (map, leading letter) states of reduced words
        letters: list[Letter] = []
        for name in self.generator_names:
            letters.append((name, 1))
            letters.append((name, -1))
        fixed = set()
        seen_states = set()
        frontier: list[tuple[PartialHomeo, Letter]] = []
        for letter in letters:
            m = self.letter_map(letter)
            if m.pairs:
                state = (m.pairs, letter)
                seen_states.add(state)
                frontier.append((m, letter))
                fixed |= m.fixed_points()
        while frontier:
            nxt = []
            for m, head in frontier:
                for letter in letters:
                    if letter == (head[0], -head[1]):
                        continue  # keep the word reduced
                    composed = self.letter_map(letter).compose(m)
                    if not composed.pairs:
                        continue
                    state = (composed.pairs, letter)
                    if state in seen_states:
                        continue
                    seen_states.add(state)
                    fixed |= composed.fixed_points()
                    nxt.append((composed, letter))
            frontier = nxt
        return frozenset(fixed)

    def is_topologically_free(self) -> bool:
        return not self.space.interior(self._fixed_union())

    def restrict(self, S: Iterable[str]) -> "FinitePartialAction":
        """Restriction to an invariant set, as an action on the subspace."""
        S = frozenset(S)
        assert self.is_invariant(S)
        sub = self.space.subspace(S)
        gens = tuple(g.restrict(S, sub) for g in self.generators)
        return FinitePartialAction(sub, self.group, self.generator_names, gens)

    def is_residually_topologically_free(self) -> bool:
        """Topological freeness of the restriction to every closed invariant set.

        It suffices to check the minimal closed invariant set of each point:
        every closed invariant set is a union of those, and a fixed open
        patch in the union already sits inside one of them.
        """
        for x in self.space.points:
            Y = self.minimal_closed_invariant_containing(x)
            if not self.restrict(Y).is_topologically_free():
                return False
        return True


@dataclass(frozen=True)
class QuasiOrbitSpace:
    space: FiniteT0Space
    classes: tuple[frozenset[str], ...]
    class_of: dict[str, str]
    closures: tuple[frozenset[str], ...]


def trivial_action(space: FiniteT0Space) -> FinitePartialAction:
    """The action of the trivial group: only the identity acts."""
    return FinitePartialAction(space, "F0", (), ())


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
    a: FinitePartialAction, d: Decomposition
) -> tuple[Optional[Violation], list[frozenset[str]]]:
    """Clauses shared by both notions; returns images when all of them hold."""
    sp = a.space
    for S in [d.v] + [part for part, _ in d.parts]:
        for p in S:
            if p not in sp.index:
                raise ActionFormatError(f"decomposition names unknown point {p!r}")
    if not sp.is_open(d.v):
        return Violation("v_not_open", f"V={sorted(d.v)} is not open"), []
    images = []
    for i, (part, word) in enumerate(d.parts):
        if not sp.is_open(part):
            return Violation("part_not_open", f"V_{i} is not open", i=i), []
        theta = a.element_map(word)
        if not part <= theta.domain:
            return (
                Violation(
                    "part_outside_domain",
                    f"V_{i} is not contained in the domain of the word {word!r}",
                    i=i,
                ),
                [],
            )
        images.append(theta.apply_set(part))
    for i, img in enumerate(images):
        if not img <= d.v:
            return Violation("image_escapes", f"image of V_{i} leaves V", i=i), []
    return None, images


def _disjointness(images: list[frozenset[str]]) -> Optional[Violation]:
    for i in range(len(images)):
        for j in range(i + 1, len(images)):
            if images[i] & images[j]:
                return Violation(
                    "images_overlap",
                    f"images of V_{i} and V_{j} meet",
                    i=i,
                    j=j,
                )
    return None


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
    bad, images = _check_common(a, d)
    if bad is not None and bad.clause == "v_not_open":
        return WitnessCheck(False, bad)
    first = [part for part, _ in d.parts[: d.split]]
    second = [part for part, _ in d.parts[d.split :]]
    union_first = frozenset().union(*first) if first else frozenset()
    union_second = frozenset().union(*second) if second else frozenset()
    if union_first != d.v:
        return WitnessCheck(
            False, Violation("bad_cover", "the first family does not cover V exactly")
        )
    if union_second != d.v:
        return WitnessCheck(
            False, Violation("bad_cover", "the second family does not cover V exactly")
        )
    if bad is not None:
        return WitnessCheck(False, bad)
    overlap = _disjointness(images)
    if overlap is not None:
        # with both covers intact this clause must fail on a finite space:
        # the two families alone already supply 2|V| image points inside V
        return WitnessCheck(
            False,
            Violation(
                overlap.clause,
                overlap.detail
                + f"; on a finite space the double cover of |V|={len(d.v)} points "
                f"forces an overlap",
                i=overlap.i,
                j=overlap.j,
                counting=True,
            ),
        )
    return WitnessCheck(True)


def check_infinite_witness(a: FinitePartialAction, d: Decomposition) -> WitnessCheck:
    """Check the proper-shift decomposition clauses, in definition order."""
    if d.split is not None:
        raise ActionFormatError("infiniteness witness takes no split index")
    if not d.parts:
        return WitnessCheck(
            False, Violation("no_parts", "at least one part is required")
        )
    bad, images = _check_common(a, d)
    if bad is not None and bad.clause == "v_not_open":
        return WitnessCheck(False, bad)
    union_parts = frozenset().union(*(part for part, _ in d.parts))
    if union_parts != d.v:
        return WitnessCheck(
            False, Violation("bad_cover", "the parts do not cover V exactly")
        )
    if bad is not None:
        return WitnessCheck(False, bad)
    overlap = _disjointness(images)
    if overlap is not None:
        return WitnessCheck(False, overlap)
    image_union = frozenset().union(*images) if images else frozenset()
    closed = a.space.closure(image_union)
    if not (closed <= d.v and closed != d.v):
        return WitnessCheck(
            False,
            Violation(
                "closure_not_proper",
                f"the closure of the image union is not a proper subset of V; "
                f"injectivity forces the {len(d.v)} covered points to map onto "
                f"all of V",
                counting=True,
            ),
        )
    return WitnessCheck(True)


def decide_G_infinite(a: FinitePartialAction, V: Iterable[str]) -> GInfiniteDecision:
    """On a finite carrier no nonempty open set is ever G-infinite."""
    V = frozenset(V)
    for p in V:
        if p not in a.space.index:
            raise ActionFormatError(f"unknown point {p!r}")
    if not V:
        raise ValueError("V must be nonempty")
    if not a.space.is_open(V):
        raise ValueError(f"V={sorted(V)} is not open")
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
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ActionFormatError(f"line {exc.lineno}: invalid JSON: {exc.msg}") from None
    return action_from_json_obj(raw)


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
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ActionFormatError(f"line {exc.lineno}: invalid JSON: {exc.msg}") from None
    return decomposition_from_json_obj(raw)
