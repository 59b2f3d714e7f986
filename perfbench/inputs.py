"""Seeded input generators for the benchmark workloads.

Every generator returns plain JSON text (graphs, partial actions, witness
decompositions) built with the standard library only, so the program under
test receives nothing but its documented input formats, and no generator
depends on graphck or on the test suite.  The same seed always yields the
same inputs.
"""

from __future__ import annotations

import json
import random

# -- survey: random multigraphs -------------------------------------------------

# Multiplicity pool of the random survey (scripts/random_survey.py): 1 is
# three times as likely as 2, 3 or omega.
SURVEY_MULTS = (1, 1, 1, 2, 3, "omega")
SURVEY_MAX_N = 8

# Graphs per survey pass, by (bit length of the admissible-pair count,
# vertex count).  The pair count sets the number of quotients an item builds,
# so it dominates the item's cost; fixing how many graphs of each cell a pass
# holds keeps the pass cost from swinging with the seed while the seed still
# draws every graph.  Each quota is the cell's expected share of 600 draws,
# measured on 40,000 draws of the survey distribution (seed 2024) and rounded
# by largest remainder.
SURVEY_QUOTAS = {
    (2, 1): 74, (2, 2): 43, (2, 3): 26, (2, 4): 16, (2, 5): 11, (2, 6): 7,
    (2, 7): 5, (2, 8): 4, (3, 2): 31, (3, 3): 32, (3, 4): 27, (3, 5): 23,
    (3, 6): 18, (3, 7): 15, (3, 8): 12, (4, 3): 16, (4, 4): 19, (4, 5): 20,
    (4, 6): 20, (4, 7): 18, (4, 8): 16, (5, 4): 12, (5, 5): 14, (5, 6): 14,
    (5, 7): 14, (5, 8): 13, (6, 5): 8, (6, 6): 10, (6, 7): 11, (6, 8): 12,
    (7, 6): 7, (7, 7): 7, (7, 8): 8, (8, 7): 6, (8, 8): 6, (9, 8): 5,
}


def random_survey_graph(rng: random.Random) -> dict:
    """One draw of the survey distribution, as a graph JSON object.

    The draw order (vertex count, edge count, then source, range and
    multiplicity of each edge) matches scripts/random_survey.py, so equal
    random states give equal graphs.
    """
    n = rng.randint(1, SURVEY_MAX_N)
    vertices = [f"v{i}" for i in range(n)]
    m = rng.randint(0, 2 * n)
    edges = [
        {
            "id": f"e{k}",
            "src": rng.choice(vertices),
            "rng": rng.choice(vertices),
            "mult": rng.choice(SURVEY_MULTS),
        }
        for k in range(m)
    ]
    return {"vertices": vertices, "edges": edges}


def admissible_pair_count(graph: dict) -> int:
    """Number of admissible pairs (H, B), straight from the definitions.

    H runs over the vertex sets closed under predecessors that contain every
    vertex of finite nonzero in-degree whose in-edges all start in H; B over
    the subsets of the infinite receivers outside H fed finitely, and at
    least once, from outside H.
    """
    index = {v: i for i, v in enumerate(graph["vertices"])}
    n = len(index)
    pred = [0] * n  # sources of in-edges, as a bitmask
    finite_pred = [0] * n  # sources of finite-multiplicity in-edges
    omega_pred = [0] * n  # sources of omega in-edges
    for e in graph["edges"]:
        s, r = index[e["src"]], index[e["rng"]]
        pred[r] |= 1 << s
        if e["mult"] == "omega":
            omega_pred[r] |= 1 << s
        else:
            finite_pred[r] |= 1 << s
    total = 0
    for h in range(1 << n):
        sh = True
        for v in range(n):
            inside = h >> v & 1
            if inside and pred[v] & ~h:
                sh = False  # an edge enters H from outside
                break
            if not inside and pred[v] and not omega_pred[v] and not pred[v] & ~h:
                sh = False  # a finite receiver fed only from H is left out
                break
        if not sh:
            continue
        breaking = 0
        for v in range(n):
            if (
                not h >> v & 1
                and omega_pred[v]
                and not omega_pred[v] & ~h
                and finite_pred[v] & ~h
            ):
                breaking += 1
        total += 1 << breaking
    return total


def survey_graphs(seed: int) -> list[str]:
    """One survey pass: graphs drawn in order, each kept while its cell's
    quota is open, then shuffled."""
    rng = random.Random(f"survey-{seed}")
    open_quota = dict(SURVEY_QUOTAS)
    remaining = sum(open_quota.values())
    out = []
    while remaining:
        g = random_survey_graph(rng)
        cell = (admissible_pair_count(g).bit_length(), len(g["vertices"]))
        if open_quota.get(cell, 0):
            open_quota[cell] -= 1
            remaining -= 1
            out.append(json.dumps(g))
    rng.shuffle(out)
    return out


# -- large: the CLI ladder ------------------------------------------------------


def edgeless(n: int) -> dict:
    return {"vertices": [f"v{i}" for i in range(n)], "edges": []}


def double_loops(n: int) -> dict:
    """An antichain of vertices, each carrying a self-loop of multiplicity 2."""
    vs = [f"v{i}" for i in range(n)]
    return {
        "vertices": vs,
        "edges": [{"id": f"l{i}", "src": v, "rng": v, "mult": 2} for i, v in enumerate(vs)],
    }


def omega_fan(k: int) -> dict:
    """Hub w, sources u_i, receivers v_i; u_i -> v_i (omega), w -> v_i (1)."""
    us = [f"u{i}" for i in range(k)]
    vs = [f"v{i}" for i in range(k)]
    edges = [{"id": f"a{i}", "src": us[i], "rng": vs[i], "mult": "omega"} for i in range(k)]
    edges += [{"id": f"b{i}", "src": "w", "rng": vs[i], "mult": 1} for i in range(k)]
    return {"vertices": ["w"] + us + vs, "edges": edges}


def chain(n: int) -> dict:
    vs = [f"v{i}" for i in range(n)]
    return {
        "vertices": vs,
        "edges": [{"id": f"c{i}", "src": vs[i], "rng": vs[i + 1], "mult": 1} for i in range(n - 1)],
    }


def cycle_with_entrance(n: int) -> dict:
    """A simple n-cycle plus a source vertex s feeding its first vertex
    (n + 1 vertices)."""
    vs = [f"c{i}" for i in range(n)]
    edges = [{"id": f"k{i}", "src": vs[i], "rng": vs[(i + 1) % n], "mult": 1} for i in range(n)]
    edges.append({"id": "in", "src": "s", "rng": vs[0], "mult": 1})
    return {"vertices": ["s"] + vs, "edges": edges}


# (rung id, subcommand, graph).  The 256-pair lattice and the n = 16 rungs
# carry the exponential enumeration and the O(P^3) tables; the rest is a
# cheap spread of shapes.  Rung ids key the recorded output digests.
LADDER = (
    [("lattice-edgeless-6", "lattice", edgeless(6)),
     ("lattice-edgeless-8", "lattice", edgeless(8)),
     ("lattice-fan-3", "lattice", omega_fan(3))]
    + [(f"{cmd}-{name}", cmd, g)
       for name, g in (("edgeless-12", edgeless(12)),
                       ("edgeless-16", edgeless(16)),
                       ("double-loops-12", double_loops(12)),
                       ("chain-16", chain(16)),
                       ("cycle-entrance-15", cycle_with_entrance(15)))
       for cmd in ("analyze", "spectrum")]
)


def large_ladder(seed: int) -> list[tuple[str, str, str]]:
    """The ladder as (rung id, subcommand, graph JSON text), in seeded order.

    The graphs are fixed so that every output can be checked against a
    digest; the seed only orders the rungs.
    """
    rungs = [(rid, cmd, json.dumps(g)) for rid, cmd, g in LADDER]
    random.Random(f"large-{seed}").shuffle(rungs)
    return rungs


# -- paction: partial actions on finite T0 spaces -----------------------------------

SMALL_SIZES = range(2, 11)  # points per small action
SMALL_PER_SIZE = 32  # small actions per size and pass: 16 over Z, 16 over F2

# (points, transposition distance, extra fixed points) of the cycle plus
# partial transposition actions.  The mix is fixed so that a pass always holds
# the same searches; the seed relabels points and applies a dihedral symmetry,
# which leaves the search size unchanged.
BFS_VARIANTS = ((5, 1, 2), (5, 2, 2), (6, 1, 2), (6, 2, 2), (6, 3, 3), (6, 1, 4), (6, 2, 3), (6, 1, 3))


def _random_poset(rng: random.Random, b: int) -> tuple[list[tuple[int, int]], list[int]]:
    """Random order on b points: relations (i, j) with j above i, and for each
    point the bitmask of points at or below it."""
    relations = [(i, j) for i in range(b) for j in range(i + 1, b) if rng.random() < 0.3]
    below = [1 << i for i in range(b)]
    for j in range(b):  # j > i in every relation, so one pass in order closes it
        for i, jj in relations:
            if jj == j:
                below[j] |= below[i]
    return relations, below


def _down_set(rng: random.Random, below: list[int], size: int) -> list[int]:
    """A random open set of the given size: a prefix of a random linear
    extension of the order."""
    chosen = 0
    out = []
    for _ in range(size):
        x = rng.choice([x for x in range(len(below)) if not chosen >> x & 1 and below[x] & ~chosen == 1 << x])
        chosen |= 1 << x
        out.append(x)
    return out


def _partial_shift(rng: random.Random, below: list[int], r: int, size: int) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """Copy i of the base order moves onto copy sigma(i), on an open part of
    the given size."""
    sigma = list(range(r))
    rng.shuffle(sigma)
    return [((x, i), (x, sigma[i])) for i in range(r) for x in _down_set(rng, below, size)]


def small_action(rng: random.Random, n: int, group: str, variant: int) -> tuple[str, list[str], list[str], list[str]]:
    """A partial action of Z or F2 on an n-point T0 space, with queries.

    The space is r disjoint copies of a random order on b points (b * r = n),
    and each generator moves open parts of copies onto other copies, so maps
    are order isomorphisms between open sets by construction.  At most three
    copies keep the free-group word search small; the large searches are the
    separate cycle-and-transposition items.  Returns the action JSON,
    element_map words, and paradoxical and infinite witness candidates (JSON).
    """
    copies = [d for d in (1, 2, 3) if n % d == 0]
    r = copies[variant % len(copies)]
    b = n // r
    relations, below = _random_poset(rng, b)
    cells = [(x, i) for i in range(r) for x in range(b)]
    names = [f"p{k}" for k in range(n)]
    rng.shuffle(names)
    name = dict(zip(cells, names))
    gens = ["g1"] if group == "Z" else ["g1", "g2"]
    action = {
        "points": sorted(names, key=lambda s: int(s[1:])),
        "specialization": [[name[(x, i)], name[(y, i)]] for i in range(r) for x, y in relations],
        "group": group,
        "generators": [
            # g1 moves whole copies, g2 all but one point of each
            {"name": g, "map": [[name[p], name[q]] for p, q in _partial_shift(rng, below, r, max(b - k, 1))]}
            for k, g in enumerate(gens)
        ],
    }

    def open_set() -> list[str]:
        out = []
        for i in range(r):
            out += [name[(x, i)] for x in _down_set(rng, below, rng.randint(0, b))]
        return out

    def word() -> str:
        return " ".join(
            rng.choice(gens) + rng.choice(("", "^-1")) for _ in range(rng.randint(0, 4))
        )

    def decomposition(split: bool) -> str:
        # base point 0 is minimal (relations only point upward), so its
        # copy-0 singleton is open
        v = open_set() or [name[(0, 0)]]
        vset = set(v)
        parts = []
        for _ in range(rng.randint(1, 3)):
            part = [p for p in open_set() if p in vset]
            parts.append({"set": part, "word": word()})
        obj = {"V": v, "parts": parts}
        if split:
            obj["split"] = rng.randint(0, len(parts))
        return json.dumps(obj)

    words = [word() for _ in range(4)]
    paradoxical = [decomposition(True) for _ in range(2)]
    infinite = [decomposition(False) for _ in range(2)]
    return json.dumps(action), words, paradoxical, infinite


def bfs_action(rng: random.Random, n: int, dist: int, extra: int) -> str:
    """F2 on n discrete points: an n-cycle and a partial transposition.

    The transposition swaps points 0 and dist and fixes the next `extra`
    points of 1..n-1 outside {dist}; a random rotation or reflection of the
    cycle and random point names are applied on top.
    """
    shift = rng.randrange(n)
    sign = rng.choice((1, -1))
    names = [f"p{k}" for k in range(n)]
    rng.shuffle(names)
    pt = [names[(sign * k + shift) % n] for k in range(n)]
    fixed = [k for k in range(1, n) if k != dist][:extra]
    transposition = [[pt[0], pt[dist]], [pt[dist], pt[0]]] + [[pt[k], pt[k]] for k in fixed]
    return json.dumps({
        "points": sorted(names, key=lambda s: int(s[1:])),
        "group": "F2",
        "generators": [
            {"name": "a", "map": [[pt[k], pt[(k + 1) % n]] for k in range(n)]},
            {"name": "b", "map": transposition},
        ],
    })


def paction_items(seed: int) -> list[tuple]:
    """One paction pass, shuffled: ("small", action, words, paradoxical,
    infinite) items and ("bfs", action) items."""
    rng = random.Random(f"paction-{seed}")
    items: list[tuple] = []
    for n in SMALL_SIZES:
        for k in range(SMALL_PER_SIZE):
            items.append(("small",) + small_action(rng, n, "Z" if k % 2 else "F2", k // 2))
    items += [("bfs", bfs_action(rng, *v)) for v in BFS_VARIANTS]
    rng.shuffle(items)
    return items
