"""Analyze every corpus graph and print a one-line summary per graph.

Usage: python scripts/run_corpus.py [--limit N]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from graphck import (
    admissible_pairs,
    classify,
    parse_graph,
    prim_space,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--limit", type=int, default=16, help="vertex limit of the lattice enumeration")
    args = ap.parse_args()

    header = f"{'graph':8} {'|V|':>3} {'L':>3} {'K':>3} {'simple':>7} {'PI':>7} {'pairs':>5} {'primes':>6} {'status':>9}"
    print(header)
    print("-" * len(header))
    for path in sorted(CORPUS.glob("*.json")):
        g = parse_graph(path.read_text())
        r = classify(g)
        lat = admissible_pairs(g, args.limit)
        ps = prim_space(g)
        print(
            f"{path.stem:8} {len(g.vertices):>3} "
            f"{'yes' if r.aperiodic else 'no':>3} "
            f"{'yes' if r.residually_aperiodic else 'no':>3} "
            f"{r.simple.verdict:>7} {r.purely_infinite.verdict:>7} "
            f"{len(lat):>5} {len(ps):>6} {ps.status:>9}"
        )


if __name__ == "__main__":
    main()
