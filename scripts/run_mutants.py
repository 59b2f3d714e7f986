"""Replay the mutant catalogue of tests/mutants.py: apply each mutant to a
fresh copy of the source, run the tests it names, and report it killed when
one of them fails.

Usage: python scripts/run_mutants.py [NAME ...]

The copy, under a temporary directory, holds src/ and what the tests read
relative to the repository (tests/, corpus/, docs/, scripts/, perfbench/,
pyproject.toml), so tests that start the CLI in a subprocess run the mutant
too.  One pytest subprocess runs at a time.  Before the mutants, the named
tests run once on an unmutated copy, which must pass them.  Prints one line
per mutant and a summary; exits 1 when a mutant survives or a run errs.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tests"))

from mutants import MUTANTS

COPIED = ("src", "tests", "corpus", "docs", "scripts", "perfbench", "pyproject.toml")
IGNORED = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", ".work", ".traces")


def run_tests(mutant: dict | None, tests) -> tuple[int, int, float]:
    """pytest's exit status on the named tests in a fresh copy, with the
    mutant applied when one is given, the number of tests that failed, and
    the seconds the run took."""
    with tempfile.TemporaryDirectory(prefix="graphck-mutant-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            src = REPO / name
            if src.is_dir():
                shutil.copytree(src, root / name, ignore=IGNORED)
            else:
                shutil.copy2(src, root / name)
        if mutant is not None:
            path = root / mutant["file"]
            text = path.read_text()
            if text.count(mutant["old"]) != 1:
                raise SystemExit(f"{mutant['name']}: its text does not occur once in {mutant['file']}")
            path.write_text(text.replace(mutant["old"], mutant["new"]))
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *tests]
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True, timeout=900)
        failed = re.search(r"(\d+) failed", proc.stdout.splitlines()[-1] if proc.stdout else "")
        return proc.returncode, int(failed[1]) if failed else 0, time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = ap.parse_args()
    unknown = set(args.names) - {m["name"] for m in MUTANTS}
    if unknown:
        raise SystemExit(f"unknown mutants: {', '.join(sorted(unknown))}")
    chosen = [m for m in MUTANTS if not args.names or m["name"] in args.names]

    start = time.perf_counter()
    named = sorted({t for m in chosen for t in m["tests"]})
    status, _, took = run_tests(None, named)
    print(f"{'unmutated':44} {'pass' if status == 0 else f'FAIL ({status})':>14} {took:6.1f} s")
    if status != 0:
        print("the named tests must pass on the unmutated source")
        return 1
    counts = {"killed": 0, "SURVIVED": 0, "ERROR": 0}
    for m in chosen:
        status, failed, took = run_tests(m, m["tests"])
        # pytest exits 1 when a test failed; any other status is no verdict
        verdict = "killed" if status == 1 else "SURVIVED" if status == 0 else "ERROR"
        counts[verdict] += 1
        share = f"{failed}/{len(m['tests'])} " if status == 1 else ""
        print(f"{m['name']:44} {share + verdict:>14} {took:6.1f} s")
    total = time.perf_counter() - start
    print(
        f"{len(chosen)} mutants: {counts['killed']} killed, {counts['SURVIVED']} survived, "
        f"{counts['ERROR']} errors, {total:.1f} s"
    )
    return 0 if counts["killed"] == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main())
