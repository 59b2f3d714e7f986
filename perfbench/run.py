"""graphck benchmark: one seeded workload, timed, checked and reported.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {survey,large,paction} --seed N \
        --seconds S --trace {0,1}

One process, one client: each item starts when the previous one returns.  The
timed phase repeats the workload's seeded pass of items and stops at the pass
boundary nearest to S seconds.  A fixed reference loop (reference.py) runs
next to every item, each item's duration is scaled to the speed that loop
has on the recording machine, and an item's time is its median over the
passes.  With
--trace 0 the end-to-end metrics of BENCHMARK.json are reported; with
--trace 1 the first half of the time runs untraced passes as a reference and
the second half traced passes, and the per-layer metrics are reported per
traced pass.  Every item's output is checked after timing; the last stdout
line is the JSON result.  perfbench/README.md defines every metric.

The program under test is imported from src/ of the checkout.  When it cannot
be set up the benchmark prints no result and exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import pickle
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import zlib
from pathlib import Path

import reference
from workloads import WORKLOADS, SetupError, load_oracles, warm_up

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
# Share of an item's time spent gauging the machine's speed next to it.
REFERENCE_SHARE = 0.25
SETUP_BLOCK_UNITS = 300  # about 0.1 s before and after each set-up process


def load_graphck():
    src = ROOT / "src"
    if not (src / "graphck" / "__init__.py").is_file():
        raise SetupError(f"no graphck package under {src}")
    sys.path.insert(0, str(src))
    import graphck
    import graphck.cli

    if Path(graphck.__file__).resolve().parent != (src / "graphck").resolve():
        raise SetupError(f"imported graphck from {graphck.__file__}, not from {src}")
    return graphck


def set_up(workload: str, seed: int, workdir: Path):
    """Import graphck, generate the pass's items and warm up."""
    G = load_graphck()
    wl = WORKLOADS[workload]
    items = wl.prepare(G, seed, workdir)
    warm_up(G, ROOT, workdir)
    return G, wl, items


def setup_seconds(workload: str, seed: int) -> list[float]:
    """Wall time of fresh processes that only set up (interpreter start,
    import, input generation and warm-up), in reference seconds."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = reference.measure(SETUP_BLOCK_UNITS)
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        raw = time.perf_counter() - t0
        after = reference.measure(SETUP_BLOCK_UNITS)
        samples.append(scale(raw, [(SETUP_BLOCK_UNITS, before), (SETUP_BLOCK_UNITS, after)]))
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SetupError(f"a set-up process exited with code {proc.returncode}")
    return samples


_FAILED = object()


def units_for(seconds: float) -> int:
    """Reference units that take about REFERENCE_SHARE of `seconds`, at
    least 3."""
    return max(3, round(REFERENCE_SHARE * seconds / reference.UNIT_S))


def scale(raw: float, blocks: list[tuple[int, float]]) -> float:
    """A raw duration in reference seconds: what it would have taken at the
    recording machine's speed, given the reference blocks (units, seconds per
    unit) run around it."""
    per_unit = sum(u * s for u, s in blocks) / sum(u for u, _ in blocks)
    return raw * reference.UNIT_S / per_unit


def pack(summary):
    """A summary kept for the whole run, compressed: a paction summary holds
    up to 2^10 invariant sets, and held as objects the summaries would make
    peak_rss_mb follow the seed's draws rather than the program."""
    return None if summary is None else zlib.compress(pickle.dumps(summary))


def unpack(packed):
    return None if packed is None else pickle.loads(zlib.decompress(packed))


def run_pass(G, wl, items, reference_summaries, tracer=None):
    """Run every item once.  A reference block sized by units_for follows
    each item, and a 3-unit block opens the pass.  Returns the item durations
    in reference seconds (scaled by the blocks on both sides of the item),
    the seconds per reference unit of every block, and the summaries, packed
    (None for an item that raised); with reference summaries, each summary is
    replaced by whether it equals its reference, so only one pass of
    summaries is kept and memory does not grow with the number of passes."""
    raw, summaries = [], []
    blocks = [(3, reference.measure(3))]
    for k, item in enumerate(items):
        if tracer is not None:
            tracer.current_item = k
            span = tracer.open("item")
        t0 = time.perf_counter()
        try:
            result = wl.run(G, item)
        except Exception:  # an item failure is counted, the run goes on
            traceback.print_exc()
            result = _FAILED
        raw.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.close(span)
        units = units_for(raw[-1])
        blocks.append((units, reference.measure(units)))
        try:
            summary = None if result is _FAILED else wl.summarize(item, result)
        except Exception:
            traceback.print_exc()
            summary = None
        del result
        if reference_summaries is None:
            summaries.append(pack(summary))
        else:
            summaries.append(summary is not None and summary == unpack(reference_summaries[k]))
    durations = [scale(d, blocks[k:k + 2]) for k, d in enumerate(raw)]
    return durations, [s for _, s in blocks], summaries


def run_phase(G, wl, items, seconds: float, tracer=None, reference_summaries=None):
    """Whole passes, ending at the pass boundary nearest to `seconds`.

    Returns the reference summaries (those of the first pass, unless given)
    and, per pass, the item durations, the reference speeds and whether each
    item reproduced its reference summary.
    """
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        durations, speeds, summaries = run_pass(G, wl, items, reference_summaries, tracer)
        if reference_summaries is None:
            reference_summaries = summaries
            summaries = [summary is not None for summary in summaries]
        passes.append((durations, speeds, summaries))
        now = time.perf_counter()
        if now - start + (now - t0) / 2 > seconds:
            return reference_summaries, passes


def count_failures(G, wl, items, reference_summaries, passes) -> tuple[int, int]:
    """(attempted, failed) over every item run: an item fails when the
    reference summary fails its check or when it did not reproduce it."""
    oracles = load_oracles(ROOT)
    good = []
    for item, packed in zip(items, reference_summaries):
        try:
            summary = unpack(packed)
            good.append(summary is not None and wl.check(G, oracles, item, summary))
        except Exception:
            traceback.print_exc()
            good.append(False)
    for k, ok in enumerate(good):
        if not ok:
            print(f"wrong output for item {k}: {str(items[k])[:200]}", file=sys.stderr)
    attempted = failed = 0
    for *_, same in passes:
        attempted += len(same)
        failed += sum(not (ok and s) for ok, s in zip(good, same))
    return attempted, failed


def item_times(passes) -> list[float]:
    """Each item's median duration over the passes, in reference seconds."""
    return [statistics.median(column) for column in zip(*(durations for durations, *_ in passes))]


def speed_factor(passes) -> float:
    """Reference seconds per raw second over the passes (median)."""
    return reference.UNIT_S / statistics.median(s for _, speeds, _ in passes for s in speeds)


def end_to_end(passes, setup: list[float]) -> dict[str, float]:
    times = item_times(passes)
    wall = sum(times)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "items_per_s": len(times) / wall,
        "item_p50_ms": 1e3 * statistics.median(times),
        "item_p90_ms": 1e3 * statistics.quantiles(times, n=10)[8],
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(names, tracer, untraced, traced, wl, items) -> dict[str, float]:
    calls, self_s = tracer.layer_totals()
    counts = dict(tracer.counts, **calls)
    n = len(traced)
    # span times are raw; scale them like the item times
    factor = speed_factor(traced)

    def ratio(kept: str, scanned: str) -> float:
        base = counts.get(scanned, 0)
        return counts.get(kept, 0) / base if base else 0.0

    def cli_seconds(cmd: str) -> float:
        return sum(d for d, item in zip(item_times(untraced), items) if wl.kind(item) == cmd)

    out = {}
    for name in names:
        if name.endswith(".self_s"):
            out[name] = factor * self_s.get(name[: -len(".self_s")], 0.0) / n
        elif name.endswith(".calls"):
            out[name] = counts.get(name[: -len(".calls")], 0) / n
        elif name == "conditions.sh_yield":
            out[name] = ratio("conditions.sh_sets_kept", "conditions.sh_subsets_scanned")
        elif name == "actions.invariant_yield":
            out[name] = ratio("actions.invariant_sets_kept", "actions.invariant_subsets_scanned")
        elif name == "trace.overhead_s":
            out[name] = sum(item_times(traced)) - sum(item_times(untraced))
        elif name == "reference.unit_ms":
            out[name] = 1e3 * statistics.median(s for _, speeds, _ in untraced + traced for s in speeds)
        elif name.startswith("cli_"):  # cli_<subcommand>_s, untraced
            out[name] = cli_seconds(name[len("cli_"): -len("_s")])
        else:
            out[name] = counts.get(name, 0) / n
    return out


def measure(args, workdir: Path) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup = setup_seconds(args.workload, args.seed)
    G, wl, items = set_up(args.workload, args.seed, workdir)
    gc.collect()
    if not args.trace:
        reference_summaries, passes = run_phase(G, wl, items, args.seconds)
        values = end_to_end(passes, setup)
        print(f"reference unit {1e3 * reference.UNIT_S / speed_factor(passes):.4f} ms "
              f"(recorded {1e3 * reference.UNIT_S:.4f} ms)", file=sys.stderr)
        metrics = spec["end_to_end"]
    else:
        from spans import Tracer

        reference_summaries, untraced = run_phase(G, wl, items, args.seconds / 2)
        tracer = Tracer(G)
        tracer.install()
        _, traced = run_phase(G, wl, items, args.seconds / 2, tracer, reference_summaries)
        passes = untraced + traced
        metrics = spec["per_layer"]
        values = per_layer([m["name"] for m in metrics], tracer, untraced, traced, wl, items)
        traces = HERE / ".traces"
        traces.mkdir(exist_ok=True)
        tracer.write(traces / f"{args.workload}.spans")
    attempted, failed = count_failures(G, wl, items, reference_summaries, passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    # child mode of setup_seconds: set up, then exit
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not args.setup_only and (args.seconds is None or args.trace is None):
        ap.error("--seconds and --trace are required")
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=work))
    try:
        if args.setup_only:
            set_up(args.workload, args.seed, workdir)
            return 0
        result = measure(args, workdir)
    except SetupError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
