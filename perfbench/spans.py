"""Span recorder for the traced benchmark run.

`Tracer.install` rebinds graphck's public functions, at every graphck module
where each is bound, to wrappers that record one span per call: name, start,
end, parent span and item id.  Class constructors and cached-property tables
are wrapped the same way, and a few hot predicates only count their calls.
Spans stay in memory, in flat arrays, until `write` saves them; `layer_totals`
turns them into per-name call counts and self times, a span's self time being
its duration minus the time its child spans cover.

The untraced run never imports this module, so its timings do not depend on
the tracer.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

HOOK = "trace.hook"

# (module, attribute path, span name).  An attribute path "Class.method" wraps
# a method or cached property of that class; "Class" wraps its constructor.
SPANS = (
    ("graphs", "parse_graph", "graphs.parse_graph"),
    ("graphs", "scc_decomposition", "graphs.scc_decomposition"),
    ("graphs", "first_return_count", "graphs.first_return_count"),
    ("conditions", "condition_L", "conditions.condition_L"),
    ("conditions", "condition_K", "conditions.condition_K"),
    ("conditions", "saturated_hereditary_sets", "conditions.saturated_hereditary_sets"),
    ("conditions", "saturation", "conditions.saturation"),
    ("ideals", "admissible_pairs", "ideals.admissible_pairs"),
    ("ideals", "breaking_vertices_of", "ideals.breaking_vertices_of"),
    ("ideals", "quotient_graph", "ideals.quotient_graph"),
    ("ideals", "lattice_to_json", "ideals.lattice_to_json"),
    ("ideals", "IdealLattice.leq", "ideals.IdealLattice.leq"),
    ("ideals", "IdealLattice.covers", "ideals.IdealLattice.covers"),
    ("ideals", "IdealLattice.meet_table", "ideals.IdealLattice.meet_table"),
    ("ideals", "IdealLattice.join_table", "ideals.IdealLattice.join_table"),
    ("spectrum", "maximal_tails", "spectrum.maximal_tails"),
    ("spectrum", "breaking_vertices", "spectrum.breaking_vertices"),
    ("spectrum", "prim_space", "spectrum.prim_space"),
    ("spectrum", "prim_space_to_json", "spectrum.prim_space_to_json"),
    ("spectrum", "PrimSpace.covers", "spectrum.PrimSpace.covers"),
    ("classify", "classify", "classify.classify"),
    ("classify", "is_simple", "classify.is_simple"),
    ("classify", "is_purely_infinite", "classify.is_purely_infinite"),
    ("classify", "report_to_json", "classify.report_to_json"),
    ("actions", "parse_action", "actions.parse_action"),
    ("actions", "FiniteT0Space", "actions.FiniteT0Space"),
    ("actions", "PartialHomeo", "actions.PartialHomeo"),
    ("actions", "FinitePartialAction.element_map", "actions.element_map"),
    ("actions", "FinitePartialAction.orbit", "actions.orbit"),
    ("actions", "FinitePartialAction.quasi_orbit_space", "actions.quasi_orbit_space"),
    ("actions", "FinitePartialAction.is_minimal", "actions.is_minimal"),
    ("actions", "FinitePartialAction.is_topologically_free", "actions.is_topologically_free"),
    (
        "actions",
        "FinitePartialAction.is_residually_topologically_free",
        "actions.is_residually_topologically_free",
    ),
    ("actions", "FinitePartialAction.invariant_subsets", "actions.invariant_subsets"),
    ("actions", "check_paradoxical_witness", "actions.check_paradoxical_witness"),
    ("actions", "check_infinite_witness", "actions.check_infinite_witness"),
    ("cli", "run", "cli.run"),
)

# Called too often for a span each; only their calls are counted.
COUNTS = (
    ("conditions", "is_hereditary", "conditions.is_hereditary"),
    ("conditions", "is_saturated", "conditions.is_saturated"),
    ("ideals", "AdmissiblePair", "ideals.AdmissiblePair"),
    ("actions", "FinitePartialAction.is_invariant", "actions.is_invariant"),
)


class Tracer:
    def __init__(self, graphck):
        self.graphck = graphck
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.current_item = -1
        self._open: list[int] = []
        # counts derived from arguments and results, computed in HOOK spans
        # so that their cost leaves the caller's self time
        scc = sys.modules[f"{graphck.__name__}.graphs"].scc_decomposition
        self.hooks = {
            "conditions.saturated_hereditary_sets": lambda args, res: {
                "conditions.sh_subsets_scanned": 2 ** len(scc(args[0])),
                "conditions.sh_sets_kept": len(res),
            },
            "ideals.admissible_pairs": lambda args, res: {"ideals.pairs": len(res)},
            "spectrum.maximal_tails": lambda args, res: {"spectrum.tails": len(res)},
            "actions.invariant_subsets": lambda args, res: {
                "actions.invariant_subsets_scanned": 2 ** len(args[0].space.points),
                "actions.invariant_sets_kept": len(res),
            },
            "cli.run": lambda args, res: {"cli.output_bytes": len(args[1].getvalue())},
        }

    # -- recording ----------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        return self._name_id[name]

    def open(self, name: str) -> int:
        k = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._open[-1] if self._open else -1)
        self.item.append(self.current_item)
        self.start.append(0.0)
        self.end.append(0.0)
        self._open.append(k)
        self.start[k] = time.perf_counter()
        return k

    def close(self, k: int) -> None:
        self.end[k] = time.perf_counter()
        self._open.pop()

    def span(self, name: str, fn):
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            k = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(k)
            if hook is not None:
                h = self.open(HOOK)
                self.counts.update(hook(args, result))
                self.close(h)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------------

    def install(self) -> None:
        pkg = self.graphck
        # graphck.classify is the function; its module lives in sys.modules
        modules = [pkg] + [
            sys.modules[f"{pkg.__name__}.{m}"]
            for m in ("graphs", "conditions", "ideals", "spectrum", "classify", "actions", "cli")
        ]
        for table, make in ((SPANS, self.span), (COUNTS, self.counter)):
            for module, path, name in table:
                owner = sys.modules[f"{pkg.__name__}.{module}"]
                head, _, attr = path.rpartition(".")
                if head:  # a method or a cached property
                    cls = getattr(owner, head)
                    member = cls.__dict__[attr]
                    if hasattr(member, "func"):
                        member.func = make(name, member.func)
                    else:
                        setattr(cls, attr, make(name, member))
                    continue
                target = getattr(owner, attr)
                if isinstance(target, type):  # a constructor
                    target.__init__ = make(name, target.__init__)
                    continue
                wrapped = make(name, target)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is target:
                            setattr(mod, key, wrapped)

    # -- results --------------------------------------------------------------------

    def layer_totals(self) -> tuple[dict[str, int], dict[str, float]]:
        """Calls and self seconds per span name (including HOOK and item)."""
        n = len(self.start)
        child = [0.0] * n
        for k in range(n):
            p = self.parent[k]
            if p >= 0:
                child[p] += self.end[k] - self.start[k]
        calls: Counter = Counter()
        self_s: Counter = Counter()
        for k in range(n):
            name = self.names[self.name[k]]
            calls[name] += 1
            self_s[name] += self.end[k] - self.start[k] - child[k]
        return dict(calls), dict(self_s)

    def write(self, path) -> None:
        """Save the spans: a JSON header line, then the raw arrays in the
        header's order (native byte order)."""
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": [["name", "i"], ["parent", "i"], ["item", "i"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _ in header["arrays"]:
                getattr(self, field).tofile(fh)
