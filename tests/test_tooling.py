"""Tooling checks: the traced benchmark's span table names only attributes
that exist, the modules keep their layering, the public surface is the
committed list, and the scripts run."""

import ast
import importlib
import importlib.util
import subprocess
import sys

import pytest

import graphck

from util import REPO


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", REPO / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = load_spans()
    for module, path, name in spans.SPANS + spans.COUNTS:
        owner = importlib.import_module(f"graphck.{module}")
        head, _, attr = path.rpartition(".")
        if head:
            assert hasattr(owner, head), f"{name}: graphck.{module}.{head} is gone"
            owner = getattr(owner, head)
        # the tracer wraps the member found in the owner's own namespace
        assert attr in vars(owner), f"{name}: graphck.{module}.{path} is gone"


# -- layering and public surface ----------------------------------------------------

SRC = REPO / "src" / "graphck"

# The public surface: graphck.__all__ changes only together with this list.
PUBLIC = [
    "ActionFormatError", "AdmissiblePair", "ClassificationReport", "ConditionK", "ConditionL",
    "CycleWitness", "DEFAULT_LIMIT", "Decomposition", "Edge", "FinitePartialAction",
    "FiniteT0Space", "Graph", "GraphFormatError", "IdealLattice", "LimitExceededError", "OMEGA",
    "Omega", "PartialHomeo", "Path", "PrimPoint", "PrimSpace", "PurelyInfiniteVerdict",
    "QuasiOrbitSpace", "SimpleVerdict", "admissible_pairs", "breaking_vertices",
    "breaking_vertices_of", "check_infinite_witness", "check_paradoxical_witness", "classify",
    "condition_K", "condition_L", "cycle_entrances", "decide_G_infinite", "detect_format",
    "first_return_count", "graph_to_edgelist", "graph_to_json", "is_hereditary",
    "is_maximal_tail", "is_purely_infinite", "is_saturated", "is_simple", "lattice_to_dot",
    "lattice_to_json", "maximal_tails", "pair_leq", "parse_action", "parse_decomposition",
    "parse_graph", "prim_space", "prim_space_to_dot", "prim_space_to_json", "prime_points",
    "quotient_graph", "report_to_json", "report_to_text", "saturated_hereditary_sets",
    "saturation", "scc_decomposition", "serialize_graph",
]


def layering_faults(path) -> list[str]:
    """What `test_layering` forbids in one graphck module, as messages."""
    tree = ast.parse(path.read_text(), str(path))
    top = {id(node) for node in tree.body}
    module = path.stem
    faults, aliases = [], set()  # aliases: local names of imported graphck modules
    for node in ast.walk(tree):
        where = f"{path.name}:{getattr(node, 'lineno', 0)}"
        if isinstance(node, ast.Assert):
            faults.append(f"{where}: assert (python -O strips it)")
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if id(node) not in top:
            faults.append(f"{where}: import inside a function or block")
        if not isinstance(node, ast.ImportFrom) or not (node.level or node.module == "graphck"):
            continue
        source = node.module or ""
        for alias in node.names:
            if alias.name.startswith("_"):
                faults.append(f"{where}: imports the private name {source}.{alias.name}")
            if not source:  # from . import module
                aliases.add(alias.asname or alias.name)
            if module == "spectrum" and "actions" in (source, alias.name):
                faults.append(f"{where}: spectrum imports actions")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
            and node.attr.startswith("_")
        ):
            faults.append(f"{path.name}:{node.lineno}: reads {node.value.id}.{node.attr}")
    return faults


def test_layering():
    """No module reaches into another one's private names (the kernel lives
    on Graph), every import sits at module level, spectrum stays clear of
    actions, and no invariant rests on an assert."""
    faults = [f for path in sorted(SRC.glob("*.py")) for f in layering_faults(path)]
    assert faults == []


def test_layering_check_catches_each_fault(tmp_path):
    bad = tmp_path / "spectrum.py"
    bad.write_text(
        "from .actions import FiniteT0Space\n"
        "from .ideals import _prime_masks\n"
        "from . import graphs as gr\n"
        "def f(g):\n"
        "    from .ideals import admissible_pairs\n"
        "    assert g\n"
        "    return gr._hidden\n"
    )
    kinds = [f.split(": ", 1)[1].split(" ")[0] for f in layering_faults(bad)]
    assert sorted(kinds) == ["assert", "import", "imports", "reads", "spectrum"]


def test_public_surface_is_the_committed_list():
    assert graphck.__all__ == PUBLIC


# -- scripts ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "argv, header",
    [
        (["run_corpus.py"], "graph    |V|   L   K  simple      PI pairs primes    status"),
        (["random_survey.py", "--samples", "5", "--max-n", "4"], "|V|     L%     K%  simple%"),
    ],
)
def test_scripts_run(argv, header):
    """The scripts import the library and the test helpers by name, so a
    pruning that breaks them shows here."""
    script, *args = argv
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), *args],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.splitlines()[0].startswith(header)
