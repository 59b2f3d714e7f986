"""Tooling checks: the traced benchmark's span table names only attributes
that exist, the modules keep their layering, the public surface is the
committed list, every public member has a caller, and the scripts run."""

import ast
import importlib
import importlib.util
import re
import subprocess
import sys
from collections import defaultdict

import pytest

import graphck

from mutants import MUTANTS
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
    "is_purely_infinite", "is_saturated", "is_simple", "lattice_to_dot",
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


def slow_records(path) -> list[str]:
    """The classes of one module under ``@dataclass(frozen=True)`` that let
    dataclass generate ``__init__``: one ``object.__setattr__`` per field on
    every build.  ``poset.record`` is the fast form; ``init=False`` builds
    through the instance dict."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.ClassDef):
            continue
        for d in node.decorator_list:
            if isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass":
                kw = {k.arg: getattr(k.value, "value", None) for k in d.keywords}
                if kw.get("frozen") is True and kw.get("init") is not False:
                    out.append(f"{path.name}:{node.lineno}: {node.name}")
    return out


def test_frozen_dataclasses_are_records():
    assert [f for path in sorted(SRC.glob("*.py")) for f in slow_records(path)] == []


def test_slow_record_check_catches_a_generated_init(tmp_path):
    bad = tmp_path / "lib.py"
    bad.write_text(
        "@dataclass(frozen=True)\n"
        "class Slow:\n"
        "    x: int\n"
        "@dataclass(init=True, frozen=True)\n"
        "class AlsoSlow:\n"
        "    x: int\n"
        "@dataclass(frozen=True, init=False)\n"
        "class Built:\n"
        "    x: int\n"
        "@record\n"
        "class Fast:\n"
        "    x: int\n"
    )
    assert slow_records(bad) == ["lib.py:2: Slow", "lib.py:5: AlsoSlow"]


def test_public_surface_is_the_committed_list():
    assert graphck.__all__ == PUBLIC
    assert "encode_json" not in PUBLIC  # the JSON writer is internal


def indented_dumps(path) -> list[str]:
    """The calls of one module to ``dumps`` with an ``indent=`` keyword:
    json.dumps's pure-Python encoder, where `graphs.encode_json` is the
    package's one pretty-printer."""
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "dumps"
        and any(k.arg == "indent" for k in node.keywords)
    ]


def test_encode_json_is_the_one_pretty_printer():
    assert [f for path in sorted(SRC.glob("*.py")) for f in indented_dumps(path)] == []


def test_indented_dumps_check_catches_each_call(tmp_path):
    bad = tmp_path / "lib.py"
    bad.write_text(
        "import json\n"
        "from json import dumps\n"
        "a = json.dumps(1, indent=2)\n"
        "b = dumps(1, indent=None)\n"
        "c = json.dumps('quoted')\n"
    )
    assert indented_dumps(bad) == ["lib.py:3", "lib.py:4"]


# -- callers of the public members ---------------------------------------------------

CALLERS = sorted(SRC.glob("*.py")) + sorted((REPO / "scripts").glob("*.py")) + sorted(
    (REPO / "perfbench").glob("*.py")
)
DOCS = [REPO / "README.md", REPO / "docs" / "FORMATS.md"]


def public_members(path):
    """(name, qualified name, first line, last line) of each public
    module-level function and each public method or property of a class."""
    tree = ast.parse(path.read_text(), str(path))
    for node in tree.body:
        defs = [(node, "")]
        if isinstance(node, ast.ClassDef):
            defs = [(item, node.name + ".") for item in node.body]
        for d, owner in defs:
            if isinstance(d, ast.FunctionDef) and not d.name.startswith("_"):
                yield d.name, owner + d.name, d.lineno, d.end_lineno


def references(path):
    """(name, line) of every identifier a Python file uses, attribute names
    and identifier-like strings included; `__init__`'s imports only re-export."""
    tree = ast.parse(path.read_text(), str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno
        elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            yield from ((alias.name, node.lineno) for alias in node.names)


def doc_names(path) -> set[str]:
    """The identifiers inside a Markdown file's code blocks and `code` spans."""
    chunks = path.read_text().split("```")
    code = chunks[1::2] + [span for text in chunks[::2] for span in re.findall(r"`([^`]*)`", text)]
    return {name for text in code for name in re.findall(r"[A-Za-z_]\w*", text)}


def callerless_members(sources, callers, docs) -> list[str]:
    """The public members of the source modules that no caller file names
    outside the member's own definition, and no document names."""
    documented = set().union(*map(doc_names, docs))
    where = defaultdict(list)  # name -> (file, line) of each reference
    for path in callers:
        for name, line in references(path):
            where[name].append((path, line))
    out = []
    for path in sources:
        for name, qual, first, last in public_members(path):
            outside = (p != path or not first <= line <= last for p, line in where[name])
            if name not in documented and not any(outside):
                out.append(f"{path.name}: {qual}")
    return out


def test_no_callerless_members():
    """Every public function, method and property of graphck has a caller in
    `src/`, the scripts or perfbench, or is named in README or FORMATS.md."""
    assert callerless_members(sorted(SRC.glob("*.py")), CALLERS, DOCS) == []


def test_callerless_check_catches_each_fault(tmp_path):
    lib, caller, doc = tmp_path / "lib.py", tmp_path / "caller.py", tmp_path / "doc.md"
    init = tmp_path / "__init__.py"
    lib.write_text(
        "def orphan():\n"
        "    return orphan()\n"
        "def called():\n"
        "    pass\n"
        "def exported():\n"
        "    pass\n"
        "class C:\n"
        "    def unused(self):\n"
        "        pass\n"
        "    def by_string(self):\n"
        "        pass\n"
        "    def documented(self):\n"
        "        pass\n"
        "    def _private(self):\n"
        "        pass\n"
    )
    caller.write_text("from lib import called\ncalled()\ngetattr(C(), 'by_string')()\n")
    init.write_text("from .lib import exported\n")
    doc.write_text("Call `C().documented()`; unused is not in code.\n")
    found = callerless_members([lib], [lib, caller, init], [doc])
    assert found == ["lib.py: orphan", "lib.py: exported", "lib.py: C.unused"]


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


# -- the mutant catalogue --------------------------------------------------------------


def test_every_catalogued_mutant_applies_once():
    """Each mutant's text occurs exactly once in its file, and changes it;
    the names are distinct and each named test file exists.  Whether the
    tests kill the mutants is `scripts/run_mutants.py`'s to check."""
    assert len({m["name"] for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert (REPO / m["file"]).read_text().count(m["old"]) == 1, m["name"]
        assert m["new"] != m["old"] and m["tests"] and m["origin"], m["name"]
        for test in m["tests"]:
            assert (REPO / test.partition("::")[0]).is_file(), (m["name"], test)
