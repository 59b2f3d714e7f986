"""The traced benchmark's span table names only attributes that exist."""

import importlib
import importlib.util

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
