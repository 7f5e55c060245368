"""The names the package exports, and the names the benchmark's tracer looks
up in each ``dualsvd`` module, all resolve."""

import ast
import importlib
from pathlib import Path

import dualsvd

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_all_names_resolve():
    assert [name for name in dualsvd.__all__ if not hasattr(dualsvd, name)] == []


def test_bench_trace_targets_exist():
    # Read TARGETS from the source: bench/ is not a package the tests import.
    tree = ast.parse(SPANS.read_text())
    (targets,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]
    ]
    missing = [
        f"{mod}.{name}"
        for mod, names in targets.items()
        for name in names
        if not hasattr(importlib.import_module("dualsvd." + mod), name)
    ]
    assert targets and missing == []
