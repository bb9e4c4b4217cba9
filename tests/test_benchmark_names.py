"""The package functions the benchmark times must exist.

``perfbench/tracer.py`` wraps the functions named in its ``TRACED`` table
by module and name, and one it cannot find yields no span, so its
per-layer metrics read zero instead of failing. The table is read here
as text, without importing the benchmark, so renaming a package function
fails this test instead.
"""

import ast
import importlib
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
# dataset.partition_by_task is gone from the package: dataset.task_rows
# took its place. The benchmark still names it, and only a change to the
# benchmark may drop it (ROADMAP item 1).
GONE = {("dataset", "partition_by_task")}


def traced_names():
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            table = ast.literal_eval(node.value)
            return {(module, name) for module, names in table.items() for name in names}
    raise AssertionError(f"no TRACED table in {TRACER}")


def test_every_traced_name_resolves_in_the_package():
    names = traced_names()
    assert GONE <= names, "a name listed as gone is no longer traced: drop it here"
    missing = sorted(
        (module, name)
        for module, name in names - GONE
        if not hasattr(importlib.import_module(f"glohage.{module}"), name)
    )
    assert not missing, f"traced by the benchmark but not in the package: {missing}"
