"""The package functions the benchmark times must exist, and the program
must call them.

``perfbench/tracer.py`` wraps the functions named in its ``TRACED`` table
by module and name, and one it cannot find, or one the program no longer
calls, yields no span, so its per-layer metrics read zero instead of
failing. The table is read here as text, without importing the benchmark,
so renaming a package function, or routing the program around it, fails
these tests instead.
"""

import ast
import functools
import importlib
from collections import defaultdict
from pathlib import Path

import numpy as np

from glohage import cli, gloh

from pgmfile import write_pgm

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
# only the benchmark's read-back of the extracted file calls read_features:
# every subcommand reads a GFV1 file through featfile.FeatureFile
BENCHMARK_ONLY = {("featfile", "read_features")}


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
    missing = sorted(
        (module, name)
        for module, name in traced_names()
        if not hasattr(importlib.import_module(f"glohage.{module}"), name)
    )
    assert not missing, f"traced by the benchmark but not in the package: {missing}"


def test_the_subcommands_call_every_traced_function(tmp_path, monkeypatch):
    # extract, synth, select in both modes, train with and without a
    # selection, predict and evaluate, in one process, with each traced
    # function wrapped where the tracer would wrap it, to record which
    # subcommand called it
    names = traced_names()
    assert BENCHMARK_ONLY <= names, "a name listed here is no longer traced: drop it"
    called, running = defaultdict(set), []

    def recorded(key, fn):
        @functools.wraps(fn)
        def record(*args, **kwargs):
            called[running[-1]].add(key)
            return fn(*args, **kwargs)

        return record

    for module, name in names:
        mod = importlib.import_module(f"glohage.{module}")
        if hasattr(mod, name):
            monkeypatch.setattr(mod, name, recorded((module, name), getattr(mod, name)))
    gloh._layout.cache_clear()  # so that this extraction computes its layout

    rng = np.random.default_rng(0)
    lines = ["path,person_id,age,gender"]
    for i in range(4):
        write_pgm(rng.integers(0, 256, (68, 62), dtype=np.uint8), str(tmp_path / f"{i}.pgm"))
        lines.append(f"{i}.pgm,p{i // 2},{20 + i},{'mf'[i % 2]}")
    images = tmp_path / "images.csv"
    images.write_text("\n".join(lines) + "\n", encoding="utf-8")

    d = str(tmp_path / "synth")
    man, feat = f"{d}/manifest.csv", f"{d}/features.gfv"
    data = ["--manifest", man, "--features", feat]
    runs = [
        ["extract", "--manifest", str(images), "--out", str(tmp_path / "images.gfv")],
        ["synth", "--out-dir", d, "--k", "60", "--n", "20", "--support", "4",
         "--sigma", "0.5"],
        ["select", *data, "--budget", "5", "--out", f"{d}/sel.txt"],
        ["select", *data, "--budget", "5", "--mode", "stl", "--out", f"{d}/stl.txt"],
        ["train", *data, "--budget", "5", "--out", f"{d}/model.txt"],
        ["train", *data, "--selection", f"{d}/sel.txt", "--out", f"{d}/model.txt"],
        ["predict", "--model", f"{d}/model.txt", "--features", feat, "--manifest", man,
         "--out", f"{d}/pred.csv"],
        ["evaluate", *data, "--budget", "5", "--out", f"{d}/report.csv"],
    ]
    for argv in runs:
        running.append(argv[0])
        assert cli.main(argv) == 0, argv
    uncalled = sorted(names - BENCHMARK_ONLY - set().union(*called.values()))
    assert not uncalled, f"traced by the benchmark but never called: {uncalled}"
    # synth writes through the GFV1 writer too, but the benchmark times it
    # under extract
    assert ("featfile", "write_features") in called["extract"]
