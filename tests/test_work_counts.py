"""The program's work, counted exactly for a seed.

Wall time cannot resolve a change of a few percent on a shared machine,
but the work a seeded run does is a fixed set of numbers. This test runs
one ``select`` and one small ``evaluate`` through ``cli.main`` on seeded
``glohage synth`` corpora and pins, through wrappers on the package's
functions, the solves of each lambda search, the KKT screen's full-width
refreshes, the bins scored in float64, the FISTA calls, the prox
evaluations, the ridge eigendecompositions and the GFV1 body bytes read.

The counts are pinned numbers: a change that alters the program's work
changes them here, in its diff, with old -> new in CHANGES.md.
"""

import functools

import numpy as np
import pytest

from glohage import cli, featfile, mtl


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    d = tmp_path_factory.mktemp("work")
    for name, args in (("fit", ["--k", "300", "--n", "60", "--support", "8"]),
                       ("lopo", ["--k", "200", "--n", "20", "--support", "5"])):
        argv = ["synth", "--out-dir", str(d / name), *args, "--sigma", "0.5", "--seed", "4"]
        assert cli.main(argv) == 0
    return d


def count_work(monkeypatch, argv):
    """Run ``argv`` through ``cli.main``; returns its work counts."""
    counts = {"solves": [], "refreshes": 0, "scored": 0, "fista": 0, "prox": 0,
              "eigh": 0, "gfv1_bytes": 0}

    def wrap(owner, name, count):
        fn = getattr(owner, name)

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            count(*args)
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    def add(key, n=1):
        counts[key] += n

    wrap(mtl, "fit_for_budget", lambda *a: counts["solves"].append(0))
    wrap(mtl, "solve", lambda *a: counts["solves"].__setitem__(-1, counts["solves"][-1] + 1))
    wrap(mtl._Screen, "refresh", lambda *a: add("refreshes"))
    wrap(mtl, "_exact_scores", lambda P, data, rows, mode: add("scored", len(rows)))
    wrap(mtl, "_fista", lambda *a: add("fista"))
    wrap(mtl, "_prox", lambda *a: add("prox"))
    wrap(np.linalg, "eigh", lambda *a: add("eigh"))
    wrap(featfile.FeatureFile, "_read",
         lambda self, fh, rows, out: add("gfv1_bytes", 4 * self.shape[1] * len(rows)))
    assert cli.main(argv) == 0, argv
    monkeypatch.undo()
    return counts


def test_select_work(corpora, monkeypatch, tmp_path):
    d = corpora / "fit"
    argv = ["select", "--manifest", str(d / "manifest.csv"),
            "--features", str(d / "features.gfv"), "--budget", "10",
            "--out", str(tmp_path / "sel.txt")]
    assert count_work(monkeypatch, argv) == {
        "solves": [23], "refreshes": 9, "scored": 42, "fista": 30, "prox": 164,
        "eigh": 0, "gfv1_bytes": 4 * 300 * 120,  # every row, once
    }


def test_evaluate_work(corpora, monkeypatch, tmp_path):
    d = corpora / "lopo"
    argv = ["evaluate", "--manifest", str(d / "manifest.csv"),
            "--features", str(d / "features.gfv"), "--budget", "6",
            "--out", str(tmp_path / "report.csv")]
    assert count_work(monkeypatch, argv) == {
        "solves": [22, 22, 22, 22, 22, 21, 22, 22], "refreshes": 62, "scored": 492,
        "fista": 217, "prox": 1671,
        "eigh": 8,  # each fold fits the one regressor its held-out person uses
        "gfv1_bytes": 8 * 4 * 200 * 40,  # each of 8 folds reads every row once
    }
