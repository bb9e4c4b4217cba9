import csv
import io
from pathlib import Path

import numpy as np
import pytest

from glohage import metrics
from glohage.errors import EmptyError, LengthMismatchError


class TestMae:
    def test_perfect(self):
        assert metrics.mae([1, 2, 3], [1, 2, 3]) == 0.0

    def test_symmetric_errors(self):
        assert metrics.mae([5, 5], [0, 10]) == 5.0

    def test_single(self):
        assert metrics.mae([3], [7]) == 4.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        p = rng.uniform(0, 70, 30)
        t = rng.uniform(0, 70, 30)
        assert metrics.mae(p + 9, t + 9) == pytest.approx(metrics.mae(p, t))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            metrics.mae([1, 2], [1])

    def test_empty(self):
        with pytest.raises(EmptyError):
            metrics.mae([], [])


class TestCumulativeScore:
    def test_two_thirds(self):
        assert metrics.cumulative_score([0, 3, 12], [0, 0, 0], 5) == pytest.approx(2 / 3)

    def test_exact_hits(self):
        assert metrics.cumulative_score([4, 5], [4, 5], 0) == 1.0

    def test_tolerance_above_max_error(self):
        assert metrics.cumulative_score([0, 30], [10, 10], 20) == 1.0

    def test_monotone_in_tolerance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            p = rng.uniform(0, 70, 25)
            t = rng.uniform(0, 70, 25)
            cs = [metrics.cumulative_score(p, t, j) for j in range(0, 80)]
            assert all(a <= b for a, b in zip(cs, cs[1:]))
            assert cs[-1] == 1.0


class TestAggregate:
    def test_single_fold_equals_fold_mae(self):
        rep = metrics.aggregate([("p1", np.array([4.0, 8.0]), np.array([5.0, 5.0]))])
        assert rep.mae == pytest.approx(2.0)
        assert rep.per_fold == [("p1", 2, 2.0)]

    def test_pooled_not_mean_of_folds(self):
        rep = metrics.aggregate(
            [
                ("p1", np.array([8.0]), np.array([0.0])),
                ("p2", np.zeros(3), np.zeros(3)),
            ]
        )
        assert rep.mae == pytest.approx(2.0)  # mean of fold MAEs would be 4
        assert rep.n == 4

    def test_all_perfect(self):
        rep = metrics.aggregate(
            [("p1", np.ones(4), np.ones(4)), ("p2", np.zeros(2), np.zeros(2))]
        )
        assert rep.mae == 0.0
        assert np.all(rep.cs_curve == 1.0)

    def test_pooled_equals_weighted_fold_mean(self):
        rng = np.random.default_rng(2)
        folds = []
        for i in range(6):
            n = int(rng.integers(1, 9))
            folds.append((f"p{i}", rng.uniform(0, 70, n), rng.uniform(0, 70, n)))
        rep = metrics.aggregate(folds)
        weighted = sum(n * m for _, n, m in rep.per_fold) / rep.n
        assert abs(rep.mae - weighted) < 1e-12

    def test_empty(self):
        with pytest.raises(EmptyError):
            metrics.aggregate([])

    def test_cs_curve_range(self):
        rep = metrics.aggregate(
            [("p1", np.array([0.0, 3.0, 12.0]), np.zeros(3))], cs_max=15
        )
        assert rep.cs_curve.shape == (16,)
        assert rep.cs_curve[0] == pytest.approx(1 / 3)
        assert rep.cs_curve[15] == 1.0


def test_report_csv_format(tmp_path):
    rep = metrics.aggregate(
        [("p1", np.array([4.0]), np.array([5.0])), ("p2", np.zeros(2), np.zeros(2))],
        cs_max=2,
    )
    path = str(tmp_path / "report.csv")
    metrics.write_report(path, rep)
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    assert lines[0].startswith("summary,3,")
    assert lines[1].startswith("std,")
    assert [ln.split(",")[0] for ln in lines[2:5]] == ["cs", "cs", "cs"]
    assert lines[5].split(",")[:2] == ["fold", "p1"]
    assert lines[6].split(",")[:2] == ["fold", "p2"]


def test_report_quotes_ids_with_commas():
    ids = ["p,1", 'q"2', "r3"]
    rep = metrics.aggregate([(p, np.array([4.0]), np.array([5.0])) for p in ids], cs_max=1)
    text = metrics.format_report(rep)
    folds = [row for row in csv.reader(io.StringIO(text)) if row[0] == "fold"]
    assert [len(row) for row in folds] == [4, 4, 4]
    assert [row[1] for row in folds] == ids
    assert text.splitlines()[-1] == "fold,r3,1,1.0"
