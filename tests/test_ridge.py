import random
from pathlib import Path

import numpy as np
import pytest

from glohage import featfile, ridge
from glohage.errors import (
    FeatureTooShortError,
    GridEmptyError,
    MalformedRowError,
    NonFiniteError,
    ShapeMismatchError,
    SingularSystemError,
    UnknownTaskError,
)

import oracles


def dense_oracle(X, y, alpha):
    """Explicit inverse-based ridge solution on centered data."""
    Xc = X - X.mean(axis=0)
    yc = y - y.mean()
    w = np.linalg.inv(Xc.T @ Xc + alpha * np.eye(X.shape[1])) @ (Xc.T @ yc)
    return w, y.mean() - X.mean(axis=0) @ w


class TestFitRidge:
    def test_orthonormal_design(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((12, 4)))
        X = q - q.mean(axis=0)
        # re-orthonormalize after centering
        X, _ = np.linalg.qr(X)
        y = rng.standard_normal(12)
        w, _ = ridge.fit_ridge(ridge._Ridge(X, y), 0.0)
        Xc = X - X.mean(axis=0)
        assert np.allclose(w, Xc.T @ (y - y.mean()), atol=1e-10)

    def test_huge_alpha_limit(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((20, 5))
        y = rng.standard_normal(20) + 30
        w, b = ridge.fit_ridge(ridge._Ridge(X, y), 1e12)
        assert np.abs(w).max() < 1e-9
        assert b == pytest.approx(y.mean(), abs=1e-6)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((20, 5))
        y = rng.standard_normal(20)
        w, b = ridge.fit_ridge(ridge._Ridge(X, y), 0.1)
        w_ref, b_ref = dense_oracle(X, y, 0.1)
        assert np.abs(w - w_ref).max() < 1e-8
        assert b == pytest.approx(b_ref, abs=1e-8)

    def test_normal_equations_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            X = rng.standard_normal((25, 6))
            y = rng.standard_normal(25)
            alpha = float(rng.uniform(0.01, 10))
            w, _ = ridge.fit_ridge(ridge._Ridge(X, y), alpha)
            Xc = X - X.mean(axis=0)
            rhs = Xc.T @ (y - y.mean())
            resid = (Xc.T @ Xc + alpha * np.eye(6)) @ w - rhs
            assert np.linalg.norm(resid) <= 1e-8 * (1 + np.linalg.norm(rhs))

    def test_singular_without_regularization(self):
        rng = np.random.default_rng(26)
        Z = rng.standard_normal((20, 3))
        designs = [
            (np.ones((10, 3)), np.arange(10.0)),  # rank 1 -> rank 0 after centering
            # rank 3 of 4, the design of test_zero_alpha_on_rank_deficient_split
            (np.column_stack([Z, Z[:, 0] + Z[:, 1]]), rng.standard_normal(20)),
        ]
        for X, y in designs:
            with pytest.raises(SingularSystemError):
                ridge.fit_ridge(ridge._Ridge(X, y), 0.0)

    def test_negative_alpha(self):
        with pytest.raises(ValueError, match="alpha must be nonnegative"):
            ridge.fit_ridge(ridge._Ridge(np.eye(3), np.ones(3)), -1.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ridge.fit_ridge(ridge._Ridge(np.zeros((5, 2)), np.zeros(4)), 1.0)

    def test_monotone_shrinkage(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 8))
        y = rng.standard_normal(30)
        alphas = [0.01, 0.1, 1.0, 10.0, 100.0]
        fit = ridge._Ridge(X, y)
        norms = [np.linalg.norm(ridge.fit_ridge(fit, a)[0]) for a in alphas]
        for n1, n2 in zip(norms, norms[1:]):
            assert n1 >= n2 - 1e-10

    def test_bits_do_not_depend_on_memory_layout(self):
        # C- and Fortran-ordered copies of one design give the same bits
        rng = np.random.default_rng(5)
        for _ in range(5):
            X = rng.standard_normal((1002, 50))
            y = rng.standard_normal(1002)
            wc, bc = ridge.fit_ridge(ridge._Ridge(np.ascontiguousarray(X), y), 1.0)
            wf, bf = ridge.fit_ridge(ridge._Ridge(np.asfortranarray(X), y), 1.0)
            assert wc.tobytes() == wf.tobytes()
            assert bc == bf

    def test_centering_shift_property(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((15, 4))
        y = rng.standard_normal(15)
        w0, b0 = ridge.fit_ridge(ridge._Ridge(X, y), 0.5)
        w1, b1 = ridge.fit_ridge(ridge._Ridge(X, y + 11.0), 0.5)
        assert np.allclose(w0, w1, atol=1e-9)
        assert b1 - b0 == pytest.approx(11.0, abs=1e-9)


class TestSelectAlpha:
    def test_noiseless_prefers_small_alpha(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((40, 5))
        y = X @ rng.standard_normal(5)
        assert ridge.select_alpha(ridge._Ridge(X, y), [1e-6, 1e3], seed=0) == 1e-6

    def test_single_element_grid(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((10, 2))
        assert ridge.select_alpha(ridge._Ridge(X, rng.standard_normal(10)), [3.3]) == 3.3

    def test_pure_noise_prefers_large_alpha(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((40, 10))
        y = rng.standard_normal(40)
        assert ridge.select_alpha(ridge._Ridge(X, y), [1e-6, 1e6], seed=0) == 1e6

    def test_empty_grid(self):
        with pytest.raises(GridEmptyError):
            ridge.select_alpha(ridge._Ridge(np.zeros((10, 1)), np.zeros(10)), [])

    def test_negative_alpha(self):
        with pytest.raises(ValueError, match="alpha must be nonnegative"):
            ridge.select_alpha(ridge._Ridge(np.zeros((10, 1)), np.zeros(10)),
                               [1.0, -0.5])

    def test_too_few_samples(self):
        # fewer rows than CV_FOLDS take the middle of the grid, once the
        # grid has passed its checks
        fit = ridge._Ridge(np.zeros((3, 1)), np.zeros(3))
        assert ridge.select_alpha(fit, [0.1, 1.0, 10.0]) == 1.0
        assert ridge.select_alpha(fit, [5.0]) == 5.0
        with pytest.raises(ValueError, match="alpha must be nonnegative"):
            ridge.select_alpha(fit, [0.1, 1.0, -0.5])

    @pytest.mark.parametrize(
        "n, p, seed",
        [(40, 5, 20), (97, 50, 21), (195, 50, 22), (30, 45, 23), (25, 0, 24)],
    )
    def test_matches_cholesky_oracle(self, n, p, seed):
        rng = np.random.default_rng(seed)
        grid = ridge.DEFAULT_ALPHA_GRID
        for trial in range(5):
            X = rng.standard_normal((n, p)) * rng.uniform(0.1, 10)
            y = X @ rng.standard_normal(p) + rng.uniform(0.5, 5) * rng.standard_normal(n)
            assert ridge.select_alpha(ridge._Ridge(X, y), grid, seed=trial) == (
                oracles.select_alpha_oracle(X, y, grid, k=5, seed=trial)
            )

    def test_empty_selection_ties_go_to_larger_alpha(self):
        y = np.random.default_rng(25).standard_normal(20)
        fit = ridge._Ridge(np.zeros((20, 0)), y)
        assert ridge.select_alpha(fit, [0.1, 10.0, 1.0]) == 10.0

    def test_zero_alpha_on_rank_deficient_split(self):
        rng = np.random.default_rng(26)
        X = rng.standard_normal((20, 3))
        X = np.column_stack([X, X[:, 0] + X[:, 1]])  # rank 3 of 4
        y = rng.standard_normal(20)
        with pytest.raises(SingularSystemError):
            ridge.select_alpha(ridge._Ridge(X, y), [0.0, 1.0])
        assert ridge.select_alpha(ridge._Ridge(X, y), [0.1, 1.0]) in (0.1, 1.0)


    def test_zero_alpha_on_rank_deficient_splits_of_a_full_rank_design(self):
        # 30 rows of 26 bins have full column rank, but each 24-row training
        # split has rank at most 23 after centering
        rng = np.random.default_rng(39)
        X = rng.standard_normal((30, 26))
        y = rng.standard_normal(30)
        assert np.linalg.matrix_rank(X - X.mean(axis=0)) == 26
        ridge.fit_ridge(ridge._Ridge(X, y), 0.0)
        with pytest.raises(SingularSystemError):
            ridge.select_alpha(ridge._Ridge(X, y), [0.0, 1.0])

class TestCvOrder:
    # the cross-validation's row order is the package's port of numpy's
    # default_rng(seed).permutation(n); numpy stays the reference here only

    @pytest.mark.parametrize("seed, n, order", [
        (0, 10, [4, 6, 2, 7, 3, 5, 9, 0, 8, 1]),
        (1, 7, [5, 0, 1, 4, 2, 6, 3]),
        (3, 16, [11, 15, 9, 1, 12, 2, 14, 10, 0, 4, 7, 6, 13, 5, 3, 8]),
        (2 ** 32, 9, [1, 3, 6, 7, 8, 0, 4, 2, 5]),  # a two-word seed
        (2 ** 64 + 5, 12, [0, 2, 10, 6, 5, 9, 11, 4, 8, 3, 7, 1]),
        (2 ** 160 + 3, 9, [3, 5, 6, 1, 4, 0, 8, 7, 2]),  # more words than the pool
        (12345, 1, [0]),
        (0, 0, []),
    ])
    def test_golden_permutations(self, seed, n, order):
        got = ridge._cv_order(seed, n)
        assert got.dtype == np.int64 and got.tolist() == order

    def test_matches_numpy_on_a_seed_grid(self):
        # seeds 0-39, and one random seed of each of 31, 44, ..., 200 bits
        wide = [random.Random(b).getrandbits(b) | 1 << (b - 1) for b in range(31, 201, 13)]
        seeds = [*range(40), *wide]
        sizes = [0, 1, 2, 3, 5, 8, 9, 31, 32, 33, 190, 257, 1002, 4097]
        for seed in seeds:
            for n in sizes:
                want = np.random.default_rng(seed).permutation(n)
                assert np.array_equal(ridge._cv_order(seed, n), want), (seed, n)

    def test_negative_seed(self):
        with pytest.raises(ValueError, match="non-negative"):
            ridge._cv_order(-1, 5)


def make_model(selected, weights, intercept, clamp=(0.0, 69.0), task="male"):
    m = ridge.RidgeModel(selected=np.asarray(selected, dtype=int))
    m.weights[task] = np.asarray(weights, dtype=np.float64)
    m.intercepts[task] = intercept
    m.alphas[task] = 1.0
    m.clamp = clamp
    return m


def predict(model, x, task):
    """Clamped ages of one full-length feature row or of each row of a
    matrix, checked and gathered as pipeline.predict_rows does."""
    x = np.asarray(x)
    ridge.check_features(model, x.shape[-1], task)
    return ridge.predict_selected(model, x[..., model.selected], task)


class TestPredict:
    def test_zero_weights_gives_intercept(self):
        m = make_model([0, 2], [0.0, 0.0], 33.0)
        assert predict(m, np.ones(5), "male") == pytest.approx(33.0)

    def test_clamp_floor(self):
        m = make_model([0], [1.0], 0.0, clamp=(0.0, 69.0))
        assert predict(m, np.array([-4.0]), "male") == 0.0

    def test_unknown_task(self):
        m = make_model([0], [1.0], 0.0)
        with pytest.raises(UnknownTaskError):
            predict(m, np.ones(3), "robot")

    def test_feature_too_short(self):
        m = make_model([5], [1.0], 0.0)
        with pytest.raises(FeatureTooShortError):
            predict(m, np.ones(3), "male")

    def test_unselected_bins_ignored(self):
        rng = np.random.default_rng(9)
        m = make_model([1, 3], [2.0, -1.0], 5.0, clamp=(-1e9, 1e9))
        x = rng.standard_normal(6)
        base = predict(m, x, "male")
        x2 = x.copy()
        x2[[0, 2, 4, 5]] = rng.standard_normal(4) * 100
        assert predict(m, x2, "male") == pytest.approx(base)

    def test_matrix_equals_row_by_row(self):
        rng = np.random.default_rng(28)
        m = make_model([1, 4, 6], rng.standard_normal(3), 30.0, clamp=(25.0, 35.0))
        X = (rng.standard_normal((9, 8)) * 3).astype(np.float32)
        preds = predict(m, X, "male")
        assert preds.shape == (9,)
        assert np.abs(preds - [predict(m, x, "male") for x in X]).max() <= 1e-12
        assert predict(m, X[:0], "male").shape == (0,)

    def test_selected_block_bits_do_not_depend_on_memory_order(self):
        # a product over a C-ordered block and one over an F-ordered block
        # round differently (in about half of these 40 rows), so
        # predict_selected takes both through one F-ordered copy
        rng = np.random.default_rng(40)
        m = make_model(np.arange(10), rng.standard_normal(10), 0.0, clamp=(-1e9, 1e9))
        X = rng.standard_normal((40, 10)).astype(np.float32).astype(np.float64)
        c = ridge.predict_selected(m, np.ascontiguousarray(X), "male")
        f = ridge.predict_selected(m, np.asfortranarray(X), "male")
        assert c.tobytes() == f.tobytes()

    def test_recovers_training_label_noiseless(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((30, 4))
        w_true = rng.standard_normal(4)
        y = X @ w_true + 20
        w, b = ridge.fit_ridge(ridge._Ridge(X, y), 1e-9)
        m = make_model([0, 1, 2, 3], w, b, clamp=(y.min(), y.max()))
        assert predict(m, X[7], "male") == pytest.approx(y[7], abs=1e-3)


class TestFitModel:
    def test_per_task_and_pooled(self):
        rng = np.random.default_rng(11)
        X1 = rng.standard_normal((25, 10))
        X2 = rng.standard_normal((30, 10))
        w = np.zeros(10)
        w[[2, 5]] = [1.5, -2.0]
        features = np.vstack([X1, X2])
        ages = np.concatenate([X1 @ w + 30, X2 @ (0.8 * w) + 28])
        rows = {"male": list(range(25)), "female": list(range(25, 55))}
        model = ridge.fit_model(features, ages, rows, np.array([2, 5]))
        assert set(model.weights) == {"male", "female", ridge.POOLED}
        pred = predict(model, X1[0], "male")
        assert pred == pytest.approx(float(X1[0] @ w + 30), abs=0.5)

    def test_too_few_samples_take_the_middle_of_the_grid(self):
        rng = np.random.default_rng(27)
        X = rng.standard_normal((3, 4))
        model = ridge.fit_model(
            X, X[:, 0] + 30, {"male": [0, 1, 2]}, np.array([0, 2]),
            alpha_grid=[0.1, 1.0, 10.0],
        )
        assert model.alphas == {"male": 1.0, ridge.POOLED: 1.0}

    @pytest.mark.parametrize("seed", [0, 3])
    def test_each_regressor_is_fit_ridge_at_select_alpha(self, monkeypatch, seed):
        # one eigendecomposition per regressor gives the bits of
        # select_alpha's cross-validation and fit_ridge's final fit
        rng = np.random.default_rng(41)
        X = rng.standard_normal((60, 12)).astype(np.float32)
        ages = np.rint(30 + X[:, [1, 5, 8]] @ [4.0, -3.0, 2.0] + rng.standard_normal(60))
        rows = {"male": [*range(0, 60, 2), 7, 21], "female": list(range(1, 60, 2))}
        rows["male"].sort()
        selected, grid = np.array([1, 3, 5, 8, 10]), [0.01, 0.1, 1.0, 10.0, 100.0]
        eigh, calls = np.linalg.eigh, []
        monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a) or eigh(a))
        model = ridge.fit_model(X, ages, rows, selected, grid, seed)
        assert len(calls) == 3
        pooled = rows["male"] + [r for r in rows["female"] if r not in rows["male"]]
        for task, idx in {**rows, ridge.POOLED: pooled}.items():
            Xs = X[np.ix_(idx, selected)].astype(np.float64)
            alpha = ridge.select_alpha(ridge._Ridge(Xs, ages[idx]), grid, seed)
            w, b = ridge.fit_ridge(ridge._Ridge(Xs, ages[idx]), alpha)
            assert model.alphas[task] == alpha
            assert model.weights[task].tobytes() == w.tobytes()
            assert model.intercepts[task] == b

    def test_empty_selection_intercept_only(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((20, 6))
        y = rng.standard_normal(20) + 40
        model = ridge.fit_model(X, y, {"male": list(range(20))}, np.array([], dtype=int))
        assert predict(model, X[0], "male") == pytest.approx(y.mean(), abs=1e-9)


def test_non_finite_selected_bin_is_rejected():
    # a fit or a prediction reads only the selected bins, and rejects a
    # non-finite value among them; other bins are never read
    rng = np.random.default_rng(14)
    X = rng.standard_normal((20, 6)).astype(np.float32)
    y = rng.integers(10, 60, 20)
    rows = {"male": list(range(12)), "female": list(range(8, 20))}
    selected = np.array([1, 4])
    X[3, 0] = X[5, 5] = np.inf
    model = ridge.fit_model(X, y, rows, selected)
    assert np.all(np.isfinite(predict(model, X, "female")))
    for bad in (np.nan, np.inf, -np.inf):
        Y = X.copy()
        Y[15, 4] = bad  # a female-only row
        with pytest.raises(NonFiniteError):
            ridge.fit_model(Y, y, rows, selected)
        with pytest.raises(NonFiniteError):
            predict(model, Y, "male")
        with pytest.raises(NonFiniteError):
            predict(model, Y[15], ridge.POOLED)


def test_fit_model_reads_a_feature_file_once(tmp_path, monkeypatch):
    # genders alternate and every fifth row has none, so it is in both
    # tasks: the male, female and pooled fits take their rows from one
    # gather and fit the same bits as from the array
    rng = np.random.default_rng(15)
    X = rng.standard_normal((40, 8)).astype(np.float32)
    y = rng.integers(10, 60, 40)
    unknown = set(range(4, 40, 5))
    rows = {t: sorted({*range(i, 40, 2), *unknown}) for i, t in enumerate(("male", "female"))}
    path = str(tmp_path / "f.gfv")
    featfile.write_features(path, [X])
    reads, read = [], featfile.FeatureFile.__getitem__
    monkeypatch.setattr(featfile.FeatureFile, "__getitem__",
                        lambda f, key: reads.append(key) or read(f, key))
    got = ridge.fit_model(featfile.FeatureFile(path), y, rows, [6, 1, 4])
    want = ridge.fit_model(X, y, rows, [6, 1, 4])
    assert len(reads) == 1
    assert (got.clamp, got.alphas, got.intercepts) == (want.clamp, want.alphas, want.intercepts)
    assert {t: w.tobytes() for t, w in got.weights.items()} == {
        t: w.tobytes() for t, w in want.weights.items()}


def test_model_file_roundtrip(tmp_path):
    rng = np.random.default_rng(13)
    m = ridge.RidgeModel(selected=np.array([1, 4, 9]))
    for task in ("male", "female", ridge.POOLED):
        m.weights[task] = rng.standard_normal(3)
        m.intercepts[task] = float(rng.standard_normal())
        m.alphas[task] = 0.1
    m.clamp = (0.0, 69.0)
    path = str(tmp_path / "model.txt")
    ridge.write_model(path, m)
    back = ridge.read_model(path)
    assert np.array_equal(back.selected, m.selected)
    assert back.clamp == m.clamp
    for task in m.weights:
        assert np.allclose(back.weights[task], m.weights[task])
        assert back.intercepts[task] == m.intercepts[task]
        assert back.alphas[task] == m.alphas[task]
    assert Path(path).read_text(encoding="utf-8").splitlines()[0] == "GLOHRIDGE 1"


@pytest.mark.parametrize(
    "body, error",
    [
        ("task=m\nalpha=1.0\nintercept=2.0\n3 1.0 2.0\n", MalformedRowError),
        ("alpha=1.0\n", MalformedRowError),  # before any task
        ("task=m\nalpha=1.0\n3 1.0\n", MalformedRowError),  # no intercept
        (
            "task=m\nalpha=1.0\nintercept=2.0\n3 1.0\n"
            "task=f\nalpha=1.0\nintercept=2.0\n4 1.0\n",
            ShapeMismatchError,
        ),
        ("task=m\nalpha=1.0\nintercept=2.0\n3 inf\n", NonFiniteError),
        ("task=m\nalpha=1.0\nintercept=2.0\n-3 1.0\n", MalformedRowError),
        (  # a repeated task
            "task=m\nalpha=1.0\nintercept=2.0\nclamp=0.0 69.0\n3 1.0\n"
            "task=m\nalpha=2.0\nintercept=3.0\nclamp=0.0 69.0\n3 2.0\n",
            MalformedRowError,
        ),
        ("task=m\nalpha=1.0\nintercept=2.0\n3 1.0\n", MalformedRowError),  # no clamp
        (  # clamp on the first task only
            "task=m\nalpha=1.0\nintercept=2.0\nclamp=0.0 69.0\n3 1.0\n"
            "task=f\nalpha=1.0\nintercept=2.0\n3 1.0\n",
            MalformedRowError,
        ),
        (  # clamps that differ between tasks
            "task=m\nalpha=1.0\nintercept=2.0\nclamp=0.0 69.0\n3 1.0\n"
            "task=f\nalpha=1.0\nintercept=2.0\nclamp=0.0 70.0\n3 1.0\n",
            MalformedRowError,
        ),
        ("task=m\nalpha=1.0\nintercept=2.0\nclamp=69.0 0.0\n3 1.0\n", MalformedRowError),
        ("task=m\nalpha=nan\nintercept=2.0\nclamp=0.0 69.0\n3 1.0\n", NonFiniteError),
        ("task=m\nalpha=-3\nintercept=2.0\nclamp=0.0 69.0\n3 1.0\n", MalformedRowError),
        ("task=m\nalpha=1.0\nintercept=nan\nclamp=0.0 69.0\n3 1.0\n", NonFiniteError),
        ("task=m\nalpha=1.0\nintercept=2.0\nclamp=-inf 69.0\n3 1.0\n", NonFiniteError),
        ("task=m\nalpha=1.0\nintercept=2.0\nclamp=0.0 nan\n3 1.0\n", NonFiniteError),
        (  # a repeated alpha, intercept and bin in one task
            "task=m\nalpha=1.0\nalpha=5.0\nintercept=2.0\nintercept=9.0\n"
            "clamp=0.0 69.0\n3 1.0\n3 2.0\n",
            MalformedRowError,
        ),
        (
            "task=m\nalpha=1.0\nintercept=2.0\nintercept=9.0\nclamp=0.0 69.0\n3 1.0\n",
            MalformedRowError,
        ),
        (
            "task=m\nalpha=1.0\nintercept=2.0\nclamp=0.0 69.0\nclamp=0.0 69.0\n3 1.0\n",
            MalformedRowError,
        ),
        ("task=m\nalpha=1.0\nintercept=2.0\nclamp=0.0 69.0\n3 1.0\n3 2.0\n", MalformedRowError),
        ("task=m\nalpha=1.0\nintercept=2.0\nclamp=0.0 69.0\n4 1.0\n3 2.0\n", MalformedRowError),
    ],
)
def test_model_reader_rejects(tmp_path, body, error):
    path = tmp_path / "model.txt"
    path.write_text("GLOHRIDGE 1\n" + body, encoding="utf-8")
    with pytest.raises(error):
        ridge.read_model(str(path))


@pytest.mark.parametrize(
    "body, where",
    [
        ("task=m\nalpha=1.0\nalpha=5.0\n", "model.txt:4: alpha= repeated"),
        ("task=m\nalpha=1.0\n3 1.0\n3 2.0\n", "model.txt:5: bins not strictly"),
    ],
)
def test_model_reader_names_the_offending_line(tmp_path, body, where):
    path = tmp_path / "model.txt"
    path.write_text("GLOHRIDGE 1\n" + body, encoding="utf-8")
    with pytest.raises(MalformedRowError, match=where):
        ridge.read_model(str(path))


@pytest.mark.parametrize("first", ["GLOHRIDGE 2", "GLOHSEL 1", ""])
def test_model_reader_rejects_a_wrong_first_line(tmp_path, first):
    path = tmp_path / "model.txt"
    path.write_text(f"{first}\ntask=m\nalpha=1.0\nintercept=2.0\n"
                    "clamp=0.0 69.0\n3 1.0\n", encoding="utf-8")
    with pytest.raises(ShapeMismatchError, match="not a GLOHRIDGE file"):
        ridge.read_model(str(path))


def test_model_reader_rejects_non_utf8(tmp_path):
    path = tmp_path / "model.txt"
    path.write_bytes(b"GLOHRIDGE 1\ntask=m\xff\n")
    with pytest.raises(MalformedRowError, match="model.txt"):
        ridge.read_model(str(path))
