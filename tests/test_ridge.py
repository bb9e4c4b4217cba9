from pathlib import Path

import numpy as np
import pytest

from glohage import ridge
from glohage.errors import (
    FeatureTooShortError,
    GridEmptyError,
    MalformedRowError,
    NonFiniteError,
    ShapeMismatchError,
    SingularSystemError,
    TooFewSamplesError,
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
        w, _ = ridge.fit_ridge(X, y, 0.0)
        Xc = X - X.mean(axis=0)
        assert np.allclose(w, Xc.T @ (y - y.mean()), atol=1e-10)

    def test_huge_alpha_limit(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((20, 5))
        y = rng.standard_normal(20) + 30
        w, b = ridge.fit_ridge(X, y, 1e12)
        assert np.abs(w).max() < 1e-9
        assert b == pytest.approx(y.mean(), abs=1e-6)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((20, 5))
        y = rng.standard_normal(20)
        w, b = ridge.fit_ridge(X, y, 0.1)
        w_ref, b_ref = dense_oracle(X, y, 0.1)
        assert np.abs(w - w_ref).max() < 1e-8
        assert b == pytest.approx(b_ref, abs=1e-8)

    def test_normal_equations_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            X = rng.standard_normal((25, 6))
            y = rng.standard_normal(25)
            alpha = float(rng.uniform(0.01, 10))
            w, _ = ridge.fit_ridge(X, y, alpha)
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
                ridge.fit_ridge(X, y, 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            ridge.fit_ridge(np.zeros((5, 2)), np.zeros(4), 1.0)

    def test_monotone_shrinkage(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 8))
        y = rng.standard_normal(30)
        alphas = [0.01, 0.1, 1.0, 10.0, 100.0]
        norms = [np.linalg.norm(ridge.fit_ridge(X, y, a)[0]) for a in alphas]
        for n1, n2 in zip(norms, norms[1:]):
            assert n1 >= n2 - 1e-10

    def test_bits_do_not_depend_on_memory_layout(self):
        # C- and Fortran-ordered copies of one design give the same bits
        rng = np.random.default_rng(5)
        for _ in range(5):
            X = rng.standard_normal((1002, 50))
            y = rng.standard_normal(1002)
            wc, bc = ridge.fit_ridge(np.ascontiguousarray(X), y, 1.0)
            wf, bf = ridge.fit_ridge(np.asfortranarray(X), y, 1.0)
            assert wc.tobytes() == wf.tobytes()
            assert bc == bf

    def test_centering_shift_property(self):
        rng = np.random.default_rng(5)
        X = rng.standard_normal((15, 4))
        y = rng.standard_normal(15)
        w0, b0 = ridge.fit_ridge(X, y, 0.5)
        w1, b1 = ridge.fit_ridge(X, y + 11.0, 0.5)
        assert np.allclose(w0, w1, atol=1e-9)
        assert b1 - b0 == pytest.approx(11.0, abs=1e-9)


class TestSelectAlpha:
    def test_noiseless_prefers_small_alpha(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((40, 5))
        y = X @ rng.standard_normal(5)
        assert ridge.select_alpha(X, y, [1e-6, 1e3], seed=0) == 1e-6

    def test_single_element_grid(self):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((10, 2))
        assert ridge.select_alpha(X, rng.standard_normal(10), [3.3]) == 3.3

    def test_pure_noise_prefers_large_alpha(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((40, 10))
        y = rng.standard_normal(40)
        assert ridge.select_alpha(X, y, [1e-6, 1e6], seed=0) == 1e6

    def test_empty_grid(self):
        with pytest.raises(GridEmptyError):
            ridge.select_alpha(np.zeros((10, 1)), np.zeros(10), [])

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamplesError):
            ridge.select_alpha(np.zeros((3, 1)), np.zeros(3), [1.0])

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
            assert ridge.select_alpha(X, y, grid, seed=trial) == (
                oracles.select_alpha_oracle(X, y, grid, k=5, seed=trial)
            )

    def test_empty_selection_ties_go_to_larger_alpha(self):
        y = np.random.default_rng(25).standard_normal(20)
        assert ridge.select_alpha(np.zeros((20, 0)), y, [0.1, 10.0, 1.0]) == 10.0

    def test_zero_alpha_on_rank_deficient_split(self):
        rng = np.random.default_rng(26)
        X = rng.standard_normal((20, 3))
        X = np.column_stack([X, X[:, 0] + X[:, 1]])  # rank 3 of 4
        y = rng.standard_normal(20)
        with pytest.raises(SingularSystemError):
            ridge.select_alpha(X, y, [0.0, 1.0])
        assert ridge.select_alpha(X, y, [0.1, 1.0]) in (0.1, 1.0)


def make_model(selected, weights, intercept, clamp=(0.0, 69.0), task="male"):
    m = ridge.RidgeModel(selected=np.asarray(selected, dtype=int))
    m.weights[task] = np.asarray(weights, dtype=np.float64)
    m.intercepts[task] = intercept
    m.alphas[task] = 1.0
    m.clamp = clamp
    return m


class TestPredict:
    def test_zero_weights_gives_intercept(self):
        m = make_model([0, 2], [0.0, 0.0], 33.0)
        assert ridge.predict(m, np.ones(5), "male") == pytest.approx(33.0)

    def test_clamp_floor(self):
        m = make_model([0], [1.0], 0.0, clamp=(0.0, 69.0))
        assert ridge.predict(m, np.array([-4.0]), "male") == 0.0

    def test_unknown_task(self):
        m = make_model([0], [1.0], 0.0)
        with pytest.raises(UnknownTaskError):
            ridge.predict(m, np.ones(3), "robot")

    def test_feature_too_short(self):
        m = make_model([5], [1.0], 0.0)
        with pytest.raises(FeatureTooShortError):
            ridge.predict(m, np.ones(3), "male")

    def test_unselected_bins_ignored(self):
        rng = np.random.default_rng(9)
        m = make_model([1, 3], [2.0, -1.0], 5.0, clamp=(-1e9, 1e9))
        x = rng.standard_normal(6)
        base = ridge.predict(m, x, "male")
        x2 = x.copy()
        x2[[0, 2, 4, 5]] = rng.standard_normal(4) * 100
        assert ridge.predict(m, x2, "male") == pytest.approx(base)

    def test_matrix_equals_row_by_row(self):
        rng = np.random.default_rng(28)
        m = make_model([1, 4, 6], rng.standard_normal(3), 30.0, clamp=(25.0, 35.0))
        X = (rng.standard_normal((9, 8)) * 3).astype(np.float32)
        preds = ridge.predict(m, X, "male")
        assert preds.shape == (9,)
        assert np.abs(preds - [ridge.predict(m, x, "male") for x in X]).max() <= 1e-12
        assert ridge.predict(m, X[:0], "male").shape == (0,)

    def test_recovers_training_label_noiseless(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((30, 4))
        w_true = rng.standard_normal(4)
        y = X @ w_true + 20
        w, b = ridge.fit_ridge(X, y, 1e-9)
        m = make_model([0, 1, 2, 3], w, b, clamp=(y.min(), y.max()))
        assert ridge.predict(m, X[7], "male") == pytest.approx(y[7], abs=1e-3)


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
        pred = ridge.predict(model, X1[0], "male")
        assert pred == pytest.approx(float(X1[0] @ w + 30), abs=0.5)

    def test_too_few_samples_take_the_middle_of_the_grid(self):
        rng = np.random.default_rng(27)
        X = rng.standard_normal((3, 4))
        model = ridge.fit_model(
            X, X[:, 0] + 30, {"male": [0, 1, 2]}, np.array([0, 2]),
            alpha_grid=[0.1, 1.0, 10.0],
        )
        assert model.alphas == {"male": 1.0, ridge.POOLED: 1.0}

    def test_empty_selection_intercept_only(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((20, 6))
        y = rng.standard_normal(20) + 40
        model = ridge.fit_model(X, y, {"male": list(range(20))}, np.array([], dtype=int))
        assert ridge.predict(model, X[0], "male") == pytest.approx(y.mean(), abs=1e-9)


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
    assert np.all(np.isfinite(ridge.predict(model, X, "female")))
    for bad in (np.nan, np.inf, -np.inf):
        Y = X.copy()
        Y[15, 4] = bad  # a female-only row
        with pytest.raises(NonFiniteError):
            ridge.fit_model(Y, y, rows, selected)
        with pytest.raises(NonFiniteError):
            ridge.predict(model, Y, "male")
        with pytest.raises(NonFiniteError):
            ridge.predict(model, Y[15], ridge.POOLED)


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


def test_model_reader_rejects_non_utf8(tmp_path):
    path = tmp_path / "model.txt"
    path.write_bytes(b"GLOHRIDGE 1\ntask=m\xff\n")
    with pytest.raises(MalformedRowError, match="model.txt"):
        ridge.read_model(str(path))
