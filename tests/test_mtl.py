from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from glohage import mtl
from glohage.errors import (
    BudgetOutOfRangeError,
    MalformedRowError,
    NegativeLambdaError,
    NonFiniteError,
    ShapeMismatchError,
)
from glohage.mtl import SolverOptions, TaskDataset

import oracles

TIGHT = SolverOptions(rel_tol=1e-9, max_iters=5000)
TIGHT_STL = SolverOptions(rel_tol=1e-9, max_iters=5000, mode=mtl.MODE_STL)


def random_instance(seed, K=50, L=2, N=40, y_scale=10.0):
    rng = np.random.default_rng(seed)
    return [
        TaskDataset(
            f"t{l}",
            rng.standard_normal((N, K)),
            y_scale * rng.standard_normal(N),
        )
        for l in range(L)
    ]


class TestObjective:
    def test_zero_weight_loss(self):
        data = random_instance(0)
        W = np.zeros((50, 2))
        expected = sum(float(d.y @ d.y) / d.n for d in data)
        assert oracles.objective(W, data, 1.0) == pytest.approx(expected)

    def test_exact_solution_zero_residual(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((6, 6))
        w = rng.standard_normal(6)
        data = [TaskDataset("a", X, X @ w)]
        assert oracles.objective(w[:, None], data, 0.0) == pytest.approx(0.0, abs=1e-20)

    def test_penalty_row_norms(self):
        # zero-loss data, W rows (3,4) and (0,0): penalty contributes 5
        X = np.zeros((1, 2))
        data = [TaskDataset("a", X, np.zeros(1)), TaskDataset("b", X, np.zeros(1))]
        W = np.array([[3.0, 4.0], [0.0, 0.0]])
        assert oracles.objective(W, data, 1.0, mtl.MODE_MTL) == pytest.approx(5.0)


class TestProx:
    def test_group_norm_equals_tau(self):
        assert np.allclose(oracles.group_soft_threshold(np.array([3.0, 4.0]), 5.0), 0)

    def test_group_half_shrink(self):
        out = oracles.group_soft_threshold(np.array([3.0, 4.0]), 2.5)
        assert np.allclose(out, [1.5, 2.0])

    def test_group_tau_zero_identity(self):
        v = np.array([1.0, -2.0, 0.5])
        assert np.allclose(oracles.group_soft_threshold(v, 0.0), v)

    def test_group_zero_row(self):
        assert np.allclose(oracles.group_soft_threshold(np.zeros(3), 0.0), 0)

    def test_scalar_examples(self):
        assert oracles.soft_threshold(5.0, 2.0) == pytest.approx(3.0)
        assert oracles.soft_threshold(-1.0, 2.0) == pytest.approx(0.0)
        assert oracles.soft_threshold(-7.5, 0.0) == pytest.approx(-7.5)

    def test_group_prox_minimizes(self):
        # against a derivative-free numeric minimizer
        rng = np.random.default_rng(4)
        for _ in range(25):
            v = 3.0 * rng.standard_normal(3)
            tau = float(rng.uniform(0, 4))
            p = oracles.group_soft_threshold(v, tau)

            def f(u):
                return 0.5 * np.sum((u - v) ** 2) + tau * np.linalg.norm(u)

            res = minimize(
                f, v, method="Powell",
                options={"xtol": 1e-12, "ftol": 1e-14, "maxiter": 10000},
            )
            assert np.abs(res.x - p).max() < 1e-6


class TestLambdaMax:
    def test_zero_labels(self):
        data = random_instance(5)
        data = [TaskDataset(d.task_id, d.X, np.zeros(d.n)) for d in data]
        assert mtl.lambda_max(data) == 0.0

    def test_ones_column(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal(15)
        data = [TaskDataset("a", np.ones((15, 1)), y)]
        assert mtl.lambda_max(data) == pytest.approx(abs(2 * y.mean()))
        assert mtl.lambda_max(data, mtl.MODE_STL) == pytest.approx(abs(2 * y.mean()))

    def test_matches_bruteforce_gradient(self):
        data = random_instance(7, K=10, L=2, N=15)
        # negated smooth gradient at W = 0, row by row
        G = np.column_stack([(2.0 / d.n) * (d.X.T @ d.y) for d in data])
        assert mtl.lambda_max(data) == pytest.approx(
            max(np.linalg.norm(G[k]) for k in range(10))
        )
        assert mtl.lambda_max(data, mtl.MODE_STL) == pytest.approx(np.abs(G).max())

    @pytest.mark.parametrize("mode", [mtl.MODE_MTL, mtl.MODE_STL])
    def test_float32_is_solve_first_pass_bound(self, monkeypatch, mode):
        # lambda_max is the largest float64 score of solve's first pass from
        # zero, over all K rows, bit for bit: at lambda_max solve returns
        # zero without FISTA, and one step below it FISTA runs
        opts = SolverOptions(mode=mode)
        fista_calls = []
        fista = mtl._fista

        def fista_spy(*args):
            fista_calls.append(1)
            return fista(*args)

        monkeypatch.setattr(mtl, "_fista", fista_spy)
        for seed in range(12):
            rng = np.random.default_rng(100 + seed)
            n, k = int(rng.integers(20, 300)), int(rng.integers(50, 3000))
            data = [
                TaskDataset(f"t{l}", rng.standard_normal((n, k), dtype=np.float32),
                            30.0 + 10.0 * rng.standard_normal(n))
                for l in range(2)
            ]
            G = dense_scores_at_zero(data)
            score = np.linalg.norm(G, axis=1) if mode == mtl.MODE_MTL else np.abs(G).max(1)
            lam = mtl.lambda_max(data, mode)
            assert lam == score.max()
            W = mtl.solve(data, lam, opts)
            assert W.tobytes() == np.zeros((k, 2)).tobytes() and fista_calls == []
            mtl.solve(data, np.nextafter(lam, 0.0), opts)
            assert fista_calls
            fista_calls.clear()


def dense_scores_at_zero(data):
    # every row's float64 gradient entry at W = 0, (2 / N_l) sum_i x_ik (0 - y_i),
    # each column summed on its own as one contiguous float64 row
    return np.column_stack([
        (2.0 / d.n) * (np.ascontiguousarray(d.X.T, dtype=np.float64)
                       * (np.zeros(d.n) - d.y)).sum(1)
        for d in data
    ])


class TestSolve:
    def test_zero_above_lambda_max(self):
        for seed in range(5):
            data = random_instance(seed)
            lam = mtl.lambda_max(data)
            assert np.all(mtl.solve(data, lam) == 0)

    def test_negative_lambda(self):
        with pytest.raises(NegativeLambdaError):
            mtl.solve(random_instance(5), -1e-3)

    def test_shape_mismatch(self):
        data = random_instance(3)
        with pytest.raises(ShapeMismatchError):
            mtl.solve(data, 1.0, w0=np.zeros((49, 2)))

    def test_unregularized_square_system(self):
        rng = np.random.default_rng(8)
        X = rng.standard_normal((25, 25)) + 0.5 * np.eye(25)
        y = rng.standard_normal(25)
        data = [TaskDataset("a", X, y)]
        W = mtl.solve(data, 0.0, SolverOptions(rel_tol=1e-13, max_iters=50000))
        assert np.abs(W[:, 0] - np.linalg.solve(X, y)).max() < 1e-3

    def test_matches_cd_oracle(self):
        data = random_instance(9)
        lam = 0.3 * mtl.lambda_max(data)
        f1 = oracles.objective(mtl.solve(data, lam, TIGHT), data, lam)
        f2 = oracles.objective(oracles.solve_cd_oracle(data, lam, TIGHT), data, lam)
        assert abs(f1 - f2) / f2 < 1e-5

    def test_matches_cd_oracle_stl(self):
        data = random_instance(10)
        lam = 0.3 * mtl.lambda_max(data, mtl.MODE_STL)
        f1 = oracles.objective(
            mtl.solve(data, lam, TIGHT_STL), data, lam, mtl.MODE_STL
        )
        f2 = oracles.objective(
            oracles.solve_cd_oracle(data, lam, TIGHT_STL), data, lam, mtl.MODE_STL
        )
        assert abs(f1 - f2) / f2 < 1e-5

    def test_objective_never_worse_than_zero(self):
        for seed in range(5):
            data = random_instance(seed, K=30, N=20)
            lam = 0.1 * mtl.lambda_max(data)
            W = mtl.solve(data, lam)
            assert oracles.objective(W, data, lam) <= oracles.objective(
                np.zeros_like(W), data, lam
            ) + 1e-12

    def test_gradient_matches_finite_differences(self):
        data = random_instance(11, K=8, L=2, N=10)
        rng = np.random.default_rng(12)
        W = rng.standard_normal((8, 2))
        G = oracles.smooth_grad(W, data)
        h = 1e-5
        for k in range(8):
            for l in range(2):
                Wp, Wm = W.copy(), W.copy()
                Wp[k, l] += h
                Wm[k, l] -= h
                # at lambda = 0 the objective is the smooth part alone
                fd = (oracles.objective(Wp, data, 0.0)
                      - oracles.objective(Wm, data, 0.0)) / (2 * h)
                assert abs(fd - G[k, l]) / max(1.0, abs(fd)) < 1e-4


    def test_float32_warm_start_at_optimum(self):
        # restarting at a converged float32 solve must not shrink the step
        # to underflow on rounding noise, nor return a worse point
        rng = np.random.default_rng(20)
        data = []
        for l in range(2):
            X = rng.standard_normal((120, 600)).astype(np.float32)
            y = 3.0 * X[:, :8].sum(axis=1) + 40.0 + rng.standard_normal(120)
            data.append(TaskDataset(f"t{l}", X, y))
        lam = 0.05 * mtl.lambda_max(data)
        w0 = mtl.solve(data, lam, SolverOptions(rel_tol=1e-12, max_iters=3000))
        f0 = oracles.objective(w0, data, lam)
        W = mtl.solve(data, lam, SolverOptions(rel_tol=1e-12, max_iters=200), w0=w0)
        assert oracles.objective(W, data, lam) <= f0 + 1e-12 * f0

    @pytest.mark.parametrize("n_rows", [0, 3, 12, 13, 50])
    def test_row_restricted_products_match_dense(self, n_rows):
        # K = 50 and W nonzero on n_rows rows only: no rows, a few, about a
        # quarter of K and all of them give the reference product
        data = random_instance(21)
        rng = np.random.default_rng(n_rows)
        rows = np.sort(rng.choice(50, n_rows, replace=False))
        W = np.zeros((50, 2))
        W[rows] = rng.standard_normal((n_rows, 2))
        for p, d, w in zip(mtl._products(W, data), data, W.T):
            assert np.allclose(p, d.X @ w, rtol=1e-12, atol=1e-12)

    def test_solve_and_smooth_parts_share_helpers(self, monkeypatch):
        # the gradient check (criterion 6) differentiates the oracle's
        # objective at lambda = 0 against oracles.smooth_grad: the gradient
        # must run solve's own helpers, and the objective none of them
        calls = {"_products": 0, "_loss": 0, "_grad": 0}
        for name in calls:
            fn = getattr(mtl, name)

            def counted(*args, _fn=fn, _name=name):
                calls[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(mtl, name, counted)
        data = random_instance(22, K=10, N=12)
        mtl.solve(data, 0.1 * mtl.lambda_max(data))
        assert all(calls.values())
        calls.update(dict.fromkeys(calls, 0))
        W = np.ones((10, 2))
        oracles.objective(W, data, 0.0)
        assert calls == {"_products": 0, "_loss": 0, "_grad": 0}
        oracles.smooth_grad(W, data)
        assert calls == {"_products": 1, "_loss": 0, "_grad": 1}

    @staticmethod
    def norm_test_rows(L, K):
        rng = np.random.default_rng(L)
        G = rng.standard_normal((K, L)) * np.exp(rng.uniform(-40, 40, (K, 1)))
        G[:4] = [[0.0], [-0.0], [1e-200], [1e200]]  # zero, signed zero, underflow, overflow
        return G

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("L", [1, 2, 3])
    def test_row_norms_bits_match_einsum(self, L, order):
        # solve scores its task-major gradient with _row_norms; for one and
        # two tasks the bits must be those of the einsum over C-order rows
        # that scored it before. einsum's own sums depend on numpy's SIMD
        # dispatch from three tasks on, so the reference is np.linalg.norm,
        # which sums as einsum does for up to two tasks.
        G = self.norm_test_rows(L, 4896)
        with np.errstate(over="ignore"):
            ref = np.linalg.norm(G, axis=1)
            got = mtl._row_norms(np.asarray(G, order=order))
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_support_and_lambda_max_read_the_same_norm(self, order):
        # with three tasks the solver's row norm, the norm support thresholds
        # and lambda_max's norm must all be the bits of np.linalg.norm; the
        # row whose norm overflows has no lambda_max
        G = np.asarray(self.norm_test_rows(3, 256), order=order)

        def lam_max(i):
            return mtl.lambda_max([TaskDataset(f"t{l}", G[i:i + 1, l:l + 1], [0.5])
                                   for l in range(3)])  # gradient 2 * x * 0.5 = x

        with np.errstate(over="ignore"):
            ref = np.linalg.norm(G, axis=1)
            got = mtl._row_norms(G)
            for i, r in enumerate(ref):
                assert i not in mtl.support(G, r)
                assert i in mtl.support(G, np.nextafter(r, -np.inf))
        finite = np.flatnonzero(np.isfinite(ref))
        assert np.array_equal(np.flatnonzero(~np.isfinite(ref)), [3])
        with pytest.raises(NonFiniteError):
            lam_max(3)
        lam = np.array([lam_max(i) for i in finite])
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
        assert np.array_equal(lam.view(np.uint64), ref[finite].view(np.uint64))


class TestWorkingSet:
    """solve grows a working set of rows and runs _fista on its columns only;
    called directly on the full data, _fista is the full-width reference."""

    @staticmethod
    def spy_fista(monkeypatch):
        widths = []
        fista = mtl._fista

        def spy(data, *args):
            widths.append(data[0].X.shape[1])
            return fista(data, *args)

        monkeypatch.setattr(mtl, "_fista", spy)
        return widths

    @staticmethod
    def kkt_scores(W, data, mode):
        G = oracles.smooth_grad(W, data)
        if mode == mtl.MODE_MTL:
            return np.linalg.norm(G, axis=1)
        return np.max(np.abs(G), axis=1)

    @pytest.mark.parametrize("mode", [mtl.MODE_MTL, mtl.MODE_STL])
    @pytest.mark.parametrize(
        "frac, past_quarter", [(0.6, False), (0.3, False), (0.02, True)]
    )
    def test_matches_full_width_fista(self, monkeypatch, mode, frac, past_quarter):
        opts = SolverOptions(rel_tol=1e-9, max_iters=5000, mode=mode)
        for seed in range(3):
            data = random_instance(30 + seed, K=300, N=40)
            lam = frac * mtl.lambda_max(data, mode)
            f_full = oracles.objective(
                mtl._fista(data, lam, opts, np.zeros((300, 2)))[0], data, lam, mode
            )
            widths = self.spy_fista(monkeypatch)
            W = mtl.solve(data, lam, opts)
            monkeypatch.undo()
            assert oracles.objective(W, data, lam, mode) <= f_full * (1 + 1e-4)
            # at 0.02 the working set outgrows a quarter of K and FISTA
            # still never runs on all K columns
            assert all(w < 300 for w in widths)
            assert (4 * max(widths) >= 300) == past_quarter
            zero = ~np.any(W != 0, axis=1)
            assert np.all(self.kkt_scores(W, data, mode)[zero] <= lam * (1 + 1e-3))

    def test_no_full_width_products_in_working_set_regime(self, monkeypatch):
        # each outer pass gathers X_l[:, ws] once and forms both FISTA's
        # products and the KKT residuals from it
        fista_widths = self.spy_fista(monkeypatch)
        widths = []
        products = mtl._products

        def spy(W, data):
            widths.append(data[0].X.shape[1])
            return products(W, data)

        monkeypatch.setattr(mtl, "_products", spy)
        data = random_instance(30, K=300, N=40)
        lam = 0.3 * mtl.lambda_max(data)
        W = mtl.solve(data, lam)
        mtl.solve(data, 0.6 * lam, w0=W)
        assert fista_widths and max(fista_widths) < 300  # no full-width FISTA
        assert widths and max(widths) < 300

    def test_fista_gets_float64_working_set_columns(self, monkeypatch):
        # on a float32 design, solve hands _fista float64 copies of the
        # working set's columns (and a float64 start), never all K columns
        seen = []
        fista = mtl._fista

        def spy(data, lam, opts, w0):
            seen.append((w0, *[d.X for d in data]))
            return fista(data, lam, opts, w0)

        monkeypatch.setattr(mtl, "_fista", spy)
        data = [
            TaskDataset(d.task_id, d.X.astype(np.float32), d.y)
            for d in random_instance(34, K=300, N=40)
        ]
        for frac in (0.6, 0.3, 0.02):
            mtl.solve(data, frac * mtl.lambda_max(data))
        assert seen
        for w0, *xs in seen:
            assert w0.dtype == np.float64 and w0.shape[0] < 300
            assert all(x.dtype == np.float64 and x.shape[1] == w0.shape[0] for x in xs)

    def test_warm_start_never_worse(self):
        data = random_instance(33, K=300, N=40)
        lam = 0.3 * mtl.lambda_max(data)
        w0 = mtl.solve(data, 0.5 * lam, SolverOptions(max_iters=20))
        W = mtl.solve(data, lam, w0=w0)
        assert oracles.objective(W, data, lam) <= oracles.objective(w0, data, lam)

    @pytest.mark.parametrize("mode", [mtl.MODE_MTL, mtl.MODE_STL])
    def test_no_fista_at_lambda_max(self, monkeypatch, mode):
        widths = self.spy_fista(monkeypatch)
        for seed in range(5):
            data = random_instance(seed, K=300)
            lam = mtl.lambda_max(data, mode)
            opts = SolverOptions(mode=mode)
            assert np.all(mtl.solve(data, lam, opts) == 0)
            assert np.all(mtl.solve(data, 2 * lam, opts) == 0)
        assert widths == []


class TestScreen:
    """solve's KKT check scores rows in float64 against bounds from the
    last full-width pass of its screen (mtl._Screen)."""

    @staticmethod
    def instance(seed, dtype, K=400, N=(60, 45)):
        rng = np.random.default_rng(seed)
        w = np.zeros(K)
        w[rng.choice(K, 10, replace=False)] = rng.uniform(1, 2, 10)
        data = []
        for l, n in enumerate(N):
            X = rng.standard_normal((n, K)).astype(dtype)
            data.append(TaskDataset(f"t{l}", X, X @ w + 0.5 * rng.standard_normal(n)))
        return data

    @staticmethod
    def fresh(data):
        return [TaskDataset(d.task_id, d.X, d.y) for d in data]

    @staticmethod
    def products(data, W):
        ws = mtl._nonzero_rows(W)
        sub = [TaskDataset(d.task_id, d.X[:, ws].astype(np.float64), d.y) for d in data]
        return ws, mtl._products(W[ws], sub)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_score_does_not_depend_on_the_rows_scored_with_it(self, dtype):
        data = self.instance(40, dtype)
        rng = np.random.default_rng(41)
        P = [rng.standard_normal(d.n) for d in data]
        for mode in (mtl.MODE_MTL, mtl.MODE_STL):
            every = mtl._exact_scores(P, data, np.arange(400), mode)
            for m in (1, 2, 3, 17, 150, 400):
                rows = np.sort(rng.choice(400, m, replace=False))
                got = mtl._exact_scores(P, data, rows, mode)
                assert got.tobytes() == every[rows].tobytes()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_block_scores_match_one_gather(self, dtype):
        # scoring SCORE_BLOCK columns at a time keeps every score's bits
        data = self.instance(42, dtype)
        rng = np.random.default_rng(43)
        P = [rng.standard_normal(d.n) for d in data]
        b = mtl.SCORE_BLOCK
        for m in (b - 1, b, b + 1, 3 * b + 5):
            rows = rng.choice(400, m, replace=False)
            G = np.column_stack([
                (2.0 / d.n) * (d.X.T[rows].astype(np.float64) * (p - d.y)).sum(1)
                for p, d in zip(P, data)
            ])
            for mode in (mtl.MODE_MTL, mtl.MODE_STL):
                got = mtl._exact_scores(P, data, rows, mode)
                assert got.tobytes() == mtl._scores(G, mode).tobytes()

    @pytest.mark.parametrize("mode", [mtl.MODE_MTL, mtl.MODE_STL])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bound_keeps_every_violator(self, dtype, mode):
        # the references come from other W and lambda (lambda_max at zero,
        # then a solve), or from the products themselves (the tightest
        # bound); every row outside ws whose dense float64 score exceeds lam
        # must be a candidate, and so must the n highest of them
        opts = SolverOptions(mode=mode)
        for seed in range(4):
            data = self.instance(50 + seed, dtype)
            lam_max = mtl.lambda_max(self.fresh(data), mode)
            W = mtl.solve(self.fresh(data), 0.2 * lam_max, opts)
            ws, P = self.products(data, W)
            score = mtl._exact_scores(P, data, np.arange(400), mode)
            score[ws] = -np.inf
            top = np.argsort(-score, kind="stable")
            screen = mtl._Screen(data, mode)
            for reference in ("zero", "solve", "here"):
                if reference == "solve":
                    mtl.solve(data, 0.5 * lam_max, opts, screen=screen)
                if reference == "zero":
                    screen.refresh([np.zeros(d.n) for d in data])
                elif reference == "here":
                    screen.refresh(P)
                for j in (*top[:12], top[30], top[100]):
                    for lam in (score[j], np.nextafter(score[j], 0.0)):
                        over = np.flatnonzero(score > lam)
                        rows = screen._candidates(P, ws, lam, 400, np.inf)
                        assert np.isin(over, rows).all()
                        for n in (1, 3):
                            rows = screen._candidates(P, ws, lam, n, np.inf)
                            assert np.isin(top[:min(n, len(over))], rows).all()

    @pytest.mark.parametrize("mode", [mtl.MODE_MTL, mtl.MODE_STL])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bound_holds_when_products_move_along_a_column(self, dtype, mode):
        # p_l = alpha_l x_lk moves row k's gradient from its reference g at
        # W = 0 to (1 + beta) g: Cauchy-Schwarz is tight, and the score rises
        # by exactly the bound
        data = self.instance(90, dtype)
        screen = mtl._Screen(data, mode)
        screen.refresh([np.zeros(d.n) for d in data])
        ws = np.zeros(0, dtype=np.intp)
        g = dense_scores_at_zero(data)
        for k in np.random.default_rng(91).choice(400, 6, replace=False):
            x = [d.X[:, k].astype(np.float64) for d in data]
            P = [0.5 * g[k, l] * d.n / (2.0 * (x[l] @ x[l])) * x[l]
                 for l, d in enumerate(data)]
            score = mtl._exact_scores(P, data, np.arange(400), mode)
            rows = screen._candidates(P, ws, np.nextafter(score[k], 0.0), 400, np.inf)
            assert k in rows

    @pytest.mark.parametrize("mode", [mtl.MODE_MTL, mtl.MODE_STL])
    def test_row_that_overtakes_the_top_stays_a_candidate(self, mode):
        # one task, unit columns, x_j orthogonal to x_k: P moves row k's
        # gradient up by m and row j's (the top reference score) down by m,
        # so k overtakes j; every bound t is at most T = sqrt(2) m, which is
        # less than the gap, so k's reference score is more than T below j's
        rng = np.random.default_rng(95)
        X = rng.standard_normal((200, 60))
        y = rng.standard_normal(200)
        g = -(2.0 / 200) * (X.T @ y)
        j, k = np.argsort(-np.abs(g))[:2]
        X[:, k] -= (X[:, k] @ X[:, j]) / (X[:, j] @ X[:, j]) * X[:, j]
        X /= np.linalg.norm(X, axis=0)
        data = [TaskDataset("t", X, y)]
        g = dense_scores_at_zero(data)[:, 0]
        j, k = np.argsort(-np.abs(g))[:2]
        m = 0.6 * (abs(g[j]) - abs(g[k]))
        P = [100.0 * m * (np.sign(g[k]) * X[:, k] - np.sign(g[j]) * X[:, j])]  # (2 / N) alpha = m
        score = mtl._exact_scores(P, data, np.arange(60), mode)
        assert score.argmax() == k
        screen = mtl._Screen(data, mode)
        screen.refresh([np.zeros(200)])
        assert k in screen._candidates(P, np.zeros(0, dtype=np.intp), 0.0, 1, np.inf)

    @pytest.mark.parametrize("mode", [mtl.MODE_MTL, mtl.MODE_STL])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_solve_ignores_the_references_it_finds(self, dtype, mode):
        # the same solve with a new screen and with a screen that already
        # served lambda_max and solves at other lambdas, in this mode or the
        # other, gives the same bytes; so does a screen made for other tasks
        opts = SolverOptions(mode=mode)
        other = SolverOptions(mode=mtl.MODE_STL if mode == mtl.MODE_MTL else mtl.MODE_MTL)
        data = self.instance(60, dtype, K=1500)
        screen = mtl._Screen(data, mode)
        lam_max = mtl.lambda_max(data, mode, screen=screen)
        W_far = mtl.solve(data, 0.05 * lam_max, opts, screen=screen)
        for frac, w0, first in ((0.3, None, opts), (0.12, None, opts), (0.12, W_far, opts),
                                (0.12, None, other)):
            if first is other:  # a screen whose first pass had the other mode
                screen = mtl._Screen(data, other.mode)
                mtl.lambda_max(data, other.mode, screen=screen)
            mtl.solve(data, 0.7 * lam_max, first, screen=screen)
            used = mtl.solve(data, frac * lam_max, opts, w0=w0, screen=screen)
            new = mtl.solve(self.fresh(data), frac * lam_max, opts, w0=w0)
            assert used.tobytes() == new.tobytes()
        foreign = mtl._Screen(self.instance(61, dtype, K=1500), mode)
        mtl.lambda_max(foreign.data, mode, screen=foreign)
        assert mtl.solve(data, 0.12 * lam_max, opts, screen=foreign).tobytes() == new.tobytes()

    def test_restart_at_optimum_takes_no_full_width_product(self, monkeypatch):
        data = self.instance(70, np.float32, K=3000)
        screen = mtl._Screen(data, mtl.MODE_MTL)
        lam = 0.2 * mtl.lambda_max(data, screen=screen)
        W = mtl.solve(data, lam, screen=screen)
        widths = []
        grad = mtl._grad

        def spy(P, data, out):
            widths.append(data[0].X.shape[1])
            return grad(P, data, out)

        monkeypatch.setattr(mtl, "_grad", spy)
        mtl.solve(data, lam, w0=W, screen=screen)
        assert widths and 3000 not in widths  # FISTA's products, no KKT product

    @pytest.mark.parametrize("x_scale, y_scale, fracs", [
        (1.0, 1e38, (1.0, 0.5, 0.2)),  # the float32 product overflows
        (1e19, 1.0, (1.0, 2.0)),  # so do the float32 column norms
    ])
    def test_overflowing_float32_reference_bounds_nothing(self, x_scale, y_scale, fracs):
        # the rows are still decided by their float64 scores
        rng = np.random.default_rng(80)
        data = []
        for l in range(2):
            X = (x_scale * rng.standard_normal((30, 200))).astype(np.float32)
            data.append(TaskDataset(f"t{l}", X, y_scale * rng.standard_normal(30)))
        screen = mtl._Screen(data, mtl.MODE_MTL)
        lam = mtl.lambda_max(data, screen=screen)
        assert lam == np.linalg.norm(dense_scores_at_zero(data), axis=1).max()
        for frac in fracs:
            W = mtl.solve(data, frac * lam, screen=screen)
            assert W.tobytes() == mtl.solve(self.fresh(data), frac * lam).tobytes()
            assert (frac < 1) == W.any()


def searches(data):
    """The entry points of a lambda search on ``data``, as calls."""
    return [lambda: mtl.lambda_max(data), lambda: mtl.solve(data, 1.0),
            lambda: mtl.fit_for_budget(data, 1)]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_task_rejects_non_finite_entries_only(dtype):
    # the search's screen scans the column sums of squares first: a
    # non-finite entry is rejected wherever it sits, by every entry point,
    # and finite entries whose float32 sum overflows are accepted
    X = np.ones((6, 5), dtype=dtype)
    for bad in (np.nan, np.inf, -np.inf):
        tasks = []
        for at in ((0, 0), (5, 4), (3, 2)):
            Xb = X.copy()
            Xb[at] = bad
            tasks.append(TaskDataset("t", Xb, np.zeros(6)))
        tasks.append(TaskDataset("t", X, [0.0, 0.0, bad, 0.0, 0.0, 0.0]))
        for task in tasks:
            for search in searches([task]):
                with pytest.raises(NonFiniteError, match="task t: non-finite entries"):
                    search()
    big = TaskDataset("t", np.full((6, 5), 1e20, dtype=np.float32), np.zeros(6))
    assert np.isinf(mtl._Screen([big], mtl.MODE_MTL).c2).all()
    assert mtl.lambda_max([big]) == 0.0


@pytest.mark.parametrize("X, y", [
    (np.ones(3), np.ones(3)),  # X not 2-D
    (np.ones((3, 2)), np.ones((3, 1))),  # y not 1-D
    (np.ones((3, 2)), np.ones(4)),  # rows and labels disagree
    (np.ones((0, 2)), np.ones(0)),  # no rows
])
def test_task_rejects_bad_shapes_and_empty_tasks(X, y):
    with pytest.raises(ShapeMismatchError, match="task t: "):
        TaskDataset("t", X, y)


class TestTypedFailures:
    """lambda_max, solve and fit_for_budget check and measure their tasks
    in the search's screen, and FISTA stops when float64 overflows; each
    failure is a typed error."""

    @staticmethod
    def scaled(scale, seed):
        return [TaskDataset(d.task_id, scale * d.X, scale * d.y) for d in random_instance(seed)]

    def test_no_tasks_or_tasks_of_two_widths(self):
        two_widths = random_instance(20, K=10)[:1] + random_instance(21, K=11)[1:]
        for data in ([], two_widths):
            for search in searches(data):
                with pytest.raises(ShapeMismatchError):
                    search()

    @pytest.mark.parametrize("scale", [1e150, 1e160])
    def test_a_score_that_overflows_has_no_lambda_max(self, scale):
        # finite float64 tasks: at 1e150 the row norms of the gradient
        # overflow, at 1e160 the gradient itself, so no lambda bounds them
        data = self.scaled(scale, 22)
        for search in searches(data):
            with pytest.raises(NonFiniteError, match="KKT score is not finite"):
                search()

    def test_a_search_measures_each_task_once(self, monkeypatch):
        # one column-norm pass per task in a whole search, the making of
        # its tasks included
        passes = []
        einsum = np.einsum

        def spy(subscripts, *operands, **kwargs):
            if subscripts == "ij,ij->j":
                passes.append(operands[0])
            return einsum(subscripts, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum", spy)
        data = random_instance(24, K=200, N=30)
        assert len(mtl.fit_for_budget(data, 10).selected) > 0
        assert [id(X) for X in passes] == [id(d.X) for d in data]

    def test_backtracking_step_underflow(self):
        # at 1e150 the stl scores stay finite, and no step makes the
        # quadratic bound hold in float64
        data = self.scaled(1e150, 23)
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match="underflow"):
            mtl.solve(data, 1.0, SolverOptions(mode=mtl.MODE_STL))

    def test_objective_diverged(self):
        data = [TaskDataset("t", np.full((2, 1), 1e200), np.zeros(2))]
        with np.errstate(all="ignore"), pytest.raises(NonFiniteError, match="diverged"):
            mtl._fista(data, 1.0, SolverOptions(), np.ones((1, 1)))


class TestCdOracle:
    def test_zero_above_lambda_max(self):
        data = random_instance(13)
        lam = mtl.lambda_max(data) * (1 + 1e-6)
        assert np.all(oracles.solve_cd_oracle(data, lam) == 0)

    def test_one_feature_one_task_closed_form(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal(20)
        y = rng.standard_normal(20)
        data = [TaskDataset("a", x[:, None], y)]
        lam = 0.5 * mtl.lambda_max(data)
        W = oracles.solve_cd_oracle(data, lam, TIGHT)
        n = len(y)
        b = (2.0 / n) * float(x @ y)
        a = (2.0 / n) * float(x @ x)
        assert W[0, 0] == pytest.approx(oracles.soft_threshold(b, lam) / a, rel=1e-8)


class TestFitForBudget:
    def test_full_budget(self):
        data = random_instance(15, K=20, N=30)
        res = mtl.fit_for_budget(data, 20)
        assert len(res.selected) <= 20
        assert np.all(np.diff(res.selected) > 0)

    def test_budget_one_picks_planted_column(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((60, 15))
        w = np.zeros(15)
        w[7] = 3.0
        data = [
            TaskDataset("a", X, X @ w + 0.01 * rng.standard_normal(60)),
            TaskDataset("b", X, X @ (2 * w) + 0.01 * rng.standard_normal(60)),
        ]
        res = mtl.fit_for_budget(data, 1)
        assert list(res.selected) == [7]

    def test_budget_out_of_range(self):
        data = random_instance(17, K=10)
        with pytest.raises(BudgetOutOfRangeError):
            mtl.fit_for_budget(data, 0)
        with pytest.raises(BudgetOutOfRangeError):
            mtl.fit_for_budget(data, 11)

    def test_zero_labels_select_nothing_without_a_solve(self, monkeypatch):
        # lambda_max is 0, so the bracket [0, 0] is closed before the first solve
        data = [TaskDataset(d.task_id, d.X, np.zeros(d.n)) for d in random_instance(5)]
        calls = []
        solve = mtl.solve
        monkeypatch.setattr(
            mtl, "solve", lambda *a, **kw: calls.append(1) or solve(*a, **kw)
        )
        res = mtl.fit_for_budget(data, 10)
        assert res.lam == 0.0 and res.selected.size == 0
        assert res.W.shape == (50, 2) and not res.W.any()
        assert calls == []

    def test_selected_is_support_of_w(self):
        data = random_instance(18, K=30, N=25)
        res = mtl.fit_for_budget(data, 10)
        assert np.array_equal(res.selected, mtl.support(res.W, res.epsilon))
        assert len(res.selected) <= 10

    def test_bracket_stop_keeps_plain_bisection_bins(self, monkeypatch):
        rng = np.random.default_rng(19)
        X = rng.standard_normal((80, 400))
        w = np.zeros(400)
        w[rng.choice(400, 12, replace=False)] = rng.uniform(1, 2, 12)
        data = [
            TaskDataset("a", X[:40], X[:40] @ w + 0.5 * rng.standard_normal(40)),
            TaskDataset("b", X[40:], X[40:] @ w + 0.5 * rng.standard_normal(40)),
        ]
        budget = 10

        # plain bisection: 40 warm-started solves, no early stop
        lo, hi = 0.0, mtl.lambda_max(data)
        best, best_lam, W = np.array([], dtype=int), hi, None
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            W = mtl.solve(data, mid, w0=W)
            S = mtl.support(W)
            if len(S) <= budget:
                hi = mid
                if len(S) > len(best) or (len(S) == len(best) and mid < best_lam):
                    best, best_lam = S, mid
            else:
                lo = mid

        calls = []
        solve = mtl.solve
        monkeypatch.setattr(
            mtl, "solve", lambda *a, **kw: calls.append(1) or solve(*a, **kw)
        )
        res = mtl.fit_for_budget(data, budget)
        assert len(calls) < 40
        assert np.array_equal(res.selected, best)

    def test_carried_working_set_matches_public_solve(self):
        # fit_for_budget hands each solve the nonzero rows it already found;
        # the same search through the public solve, which rescans w0, must
        # give the same bytes
        rng = np.random.default_rng(25)
        K = 600
        w = np.zeros(K)
        w[rng.choice(K, 15, replace=False)] = rng.uniform(1, 2, 15)
        data = []
        for l, n in enumerate((45, 38)):
            X = rng.standard_normal((n, K), dtype=np.float32)
            data.append(TaskDataset(f"t{l}", X, X @ w + 0.5 * rng.standard_normal(n)))
        budget, opts = 10, SolverOptions()

        lo, hi = 0.0, mtl.lambda_max(data)
        lam, best_W, best = hi, np.zeros((K, 2)), np.array([], dtype=int)
        W = None
        for _ in range(mtl.MAX_BISECT):
            if hi - lo <= opts.rel_tol * hi:
                break
            mid = 0.5 * (lo + hi)
            W = mtl.solve(data, mid, opts, w0=W)
            S = mtl.support(W)
            if len(S) <= budget:
                hi = mid
                if len(S) > len(best) or (len(S) == len(best) and mid < lam):
                    lam, best_W, best = mid, W.copy(), S
            else:
                lo = mid

        res = mtl.fit_for_budget(data, budget, opts)
        assert res.lam == lam
        assert res.W.tobytes() == best_W.tobytes()
        assert np.array_equal(res.selected, best)


HEADER = "GLOHSEL 1\nlambda=0.5\nepsilon=1e-08\n"


@pytest.mark.parametrize(
    "body, error",
    [
        ("30 1.0 2.0\n", ShapeMismatchError),  # bin >= K
        ("3 1.0\n", ShapeMismatchError),  # one weight for two tasks
        ("3 1.0 2.0\n3 1.0 2.0\n", MalformedRowError),  # repeated bin
        ("3 1.0 x\n", MalformedRowError),
        ("3 nan 2.0\n", NonFiniteError),
    ],
)
def test_selection_reader_rejects(tmp_path, body, error):
    path = tmp_path / "sel.txt"
    path.write_text(HEADER + body, encoding="utf-8")
    with pytest.raises(error):
        mtl.read_selection(str(path), 30, 2)


@pytest.mark.parametrize(
    "header, error",
    [
        ("lambda=nan\nepsilon=1e-08\n", NonFiniteError),
        ("lambda=0.5\nepsilon=inf\n", NonFiniteError),
        ("lambda=-1.0\nepsilon=1e-08\n", NegativeLambdaError),
        ("lambda=0.5\nepsilon=-5\n", MalformedRowError),
    ],
)
def test_selection_reader_rejects_header_values(tmp_path, header, error):
    path = tmp_path / "sel.txt"
    path.write_text("GLOHSEL 1\n" + header + "3 1.0 2.0\n", encoding="utf-8")
    with pytest.raises(error):
        mtl.read_selection(str(path), 30, 2)


@pytest.mark.parametrize("first", ["GLOHSEL 2", "GLOHRIDGE 1", ""])
def test_selection_reader_rejects_a_wrong_first_line(tmp_path, first):
    path = tmp_path / "sel.txt"
    path.write_text(HEADER.replace("GLOHSEL 1", first, 1) + "3 1.0 2.0\n",
                    encoding="utf-8")
    with pytest.raises(ShapeMismatchError, match="not a GLOHSEL file"):
        mtl.read_selection(str(path), 30, 2)


def test_selection_reader_skips_blank_lines(tmp_path):
    path = tmp_path / "sel.txt"
    for blank in ("", "   ", "\t", " \t "):
        body = f"3 1.0 2.0\n{blank}\n7 -0.5 0.25\n{blank}\n"
        path.write_text(HEADER + body, encoding="utf-8")
        sel = mtl.read_selection(str(path), 30, 2)
        assert list(sel.selected) == [3, 7]
        assert sel.W[[3, 7]].tolist() == [[1.0, 2.0], [-0.5, 0.25]]


def test_selection_file_roundtrip(tmp_path):
    data = random_instance(19, K=25, N=30)
    res = mtl.fit_for_budget(data, 8)
    path = str(tmp_path / "sel.txt")
    mtl.write_selection(path, res)
    back = mtl.read_selection(path, 25, 2)
    assert back.lam == res.lam
    assert back.epsilon == res.epsilon
    assert np.array_equal(back.selected, res.selected)
    assert np.allclose(back.W, res.W)
    header = Path(path).read_text(encoding="utf-8").splitlines()[0]
    assert header == "GLOHSEL 1"


def test_selection_reader_rejects_non_utf8(tmp_path):
    path = tmp_path / "sel.txt"
    path.write_bytes(b"GLOHSEL 1\nlambda=0.5\nepsilon=1e-08\n3 1.0 \xff\n")
    with pytest.raises(MalformedRowError, match="sel.txt"):
        mtl.read_selection(str(path), 30, 2)
