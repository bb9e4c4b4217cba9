"""Acceptance suite: one test per release criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
PASS lines as they complete.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from glohage import cli, featfile, gloh, metrics, mtl, pipeline, ridge
from glohage import dataset as ds
from glohage.mtl import SolverOptions, TaskDataset

import oracles
from pgmfile import write_pgm

TIGHT = SolverOptions(rel_tol=1e-9, max_iters=5000)


def report(n, detail):
    print(f"criterion {n:2d}: PASS ({detail})")


def random_instance(seed, K=50, L=2, N=40):
    rng = np.random.default_rng(seed)
    return [
        TaskDataset(f"t{l}", rng.standard_normal((N, K)), 10 * rng.standard_normal(N))
        for l in range(L)
    ]


def test_criterion_01_dimensional_reproduction():
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(68, 62)).astype(np.uint8)
    origins = gloh.patch_grid(68, 62)
    assert len(origins) == 360
    v = gloh.extract_gloh(img)
    assert v.shape == (48960,)
    assert v.reshape(360, 136).shape == (360, 136)
    gloh.extract_gloh(img)  # warm up caches before timing
    t0 = time.perf_counter()
    n_reps = 20
    for _ in range(n_reps):
        gloh.extract_gloh(img)
    per_image = (time.perf_counter() - t0) / n_reps
    assert per_image < 0.050
    report(1, f"48960 dims, 360 patches, {per_image * 1e3:.1f} ms/image")


def test_criterion_02_prox_oracle():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(1000):
        L = int(rng.integers(1, 5))
        v = 3.0 * rng.standard_normal(L)
        tau = float(rng.uniform(0, 4))
        p = oracles.group_soft_threshold(v, tau)

        def f(u):
            return 0.5 * np.sum((u - v) ** 2) + tau * np.linalg.norm(u)

        res = minimize(
            f, v, method="Powell",
            options={"xtol": 1e-12, "ftol": 1e-14, "maxiter": 10000},
        )
        # the package's prox meets the same minimum and returns its penalty
        out, pen = mtl._prox(v[None, :], tau, mtl.MODE_MTL)
        assert pen == pytest.approx(mtl.penalty(out, mtl.MODE_MTL), rel=1e-12, abs=1e-12)
        found = [p, out[0]]
        out, pen = mtl._prox(v[None, :], tau, mtl.MODE_STL)
        assert np.array_equal(out[0], oracles.soft_threshold(v, tau))
        assert pen == pytest.approx(mtl.penalty(out, mtl.MODE_STL), rel=1e-12, abs=1e-12)
        if L == 1:  # with one task the l1 and l2,1 penalties agree
            found.append(out[0])
        worst = max(worst, *(float(np.abs(res.x - u).max()) for u in found))
    assert worst < 1e-6
    report(2, f"1000 pairs, max deviation {worst:.2e}")


def test_criterion_03_solver_vs_oracle():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(25):
        data = random_instance(seed)
        lam = 0.3 * mtl.lambda_max(data)
        f1 = oracles.objective(mtl.solve(data, lam, TIGHT), data, lam)
        f2 = oracles.objective(oracles.solve_cd_oracle(data, lam, TIGHT), data, lam)
        worst = max(worst, abs(f1 - f2) / f2)
    elapsed = time.perf_counter() - t0
    assert worst < 1e-5
    assert elapsed < 5.0
    report(3, f"25 instances, worst gap {worst:.2e}, {elapsed:.2f} s")


def test_criterion_04_lambda_max_property():
    for seed in range(25):
        data = random_instance(seed)
        lam = mtl.lambda_max(data)
        W = mtl.solve(data, lam)
        assert np.all(W == 0)
    report(4, "25 instances return the exact zero matrix")


def test_criterion_05_ridge_oracle():
    worst = 0.0
    for seed in range(25):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((30, 8))
        y = rng.standard_normal(30) * 10 + 30
        for alpha in (0.01, 1.0, 100.0):
            w, b = ridge.fit_ridge(X, y, alpha)
            Xc = X - X.mean(axis=0)
            w_ref = np.linalg.inv(Xc.T @ Xc + alpha * np.eye(8)) @ (
                Xc.T @ (y - y.mean())
            )
            b_ref = y.mean() - X.mean(axis=0) @ w_ref
            worst = max(worst, float(np.abs(w - w_ref).max()), abs(b - b_ref))
    assert worst < 1e-8
    report(5, f"25 instances x 3 alphas, worst deviation {worst:.2e}")


def test_criterion_06_gradient_check():
    worst = 0.0
    h = 1e-5
    for seed in range(10):
        data = random_instance(seed, K=6, L=2, N=8)
        rng = np.random.default_rng(100 + seed)
        W = rng.standard_normal((6, 2))
        G = oracles.smooth_grad(W, data)
        for k in range(6):
            for l in range(2):
                Wp, Wm = W.copy(), W.copy()
                Wp[k, l] += h
                Wm[k, l] -= h
                # at lambda = 0 the objective is the smooth part alone
                fd = (oracles.objective(Wp, data, 0.0)
                      - oracles.objective(Wm, data, 0.0)) / (2 * h)
                worst = max(worst, abs(fd - G[k, l]) / max(1.0, abs(fd)))
    assert worst < 1e-4
    report(6, f"10 instances, worst relative error {worst:.2e}")


def test_criterion_07_support_recovery():
    recalls = []
    for seed in range(20):
        spec = ds.SynthSpec(
            K=500, L=2, N=200, support_size=10, noise_sigma=0.1, seed=seed
        )
        data, _, supp = ds.synth_generate(spec)
        sel = mtl.fit_for_budget(data, 20)
        recalls.append(len(set(supp) & set(sel.selected)) / len(supp))
    mean_recall = float(np.mean(recalls))
    assert mean_recall >= 0.9
    report(7, f"mean recall {mean_recall:.3f} over 20 seeds")


def test_criterion_08_end_to_end_noiseless(tmp_path):
    out_dir = str(tmp_path / "synth")
    assert cli.main(["synth", "--out-dir", out_dir, "--sigma", "0", "--seed", "7"]) == 0
    report_path = str(tmp_path / "report.csv")
    rc = cli.main(
        [
            "evaluate",
            "--manifest", os.path.join(out_dir, "manifest.csv"),
            "--features", os.path.join(out_dir, "features.gfv"),
            "--out", report_path,
        ]
    )
    assert rc == 0
    summary = Path(report_path).read_text(encoding="utf-8").splitlines()[0].split(",")
    pooled_mae = float(summary[2])
    assert pooled_mae < 0.5
    report(8, f"noiseless pipeline pooled MAE {pooled_mae:.3f} years")


def test_criterion_09_metrics_identities():
    assert metrics.mae([1, 2], [1, 2]) == 0.0
    assert metrics.mae([5, 5], [0, 10]) == 5.0
    assert metrics.cumulative_score([0, 3, 12], [0, 0, 0], 5) == pytest.approx(2 / 3)
    assert metrics.cumulative_score([1, 2], [1, 2], 0) == 1.0
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(1, 40))
        p = rng.uniform(0, 70, n)
        t = rng.uniform(0, 70, n)
        cs = [metrics.cumulative_score(p, t, j) for j in range(0, 75, 3)]
        assert all(a <= b for a, b in zip(cs, cs[1:]))
        assert cs[-1] == 1.0
    report(9, "MAE/CS identities and 100 monotonicity checks")


def test_criterion_10_paper_protocol_available(tmp_path):
    # Benchmark-level MAE on FG-NET needs the real images plus an upstream
    # face-alignment pipeline, neither of which ships here. This check
    # confirms the harness runs the exact LOPO protocol end to end on
    # pre-aligned 68x62 input; the documented sanity band for a real
    # FG-NET run (MAE in [4.5, 7.5]) is informational, not gated.
    rng = np.random.default_rng(10)
    lines = ["path,person_id,age,gender"]
    for i in range(8):
        img = rng.integers(0, 256, size=(68, 62)).astype(np.uint8)
        write_pgm(img, str(tmp_path / f"f{i}.pgm"))
        lines.append(f"f{i}.pgm,person{i // 2},{10 + 5 * i},{'m' if i % 2 else 'f'}")
    man = tmp_path / "manifest.csv"
    man.write_text("\n".join(lines) + "\n", encoding="utf-8")
    feat = str(tmp_path / "f.gfv")
    assert cli.main(["extract", "--manifest", str(man), "--out", feat]) == 0
    out = str(tmp_path / "report.csv")
    rc = cli.main(
        ["evaluate", "--manifest", str(man), "--features", feat, "--out", out,
         "--budget", "10"]
    )
    assert rc == 0
    lines = Path(out).read_text(encoding="utf-8").splitlines()
    folds = [ln for ln in lines if ln.startswith("fold,")]
    assert len(folds) == 4  # one per person, exact LOPO
    report(10, "LOPO harness runs on pre-aligned input; FG-NET band informational")


def test_criterion_11_performance_envelope():
    rng = np.random.default_rng(11)
    K = 48960
    t0 = time.perf_counter()
    data = []
    for l, n in ((0, 500), (1, 502)):
        X = rng.standard_normal((n, K)).astype(np.float32)
        w = np.zeros(K, dtype=np.float32)
        idx = rng.choice(K, 30, replace=False)
        w[idx] = rng.uniform(1, 2, 30).astype(np.float32)
        y = X @ w + 0.5 * rng.standard_normal(n).astype(np.float32)
        data.append(TaskDataset(f"t{l}", X, y - y.mean()))
    t_solve = time.perf_counter()
    sel = mtl.fit_for_budget(data, 50)
    elapsed = time.perf_counter() - t_solve
    total = time.perf_counter() - t0
    assert len(sel.selected) <= 50
    assert elapsed < 600.0
    report(
        11,
        f"K={K}, N~1000 path of <=40 solves in {elapsed:.1f} s "
        f"({total:.1f} s incl. data gen)",
    )
