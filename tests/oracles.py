"""Reference implementations that the tests compare the package against.

Plain, slow implementations kept out of the package: the GLOH histogram
of one patch and its normalization, the sliding-window GLOH extractor
that pins the package's feature bytes, the selection problem's objective
and the soft threshold, both in float64 from their definitions and sharing
no code with the solver, the group soft-threshold of one row (the prox of
its Euclidean norm), the gradient of the problem's smooth part, which runs
the solver's own product and gradient helpers, a cyclic
block-coordinate-descent solver, a ridge fit by a Cholesky solve of the
normal equations (``fit_ridge``), and ridge cross-validation with one such
fit per alpha and fold.
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.linalg import cho_factor, cho_solve
from scipy.optimize import brentq

from glohage import mtl
from glohage.errors import GlohError
from glohage.gloh import (
    TWO_PI,
    GlohParams,
    _orientation_bins,
    _spatial_bin_map,
    patch_grid,
)
from glohage.mtl import MODE_MTL, MODE_STL, SolverOptions


class PatchOutOfBoundsError(GlohError):
    code = "PatchOutOfBounds"


class NegativeEntryError(GlohError):
    code = "NegativeEntry"


def normalize_descriptor(vec, clip_threshold=0.2):
    """L2 normalize, optionally clip entries and re-normalize (SIFT style).

    Zero vectors pass through unchanged; the result has unit norm otherwise.
    """
    vec = np.asarray(vec, dtype=np.float64)
    if np.any(vec < 0):
        raise NegativeEntryError("histogram entries must be nonnegative")
    norm = np.linalg.norm(vec)
    if norm == 0:
        return vec.copy()
    out = vec / norm
    if clip_threshold is not None:
        out = np.minimum(out, clip_threshold)
        out /= np.linalg.norm(out)
    return out


def patch_descriptor(magnitude, orientation, origin, params=GlohParams()):
    """Normalized log-polar histogram for one patch (length 136 at defaults).

    ``magnitude`` and ``orientation`` are full-image gradient fields; the
    patch with top-left ``origin`` must fit inside them.
    """
    h, w = magnitude.shape
    r, c = origin
    p = params.patch_size
    if r < 0 or c < 0 or r + p > h or c + p > w:
        raise PatchOutOfBoundsError(f"patch at {origin} exceeds {h}x{w} field")

    sbin = _spatial_bin_map(params)
    mag = np.asarray(magnitude, dtype=np.float64)[r : r + p, c : c + p]
    obin = _orientation_bins(
        np.asarray(orientation, dtype=np.float64)[r : r + p, c : c + p],
        params.n_orient,
    )
    keep = sbin >= 0
    idx = sbin[keep] * params.n_orient + obin[keep]
    hist = np.bincount(idx, weights=mag[keep], minlength=params.per_patch_dim)
    return normalize_descriptor(hist, params.clip_threshold)


def compute_gradients_mod(img):
    """Gradient magnitude and orientation, the angle wrapped with np.mod."""
    I = np.asarray(img, dtype=np.float64)
    gx = np.empty_like(I)
    gy = np.empty_like(I)
    gx[:, 1:-1] = (I[:, 2:] - I[:, :-2]) / 2.0
    gx[:, 0] = I[:, 1] - I[:, 0]
    gx[:, -1] = I[:, -1] - I[:, -2]
    gy[1:-1, :] = (I[2:, :] - I[:-2, :]) / 2.0
    gy[0, :] = I[1, :] - I[0, :]
    gy[-1, :] = I[-1, :] - I[-2, :]
    magnitude = np.hypot(gx, gy)
    orientation = np.mod(np.arctan2(gy, gx), TWO_PI)
    orientation[orientation >= TWO_PI] = 0.0
    return magnitude, orientation


def extract_gloh_windows(img, params=GlohParams()):
    """GLOH features from sliding windows over the gradient field.

    Builds the spatial bin map and the patch windows for this image, sends
    out-of-radius pixels to a trash slot of one flat bincount and
    normalizes with np.linalg.norm.
    """
    img = np.asarray(img)
    h, w = img.shape
    n_patches = len(patch_grid(h, w, params))
    p, s = params.patch_size, params.stride
    d = params.per_patch_dim

    magnitude, orientation = compute_gradients_mod(img)
    obin = _orientation_bins(orientation, params.n_orient)
    sbin = _spatial_bin_map(params)

    mag_w = sliding_window_view(magnitude, (p, p))[::s, ::s].reshape(n_patches, p, p)
    obin_w = sliding_window_view(obin, (p, p))[::s, ::s].reshape(n_patches, p, p)

    cell = np.where(sbin >= 0, sbin * params.n_orient, 0)
    flat_idx = obin_w + cell[None, :, :]
    flat_idx = flat_idx + (np.arange(n_patches) * d)[:, None, None]
    trash = n_patches * d
    flat_idx = np.where(sbin[None, :, :] >= 0, flat_idx, trash)
    hist = np.bincount(
        flat_idx.ravel(), weights=mag_w.ravel(), minlength=trash + 1
    )[:trash]
    blocks = hist.reshape(n_patches, d)

    norms = np.linalg.norm(blocks, axis=1)
    nz = norms > 0
    blocks[nz] /= norms[nz, None]
    if params.clip_threshold is not None:
        np.minimum(blocks, params.clip_threshold, out=blocks)
        norms = np.linalg.norm(blocks, axis=1)
        blocks[nz] /= norms[nz, None]
    return blocks.ravel()


def objective(W, data, lam, mode=MODE_MTL):
    """sum_l ||y_l - X_l w_l||^2 / N_l + lam * R(W), all in float64, with
    R(W) the sum of the row norms of W (mtl) or of its absolute entries
    (stl). Task l's coefficients are column l of the (K, L) matrix W."""
    W = np.asarray(W, dtype=np.float64)
    assert W.shape == (data[0].X.shape[1], len(data))
    total = 0.0
    for l, d in enumerate(data):
        r = np.asarray(d.y, dtype=np.float64) - np.asarray(d.X, dtype=np.float64) @ W[:, l]
        total += float(r @ r) / len(r)
    if mode == MODE_MTL:
        penalty = sum(float(np.sqrt(row @ row)) for row in W)
    else:
        penalty = float(np.abs(W).sum())
    return total + lam * penalty


def soft_threshold(x, tau):
    """The prox of tau * |u| at x, elementwise: x moved toward zero by tau,
    and zero where |x| <= tau."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(np.abs(x) > tau, x - tau * np.sign(x), 0.0)


def group_soft_threshold(row, tau):
    """Shrink a row toward zero by tau in Euclidean norm; zero it if shorter."""
    row = np.asarray(row, dtype=np.float64)
    norm = np.linalg.norm(row)
    if norm <= tau:
        return np.zeros_like(row)
    return row * (1.0 - tau / norm)


def smooth_grad(W, data):
    """Gradient of the smooth part sum_l ||y_l - X_l w_l||^2 / N_l at W.

    Built from the solver's own product and gradient helpers, looked up on
    the module at call time, so a test can count or replace them.
    """
    P = mtl._products(W, data)
    return mtl._grad(P, data, np.empty_like(W))


def _cd_row_update(b, a, lam):
    """Minimize sum_l (a_l/2) u_l^2 - b_l u_l + lam * ||u||_2 over the row u."""
    bnorm = np.linalg.norm(b)
    if bnorm <= lam:
        return np.zeros_like(b)

    def g(nu):
        return float(np.linalg.norm(b * nu / (a * nu + lam)))

    ub = 1.0
    while g(ub) > ub:
        ub *= 2.0
    lo = 1e-16 * ub
    nu = brentq(lambda t: g(t) - t, lo, ub, xtol=1e-14, rtol=1e-14)
    return b * nu / (a * nu + lam)


def solve_cd_oracle(data, lam, opts=SolverOptions()):
    """Cyclic block-coordinate descent reference solver (test oracle).

    Each row update solves its one-row subproblem to first-order
    optimality (scalar root-find for the row norm in mtl mode, closed
    form shrinkage in stl mode). Intended for small instances only.
    """
    k, n_tasks = data[0].k, len(data)
    W = np.zeros((k, n_tasks))
    X = [np.asarray(d.X, dtype=np.float64) for d in data]
    # a[l, k] = (2/N_l) ||column k||^2 ; columns of zeros never activate
    a = np.column_stack([(2.0 / d.n) * np.sum(x * x, axis=0) for d, x in zip(data, X)])
    res = [d.y.astype(np.float64).copy() for d in data]  # y - X w

    F = objective(W, data, lam, opts.mode)
    for _ in range(opts.max_iters):
        for kk in range(k):
            old = W[kk].copy()
            # b_l = (2/N_l) <x_k, y - X w + x_k w_k>
            b = np.array(
                [
                    (2.0 / data[l].n) * float(X[l][:, kk] @ res[l])
                    + a[kk, l] * old[l]
                    for l in range(n_tasks)
                ]
            )
            if opts.mode == MODE_STL:
                new = np.where(
                    a[kk] > 0, soft_threshold(b, lam) / np.where(a[kk] > 0, a[kk], 1.0), 0.0
                )
            else:
                if np.all(a[kk] == 0):
                    new = np.zeros(n_tasks)
                else:
                    new = _cd_row_update(b, a[kk], lam)
            delta = old - new
            if np.any(delta != 0):
                for l in range(n_tasks):
                    if delta[l] != 0:
                        res[l] += X[l][:, kk] * delta[l]
                W[kk] = new
        F_new = objective(W, data, lam, opts.mode)
        if abs(F_new - F) / max(1.0, abs(F)) < opts.rel_tol:
            break
        F = F_new
    return W


def fit_ridge(X, y, alpha):
    """Centered ridge regression by a Cholesky solve of the normal equations
    (Xc^T Xc + alpha I) w = Xc^T yc; returns (weights, intercept)."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    x_mean, y_mean = X.mean(axis=0), y.mean()
    if X.shape[1] == 0:
        return np.zeros(0), float(y_mean)
    Xc = X - x_mean
    A = Xc.T @ Xc + alpha * np.eye(X.shape[1])
    w = cho_solve(cho_factor(A), Xc.T @ (y - y_mean))
    return w, y_mean - float(x_mean @ w)


def select_alpha_oracle(X, y, grid, k=5, seed=0):
    """k-fold cross-validated MAE over an alpha grid, one fit_ridge per alpha
    and fold; ties go to larger alpha. Same folds as ridge.select_alpha."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    order = np.random.default_rng(seed).permutation(n)
    bounds = np.linspace(0, n, k + 1).astype(int)
    folds = [order[bounds[i] : bounds[i + 1]] for i in range(k)]
    splits = [(np.setdiff1d(order, fold), fold) for fold in folds]

    best_alpha, best_mae = None, np.inf
    for alpha in grid:
        errs = []
        for train, fold in splits:
            w, b = fit_ridge(X[train], y[train], alpha)
            pred = X[fold] @ w + b
            errs.append(np.mean(np.abs(pred - y[fold])))
        mean_mae = float(np.mean(errs))
        if mean_mae < best_mae or (mean_mae == best_mae and alpha > best_alpha):
            best_alpha, best_mae = alpha, mean_mae
    return best_alpha
