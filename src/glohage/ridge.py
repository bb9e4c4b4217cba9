"""Ridge regression on the selected feature bins.

The sparse selection solver underestimates coefficient magnitudes, so the
final per-task age regressors are refit by ridge regression restricted to
the selected bins. Fitting centers both features and labels, decomposes the
centered Gram matrix once, and recovers an intercept; predictions are
clamped to the training label range.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    FeatureTooShortError,
    GridEmptyError,
    MalformedRowError,
    NonFiniteError,
    ShapeMismatchError,
    SingularSystemError,
    TooFewSamplesError,
    UnknownTaskError,
)

POOLED = "pooled"

DEFAULT_ALPHA_GRID = tuple(10.0 ** e for e in range(-3, 4))
CV_FOLDS = 5  # folds of the ridge weight's cross-validation


@dataclass
class RidgeModel:
    """Per-task linear age regressors over a shared set of selected bins."""

    selected: np.ndarray  # ascending bin indices into the full feature vector
    weights: dict = field(default_factory=dict)  # task -> (len(selected),) array
    intercepts: dict = field(default_factory=dict)  # task -> float
    alphas: dict = field(default_factory=dict)  # task -> ridge weight used
    clamp: tuple = (0.0, 130.0)  # (min_age, max_age) from training labels


def _ridge_path(X, y, alphas):
    """Centered ridge weights W (bins, alphas) of every alpha, x_mean and y_mean.

    With Xc^T Xc = V diag(e) V^T, W[:, j] = V diag(1 / (e + alphas[j])) V^T Xc^T yc;
    e + alpha at or below numpy's matrix_rank tolerance raises SingularSystemError.
    """
    x_mean, y_mean = X.mean(axis=0), y.mean()
    Xc = X - x_mean
    e, V = np.linalg.eigh(Xc.T @ Xc)
    shifted = e[:, None] + alphas  # (bins, alphas)
    tol = np.finfo(np.float64).eps * len(e) * np.abs(e).max(initial=0.0)
    singular = np.any(shifted <= tol, axis=0)
    if singular.any():
        raise SingularSystemError(
            f"normal equations singular (alpha={alphas[singular][0]}); "
            "increase alpha"
        )
    W = V @ ((V.T @ (Xc.T @ (y - y_mean)))[:, None] / shifted)
    return W, x_mean, y_mean


def fit_ridge(X, y, alpha):
    """Centered ridge regression; returns (weights, intercept).

    With alpha = 0 the design must have full column rank after centering,
    otherwise SingularSystemError is raised.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ShapeMismatchError(f"X {X.shape} vs y {y.shape}")
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    W, x_mean, y_mean = _ridge_path(X, y, np.array([alpha], dtype=np.float64))
    return W[:, 0], y_mean - float(x_mean @ W[:, 0])


def select_alpha(X, y, grid=DEFAULT_ALPHA_GRID, seed=0):
    """Cross-validated MAE over an alpha grid; ties go to larger alpha.

    The CV_FOLDS folds are contiguous blocks of a seeded shuffle, so the
    choice is deterministic for a given seed. A one-value grid is returned
    without cross-validation. Each training split takes one _ridge_path
    call for the whole grid, so a grid value that is numerically singular
    on a split raises SingularSystemError, as fit_ridge would.
    """
    grid = list(grid)
    if not grid:
        raise GridEmptyError("empty alpha grid")
    if min(grid) < 0:
        raise ValueError(f"alpha must be nonnegative, got {min(grid)}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = len(y)
    if n < CV_FOLDS:
        raise TooFewSamplesError(f"{n} samples cannot form {CV_FOLDS} folds")
    if len(grid) == 1:
        return grid[0]

    order = np.random.default_rng(seed).permutation(n)
    bounds = np.linspace(0, n, CV_FOLDS + 1).astype(int)
    alphas = np.array(grid, dtype=np.float64)
    mae = np.zeros(len(grid))
    for i in range(CV_FOLDS):
        fold = order[bounds[i] : bounds[i + 1]]
        keep = np.ones(n, dtype=bool)
        keep[fold] = False
        train = keep.nonzero()[0]  # ascending, as np.setdiff1d(order, fold)
        W, x_mean, y_mean = _ridge_path(X[train], y[train], alphas)
        pred = (X[fold] - x_mean) @ W + y_mean
        mae += np.mean(np.abs(pred - y[fold][:, None]), axis=0)

    return grid[max(range(len(grid)), key=lambda j: (-mae[j], grid[j]))]


def fit_model(selected, task_data, alpha_grid=DEFAULT_ALPHA_GRID, seed=0):
    """Fit per-task ridge regressors (plus a pooled fallback) on selected bins.

    ``task_data`` maps task label -> (X_full, y, ids) where X_full has the
    full feature dimension (columns outside ``selected`` are ignored) and
    ``ids`` names each row, say by its manifest index. The pooled model
    under the key "pooled" is fit on the union of all tasks' samples, each
    id once where it first appears, and serves rows whose task label is
    unknown at prediction time. A task with fewer samples than CV_FOLDS
    takes the middle of the grid.
    """
    selected = np.asarray(selected, dtype=int)
    model = RidgeModel(selected=selected)
    fits, pool, seen = [], [], set()
    for task, (X_full, y, ids) in task_data.items():
        Xs = np.asarray(X_full)[:, selected].astype(np.float64)
        y = np.asarray(y, dtype=np.float64)
        fits.append((task, Xs, y))
        keep = [i for i, r in enumerate(ids) if r not in seen]
        seen.update(ids)
        # a task that shares no row is pooled as is: a row gather would make
        # Xs C-ordered (it is Fortran-ordered), which moves the fit's last bits
        pool.append((Xs, y) if len(keep) == len(y) else (Xs[keep], y[keep]))
    fits.append(
        (POOLED, np.vstack([p[0] for p in pool]), np.concatenate([p[1] for p in pool]))
    )
    for task, Xs, y in fits:
        try:
            alpha = select_alpha(Xs, y, alpha_grid, seed)
        except TooFewSamplesError:
            grid = list(alpha_grid)
            alpha = grid[len(grid) // 2]  # too few samples to cross-validate
        w, b = fit_ridge(Xs, y, alpha)
        model.weights[task] = w
        model.intercepts[task] = b
        model.alphas[task] = alpha
    y_pool = fits[-1][2]
    model.clamp = (float(y_pool.min()), float(y_pool.max()))
    return model


def predict(model, x, task=POOLED):
    """Clamped ages for one full-length feature vector (a float) or for each
    row of a matrix of them (an array)."""
    if task not in model.weights:
        raise UnknownTaskError(f"no regressor for task {task!r}")
    x = np.asarray(x)
    if model.selected.size and x.shape[-1] <= int(model.selected.max()):
        raise FeatureTooShortError(
            f"feature length {x.shape[-1]} < required {int(model.selected.max()) + 1}"
        )
    # gather the selected bins before the cast: no full-width float64 copy
    raw = x[..., model.selected].astype(np.float64) @ model.weights[task]
    pred = np.clip(raw + model.intercepts[task], *model.clamp)
    return float(pred) if x.ndim == 1 else pred


# --- GLOHRIDGE text serialization ---

def write_model(path, model):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("GLOHRIDGE 1\n")
        for task in model.weights:
            fh.write(f"task={task}\n")
            fh.write(f"alpha={float(model.alphas[task])!r}\n")
            fh.write(f"intercept={float(model.intercepts[task])!r}\n")
            fh.write(f"clamp={float(model.clamp[0])!r} {float(model.clamp[1])!r}\n")
            for k, w in zip(model.selected, model.weights[task]):
                fh.write(f"{int(k)} {float(w)!r}\n")


def read_model(path):
    """Inverse of write_model.

    Every task appears once, with one finite alpha and intercept, one finite
    ``clamp=lo hi`` (lo <= hi, the same for every task) and one ``bin
    weight`` line per selected bin, strictly ascending and the same bins for
    every task; anything else raises a GlohError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [
                (n, ln.rstrip("\n")) for n, ln in enumerate(fh, start=1) if ln.strip()
            ]
    except UnicodeDecodeError:
        raise MalformedRowError(f"{path}: not UTF-8 text") from None
    if not lines or lines[0][1] != "GLOHRIDGE 1":
        raise ShapeMismatchError(f"not a GLOHRIDGE file: {path}")
    model = RidgeModel(selected=np.array([], dtype=int))
    task = None
    bins, clamps, seen = {}, {}, set()  # seen: (task, text before "=") per line
    for lineno, ln in lines[1:]:
        if ln.startswith("task="):
            task = ln.split("=", 1)[1]
            if task in bins:
                raise MalformedRowError(f"{path}:{lineno}: task {task!r} repeated")
            bins[task], model.weights[task] = [], []
            continue
        if task is None:
            raise MalformedRowError(f"{path}:{lineno}: line before the first task=")
        key, eq, value = ln.partition("=")
        if eq and (task, key) in seen:
            raise MalformedRowError(f"{path}:{lineno}: {key}= repeated in task {task!r}")
        seen.add((task, key))
        try:
            if ln.startswith("alpha="):
                model.alphas[task] = float(value)
            elif ln.startswith("intercept="):
                model.intercepts[task] = float(value)
            elif ln.startswith("clamp="):
                lo, hi = map(float, value.split())
                if lo > hi:
                    raise MalformedRowError(f"{path}:{lineno}: clamp min > max")
                clamps[task] = (lo, hi)
            else:
                k, w = ln.split()
                if int(k) < 0:
                    raise MalformedRowError(f"{path}:{lineno}: negative bin {k}")
                if bins[task] and int(k) <= bins[task][-1]:
                    raise MalformedRowError(f"{path}:{lineno}: bins not strictly ascending")
                bins[task].append(int(k))
                model.weights[task].append(float(w))
        except ValueError:
            raise MalformedRowError(f"{path}:{lineno}: cannot parse {ln!r}") from None
    tasks = list(bins)
    for task in tasks:
        if task not in model.alphas or task not in model.intercepts:
            raise MalformedRowError(f"{path}: task {task!r} lacks alpha or intercept")
        if bins[task] != bins[tasks[0]]:
            raise ShapeMismatchError(
                f"{path}: task {task!r} lists other bins than task {tasks[0]!r}"
            )
        model.weights[task] = np.array(model.weights[task])
        scalars = [model.alphas[task], model.intercepts[task], *clamps.get(task, ())]
        if not np.all(np.isfinite([*model.weights[task], *scalars])):
            raise NonFiniteError(f"{path}: task {task!r} has a non-finite value")
    for task in tasks:  # clamps only after every task's bins and weights passed
        if task not in clamps or clamps[task] != clamps[tasks[0]]:
            raise MalformedRowError(f"{path}: task {task!r}: clamp missing or differs")
    if tasks:
        model.selected = np.array(bins[tasks[0]], dtype=int)
        model.clamp = clamps[tasks[0]]
    return model
