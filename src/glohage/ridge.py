"""Ridge regression on the selected feature bins.

The sparse selection solver underestimates coefficient magnitudes, so the
final per-task age regressors are refit by ridge regression restricted to
the selected bins. A ``_Ridge`` centers a regressor's features and labels
and decomposes their centered Gram matrix once; ``select_alpha`` (the
cross-validation that picks the ridge weight) and ``fit_ridge`` (the final
fit and its intercept) both read that decomposition. Predictions are
clamped to the training label range.

The cross-validation's seeded row order is ``_cv_order``, the package's
own port of numpy's ``default_rng(seed).permutation(n)``, so no fit loads
``numpy.random``, and numpy's freedom to change a ``Generator`` method's
stream cannot change a fit.
"""

import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    FeatureTooShortError,
    GridEmptyError,
    MalformedRowError,
    NonFiniteError,
    ShapeMismatchError,
    SingularSystemError,
    UnknownTaskError,
)

POOLED = "pooled"

DEFAULT_ALPHA_GRID = tuple(10.0 ** e for e in range(-3, 4))
CV_FOLDS = 5  # folds of the ridge weight's cross-validation

# numpy's SeedSequence hash constants and PCG64's 128-bit multiplier
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _hasher(const, mult):
    """SeedSequence's hashmix: each call xors a 32-bit word with a running
    constant, steps the constant and multiplies the word by it."""
    def hashmix(value):
        nonlocal const
        const, value = const * mult & _M32, value ^ const
        value = value * const & _M32
        return value ^ value >> 16
    return hashmix


def _cv_order(seed, n):
    """``np.random.default_rng(seed).permutation(n)``, bit for bit, from
    plain Python ints; a negative seed raises ValueError, as numpy does.

    numpy's SeedSequence hashes the seed's 32-bit words, least significant
    first, into a pool of four words and draws PCG64's 128-bit state and
    increment from it. PCG64 (O'Neill 2014) steps its state by a 128-bit
    LCG and outputs the XSL-RR of the new state; a 32-bit draw is the low
    half of an output, whose high half is kept for the next one. The
    permutation is a backward Fisher-Yates shuffle of range(n): position
    i swaps with a draw j <= i, taken by masking 32-bit draws to i's bit
    width and rejecting those above i (n < 2**32).
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed >> b & _M32 for b in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]

    def mix(dst, value):
        x = (_MIX_L * pool[dst] - _MIX_R * hashmix(value)) & _M32
        pool[dst] = x ^ x >> 16

    for src in range(4):  # each pool word into each other one
        for dst in range(4):
            if src != dst:
                mix(dst, pool[src])
    for word in words[4:]:  # then the words the pool could not hold
        for dst in range(4):
            mix(dst, word)
    u32 = list(map(_hasher(_INIT_B, _MULT_B), pool * 2))  # generate_state(4, uint64)
    # two uint64 words each, little-endian uint32 pairs, the first word high
    state, seq = (u32[a + 1] << 96 | u32[a] << 64 | u32[a + 3] << 32 | u32[a + 2]
                  for a in (0, 4))
    inc = (seq << 1 | 1) & _M128
    s = ((inc + state) * _PCG_MULT + inc) & _M128  # seeded: two steps from 0

    order, high = list(range(n)), None
    for i in range(n - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        while True:
            if high is None:
                s = (s * _PCG_MULT + inc) & _M128
                x, rot = ((s >> 64) ^ s) & _M64, s >> 122
                x = (x >> rot | x << (64 - rot)) & _M64
                draw, high = x & _M32, x >> 32
            else:
                draw, high = high, None
            j = draw & mask
            if j <= i:
                break
        order[i], order[j] = order[j], order[i]
    return np.array(order, dtype=np.int64)


@dataclass
class RidgeModel:
    """Per-task linear age regressors over a shared set of selected bins."""

    selected: np.ndarray  # ascending bin indices into the full feature vector
    weights: dict = field(default_factory=dict)  # task -> (len(selected),) array
    intercepts: dict = field(default_factory=dict)  # task -> float
    alphas: dict = field(default_factory=dict)  # task -> ridge weight used
    clamp: tuple = (0.0, 130.0)  # (min_age, max_age) from training labels


class _Ridge:
    """One design X and its labels y, centered, and the eigendecomposition
    Xc^T Xc = V diag(e) V^T of the centered design Xc = X - x_mean, made
    at most once: ``fit_ridge`` and ``select_alpha`` both read it. X is
    taken in C order, so the bits of a fit do not depend on its memory
    layout."""

    def __init__(self, X, y):
        X = np.ascontiguousarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ShapeMismatchError(f"X {X.shape} vs y {y.shape}")
        self.X, self.y = X, y
        self.x_mean, self.y_mean = X.mean(axis=0), y.mean()
        self.Xc = X - self.x_mean

    @cached_property
    def eig(self):
        return np.linalg.eigh(self.Xc.T @ self.Xc)

    def path(self, alphas):
        """Centered weights W (bins, alphas) of every alpha:
        W[:, j] = V diag(1 / (e + alphas[j])) V^T Xc^T yc. An e + alpha at
        or below numpy's matrix_rank tolerance raises SingularSystemError."""
        e, V = self.eig
        shifted = e[:, None] + alphas  # (bins, alphas)
        tol = np.finfo(np.float64).eps * len(e) * np.abs(e).max(initial=0.0)
        singular = np.any(shifted <= tol, axis=0)
        if singular.any():
            raise SingularSystemError(
                f"normal equations singular (alpha={alphas[singular][0]}); "
                "increase alpha"
            )
        return V @ ((V.T @ (self.Xc.T @ (self.y - self.y_mean)))[:, None] / shifted)


def fit_ridge(fit, alpha):
    """Centered ridge regression of the ``_Ridge`` ``fit`` at ridge weight
    ``alpha``; returns (weights, intercept), from its decomposition.

    With alpha = 0 the design must have full column rank after centering,
    otherwise SingularSystemError is raised.
    """
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    W = fit.path(np.array([alpha], dtype=np.float64))
    return W[:, 0], fit.y_mean - float(fit.x_mean @ W[:, 0])


def select_alpha(fit, grid, seed=0):
    """Cross-validated MAE of the ``_Ridge`` ``fit`` over an alpha grid;
    ties go to larger alpha.

    The CV_FOLDS folds are contiguous blocks of the seeded row order
    ``_cv_order(seed, n)``, numpy's ``default_rng(seed).permutation(n)``
    computed in the package, so the choice is deterministic for a given
    seed. A one-value grid, or a fit with fewer than CV_FOLDS rows, takes
    the middle of the grid without cross-validation. Every split is scored from the one
    eigendecomposition of the whole design, through the block-deletion
    identity for linear smoothers: a split's held-out residuals are
    (I - H_FF)^{-1} r_F, where H is the whole fit's hat matrix and r its
    residuals (Golub, Heath & Wahba, Technometrics 1979). The singularity
    rule still holds on each training split: a grid value that is
    numerically singular on one raises SingularSystemError, as fit_ridge
    on that split would.
    """
    grid = list(grid)
    if not grid:
        raise GridEmptyError("empty alpha grid")
    if min(grid) < 0:
        raise ValueError(f"alpha must be nonnegative, got {min(grid)}")
    n = len(fit.y)
    if len(grid) == 1 or n < CV_FOLDS:
        return grid[len(grid) // 2]

    order = _cv_order(seed, n)
    bounds = np.linspace(0, n, CV_FOLDS + 1).astype(int)
    folds = [order[bounds[i] : bounds[i + 1]] for i in range(CV_FOLDS)]
    alphas = np.array(grid, dtype=np.float64)
    e, V = fit.eig
    # a split's centered Gram matrix is below the whole design's, so
    # only a weight of at most sqrt(eps) e_max can meet the singularity
    # rule on a split; such weights take it on each split's own fit
    low = alphas <= np.sqrt(np.finfo(np.float64).eps) * e.max(initial=0.0)
    if low.any():
        for fold in folds:
            keep = np.ones(n, dtype=bool)
            keep[fold] = False
            _Ridge(fit.X[keep], fit.y[keep]).path(alphas[low])
    # The whole fit's hat matrix is H = U diag(c) U^T, with U = [1/sqrt(n),
    # Xc V] and c = 1 / [1, e + alpha]: the intercept is not penalized.
    # The held-out residuals of split F are (I - H_FF)^{-1} r_F, from the
    # whole fit's residuals r, solved in the held-out rows or, by the
    # Woodbury identity, as r_F + U_F (diag(1/c) - U_F^T U_F)^{-1} U_F^T r_F
    # in the bins, whichever system is smaller.
    resid = (fit.y - fit.y_mean)[:, None] - fit.Xc @ fit.path(alphas)
    inv_c = np.vstack([np.ones(len(grid)), e[:, None] + alphas]).T  # (alphas, 1 + bins)
    U = np.column_stack([np.full(n, n ** -0.5), fit.Xc @ V])
    mae = np.zeros(len(grid))
    for fold in folds:
        Uf, r = U[fold], resid[fold].T[..., None]  # r: (alphas, rows, 1)
        if len(fold) <= Uf.shape[1]:
            hat = (Uf / inv_c[:, None, :]) @ Uf.T
            held = np.linalg.solve(np.eye(len(fold)) - hat, r)
        else:
            inner = np.eye(Uf.shape[1]) * inv_c[:, None, :] - Uf.T @ Uf
            held = r + Uf @ np.linalg.solve(inner, Uf.T @ r)
        mae += np.mean(np.abs(held[..., 0]), axis=1)
    return grid[max(range(len(grid)), key=lambda j: (-mae[j], grid[j]))]


def fit_model(features, ages, rows, selected, alpha_grid=DEFAULT_ALPHA_GRID, seed=0,
              regressors=None):
    """Fit per-task ridge regressors (plus a pooled fallback) on selected bins.

    ``features`` and ``ages`` hold one entry per manifest row, and ``rows``
    maps task label -> manifest rows, as ``dataset.partition_by_task``
    gives them. The pooled model under the key "pooled" is fit on every
    task's rows, each once where it first appears, and serves rows whose
    task label is unknown at prediction time. ``regressors``, if given,
    names the ones to fit (default: every task of ``rows`` and "pooled");
    the clamp comes from every row's age all the same. ``features`` is an
    (N, K) array or a ``featfile.FeatureFile``, read once: one gather of
    the selected bins of the fitted regressors' rows, in which a non-finite
    value raises NonFiniteError, and every fit takes its rows from that
    block.

    Each regressor makes one ``_Ridge`` of its rows, so its design is
    decomposed once, and calls ``select_alpha``, which picks its ridge
    weight (the middle of the grid for fewer rows than CV_FOLDS), and then
    ``fit_ridge`` on it.
    """
    selected = np.asarray(selected, dtype=int)
    ages = np.asarray(ages, dtype=np.float64)
    model = RidgeModel(selected=selected)
    pooled = list(dict.fromkeys(r for idx in rows.values() for r in idx))
    fits = {**rows, POOLED: pooled}
    if regressors is not None:
        fits = {task: idx for task, idx in fits.items() if task in regressors}
    read = list(dict.fromkeys(r for idx in fits.values() for r in idx))
    at = {r: i for i, r in enumerate(read)}  # manifest row -> row of block
    block = features[np.ix_(read, selected)].astype(np.float64)
    finite = np.isfinite(block).all(axis=1)
    if not finite.all():
        bad = read[finite.argmin()]
        raise NonFiniteError(f"feature row {bad}: non-finite value in a selected bin")
    for task, idx in fits.items():
        fit = _Ridge(block[[at[r] for r in idx]], ages[idx])
        alpha = select_alpha(fit, alpha_grid, seed)
        model.weights[task], model.intercepts[task] = fit_ridge(fit, alpha)
        model.alphas[task] = alpha
    model.clamp = (float(ages[pooled].min()), float(ages[pooled].max()))
    return model


def check_features(model, n_bins, task):
    """Raise unless ``model`` has a regressor for ``task`` whose selected
    bins all lie below ``n_bins``."""
    if task not in model.weights:
        raise UnknownTaskError(f"no regressor for task {task!r}")
    if model.selected.size and n_bins <= int(model.selected.max()):
        raise FeatureTooShortError(
            f"feature length {n_bins} < required {int(model.selected.max()) + 1}"
        )


def predict_selected(model, block, task):
    """Clamped ages from ``block``, the selected bins of one row or of each
    row, in any dtype and memory order. The product runs on the block as
    float64 in F order, copied if need be, so its bits do not depend on
    how the block was gathered."""
    block = np.asfortranarray(block, dtype=np.float64)
    if not np.all(np.isfinite(block)):
        raise NonFiniteError("non-finite value in a selected bin")
    return np.clip(block @ model.weights[task] + model.intercepts[task], *model.clamp)


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

    Every task appears once, with one finite nonnegative alpha, one finite
    intercept, one finite ``clamp=lo hi`` (lo <= hi, the same for every
    task) and one ``bin weight`` line per selected bin, strictly ascending
    and the same bins for every task; anything else raises a GlohError.
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
                if model.alphas[task] < 0:
                    raise MalformedRowError(f"{path}:{lineno}: negative alpha")
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
