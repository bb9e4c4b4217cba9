"""Sparsity-enforced feature-bin selection.

Solves, over a K x L coefficient matrix W (bins as rows, tasks as columns),

    min_W  sum_l (1/N_l) ||y_l - X_l w_l||^2  +  lambda * R(W)

with R(W) = sum_k ||W[k, :]||_2 in multi-task ("mtl") mode, and
R(W) = sum of |W| entries in single-task ("stl") mode. Bins whose
coefficient row survives thresholding are the selected features.

``solve`` works on a growing set of rows. Each outer pass gathers the
set's columns of X once, as float64, for FISTA (accelerated proximal
gradient) with backtracking and for the residuals, then adds the rows
outside the set that break their zero-row optimality condition (KKT
check); when none does, the result is optimal for the full problem to
the subproblem's tolerance. Almost every row is zero at our budgets, so
FISTA runs on a few hundred columns, not K. The prox, penalty, KKT score
and support all take one row norm, ``_row_norms``, so they read the same
bits.

The KKT check decides every row in float64 without a full-width product
on most passes (``_Screen``). Each task keeps its last full-width
gradient, taken in X's dtype, as a reference; a row's score at new
products differs from the reference by at most a bound from its column
norm and how far the products moved, so only the rows whose bound
reaches lambda are scored, each in float64 from its own column. When
more columns would be gathered than the product reads, the product is
taken again and becomes the new reference. The decisions, and so
``solve``'s result, do not depend on which reference a task carries.
``lambda_max`` is the largest float64 score at W = 0 from the same
scoring, so at lambda_max ``solve`` from zero finds no violator.

FISTA carries the products X_l w_l of its iterates and forms every
product over all the working set's columns. Because the loss is
quadratic, the backtracking test compares sum_l ||X_l d_l||^2 / N_l with
||d||^2 / (2 step) directly instead of differencing two rounded losses.
Loss, gradient, objective and solver share one product/residual path.

``fit_for_budget`` bisects on lambda until the bin budget is met and
stops once the bracket is narrower than the solver's relative tolerance.
Each solve starts from the last solution, whose nonzero rows seed its
working set.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetOutOfRangeError,
    MalformedRowError,
    NegativeLambdaError,
    NonFiniteError,
    ShapeMismatchError,
)

MODE_MTL = "mtl"
MODE_STL = "stl"

INIT_STEP = 1.0  # first FISTA step of every call
STEP_SHRINK = 0.5  # backtracking factor on the step
SUPPORT_EPSILON = 1e-8  # row norm above which a bin counts as selected
MAX_BISECT = 40  # most solves one lambda search makes
CACHE_LINE = 64  # bytes read per element when gathering a column of a row-major X


@dataclass
class TaskDataset:
    """Design matrix and age labels for one task (one gender).

    The task also keeps what the solver's KKT screen reads (``_Screen``):
    upper bounds on its squared column norms, taken once in X's dtype and
    rounded up by the error bound of that sum, and the screen of its last
    full-width pass. X and y must not change once the task is made.
    """

    task_id: str
    X: np.ndarray  # (N_l, K)
    y: np.ndarray  # (N_l,)

    def __post_init__(self):
        self.X = np.asarray(self.X)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.X.ndim != 2 or self.y.ndim != 1 or self.X.shape[0] != self.y.shape[0]:
            raise ShapeMismatchError(
                f"task {self.task_id}: X {self.X.shape} vs y {self.y.shape}"
            )
        if self.X.shape[0] < 1:
            raise ShapeMismatchError(f"task {self.task_id}: empty dataset")
        with np.errstate(over="ignore"):  # an overflow is an infinite bound
            c2 = np.einsum("ij,ij->j", self.X, self.X)
        # a non-finite entry leaves its column's sum non-finite, so X is
        # scanned only when a sum is
        if not (np.isfinite(c2).all() or np.isfinite(self.X).all()) or not np.isfinite(
            self.y
        ).all():
            raise NonFiniteError(f"task {self.task_id}: non-finite entries")
        self._norms2 = np.multiply(c2, 1.0 + 2.0 * _gamma(self.n, self.X.dtype),
                                   dtype=np.float64)
        self._ref = None  # (screen, position): the screen of the last full-width pass

    def columns(self, cols):
        """This task on a float64 copy of the listed columns of X, without
        re-checking them."""
        sub = object.__new__(TaskDataset)  # skips __post_init__'s scan
        sub.task_id, sub.y = self.task_id, self.y
        sub.X = self.X[:, cols].astype(np.float64, copy=False)
        return sub

    @property
    def n(self):
        return self.X.shape[0]

    @property
    def k(self):
        return self.X.shape[1]


@dataclass
class SolverOptions:
    max_iters: int = 2000
    rel_tol: float = 1e-6
    mode: str = MODE_MTL

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0):
            raise ValueError(f"rel_tol must be finite and > 0, got {self.rel_tol}")
        if self.mode not in (MODE_MTL, MODE_STL):
            raise ValueError(f"unknown mode {self.mode!r}")


@dataclass
class SelectionResult:
    """Chosen regularization weight, coefficients and surviving bins."""

    lam: float
    W: np.ndarray
    selected: np.ndarray  # ascending bin indices
    epsilon: float = SUPPORT_EPSILON


def _check_shapes(W, data):
    k = data[0].k
    for d in data:
        if d.k != k:
            raise ShapeMismatchError("tasks disagree on feature dimension")
    if W.shape != (k, len(data)):
        raise ShapeMismatchError(f"W shape {W.shape}, expected {(k, len(data))}")


def _nonzero_rows(W):
    # one pass per task column: a reduction along rows of a few tasks costs more
    mask = W[:, 0] != 0
    for l in range(1, W.shape[1]):
        mask |= W[:, l] != 0
    return mask.nonzero()[0]


def _row_norms(W):
    # the module's one row norm: task columns (contiguous in the task-major
    # gradient) summed left to right, as numpy's norm(axis=1) sums < 8 columns
    total = W[:, 0] * W[:, 0]
    for l in range(1, W.shape[1]):
        total += W[:, l] * W[:, l]
    return np.sqrt(total)


def _products(W, data):
    """X_l w_l for every task; products run in X's dtype, so a float32
    design matrix is never upcast."""
    return [d.X @ W[:, l].astype(d.X.dtype) for l, d in enumerate(data)]


def _loss(P, data):
    """sum_l ||P_l - y_l||^2 / N_l, accumulated in float64."""
    total = 0.0
    for p, d in zip(P, data):
        r = p - d.y
        total += float(np.dot(r, r)) / len(r)
    return total


def _grad(P, data, out):
    """Write (2 / N_l) X_l^T (P_l - y_l) into the columns of ``out``; the
    residual is formed in float64 and the product runs in X's dtype."""
    for l, (p, d) in enumerate(zip(P, data)):
        out[:, l] = (2.0 / len(p)) * (d.X.T @ (p - d.y).astype(d.X.dtype, copy=False))
    return out


def _gamma(n, dtype):
    """Relative error bound of (2 / n) X^T r over n rows in ``dtype``: the
    n-term sums, the cast of r and the scale by 2 / n."""
    x = (n + 4) * float(np.finfo(dtype).eps) / 2
    return x / (1.0 - x) if x < 1.0 else math.inf


def _exact_scores(P, data, rows, mode):
    """Float64 KKT scores of ``rows`` at products P. Each column is summed
    on its own, so a row's score has the same bits whichever rows are
    scored with it."""
    G = np.empty((len(rows), len(data)), order="F")
    for l, (p, d) in enumerate(zip(P, data)):
        cols = d.X.T[rows].astype(np.float64, copy=False)  # (rows, N), a fresh array
        cols *= p - d.y
        G[:, l] = (2.0 / len(p)) * cols.sum(1)
    return _scores(G, mode)


def _scores(G, mode):
    """Each row's KKT score for staying zero, from the smooth gradient G:
    ||G[k]|| in mtl mode, max_l |G[k, l]| in stl mode."""
    return _row_norms(G) if mode == MODE_MTL else np.abs(G).max(1)


def penalty(W, mode):
    if mode == MODE_MTL:
        return float(_row_norms(W).sum())
    return float(np.abs(W).sum())


def objective(W, data, lam, mode=MODE_MTL):
    """Full objective: task-summed normalized squared loss + lam * penalty."""
    if lam < 0:
        raise NegativeLambdaError(f"lambda = {lam}")
    W = np.asarray(W, dtype=np.float64)
    _check_shapes(W, data)
    return _loss(_products(W, data), data) + lam * penalty(W, mode)


def soft_threshold(x, tau):
    """Scalar/elementwise shrinkage: sign(x) * max(|x| - tau, 0)."""
    return np.sign(x) * np.maximum(np.abs(x) - tau, 0.0)


def _prox(V, tau, mode):
    """Prox of tau * R at V: (result, R(result))."""
    if mode == MODE_STL:
        out = soft_threshold(V, tau)
        return out, float(np.abs(out).sum())
    norms = _row_norms(V)
    rows = (norms > tau).nonzero()[0]
    kept = norms[rows]
    out = np.zeros(V.shape)
    out[rows] = V[rows] * (1.0 - tau / kept)[:, None]
    return out, float(kept.sum()) - tau * len(rows)


class _Screen:
    """The KKT check of ``solve``: which rows outside the working set break
    their zero-row condition at products P, decided in float64.

    The reference is the last full-width pass over the tasks: products
    p̂_l, the gradient G computed in X's dtype and ρ̂_l = ||p̂_l - y_l||.
    A task's gradient depends only on its own w_l, so a reference from any
    earlier pass, at any lambda, stays valid. At products p_l every row's
    float64 gradient entry is within

        t_kl = (2 / N_l) c_kl (δ_l + γ_l ρ̂_l + γ64_l (ρ̂_l + δ_l))

    of G[k, l], with c_kl the column norm, δ_l = ||p_l - p̂_l||
    (Cauchy-Schwarz) and γ the rounding bounds of the reference's product
    and of the float64 score (``_gamma``). So a row's score lies within
    [lo, hi]: ||G[k]|| ± ||t_k|| in mtl mode, max_l (|G[k, l]| ± t_kl) in
    stl mode, widened by a relative slack for the float64 rounding of the
    bound and the score. Rows whose hi reaches the threshold are scored by
    ``_exact_scores``; of the rest none can violate, nor outrank the n rows
    with the highest lo. Once the columns scored against the reference
    would gather more bytes than one full-width product reads, the product
    is taken at P instead and becomes the reference. A non-finite entry of
    G bounds nothing (NaN).

    A screen serves one list of tasks, and each task keeps the screen and
    its position in it (``TaskDataset._ref``), so every solve on the same
    list starts from the last full-width pass.
    """

    def __init__(self, data):
        self.n = len(data)
        self.c2 = np.column_stack([d._norms2 for d in data])
        self.gammas = [(_gamma(d.n, d.X.dtype), _gamma(d.n, np.float64)) for d in data]
        self.slack = 4 * (len(data) + 4) * np.finfo(np.float64).eps
        # gathering a column of a row-major X reads one cache line per row
        self.max_gather = sum(d.X.nbytes for d in data) // (CACHE_LINE * sum(d.n for d in data))
        self.P = self.G = self.rho = None  # the reference, from the first pass on
        self.bounded = True  # every entry of G is finite
        self.gathered = 0  # columns scored against it
        self._c = {}  # mode -> (c or c^2 per row and task, its column maxima)
        self._score = {}  # mode -> score of G

    @classmethod
    def of(cls, data):
        """The screen of the last full-width pass over exactly ``data``, in
        this order, or a new one."""
        screen = data[0]._ref[0] if data[0]._ref else None
        if screen is None or screen.n != len(data) or any(
            d._ref != (screen, l) for l, d in enumerate(data)
        ):
            screen = cls(data)
        return screen

    def refresh(self, data, P):
        """Take the full-width gradient at P in X's dtype as the reference."""
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow bounds nothing
            G = _grad(P, data, np.empty((data[0].k, len(data)), order="F"))
        self.bounded = bool(np.isfinite(G).all())
        if not self.bounded:
            G[~np.isfinite(G)] = np.nan
        self.P, self.G, self._score = P, G, {}
        self.rho = [float(np.linalg.norm(p - d.y)) for p, d in zip(P, data)]
        self.gathered = 0
        for l, d in enumerate(data):
            d._ref = (self, l)

    def _bound_parts(self, mode):
        if mode not in self._c:
            c = self.c2 if mode == MODE_MTL else np.sqrt(self.c2)
            self._c[mode] = c, np.array([c[:, l].max() for l in range(self.n)])
        if mode not in self._score:
            self._score[mode] = _scores(self.G, mode)
        return self._score[mode], *self._c[mode]

    def _candidates(self, P, ws, mode, lam, n, room):
        """Rows outside ``ws`` that may score above ``lam`` at P and may be
        among the n highest scores, or None when P is off the reference
        and more than ``room`` rows are near enough to need a look."""
        a = np.empty(self.n)  # t_kl = c_kl a_l
        moved = False
        for l, (p, p_ref, rho, (g, g64)) in enumerate(zip(P, self.P, self.rho, self.gammas)):
            diff = p - p_ref
            delta = math.sqrt(float(diff @ diff))
            moved = moved or delta > 0
            a[l] = (2.0 / len(p)) * (delta + g * rho + g64 * (rho + delta))
        score, c, c_max = self._bound_parts(mode)
        score = score.copy()
        score[ws] = -np.inf
        # a score lies in [lo (1 - s), hi (1 + s)]; thresholds carry the slack
        low, high = 1.0 - 2.0 * self.slack, 1.0 + 2.0 * self.slack
        with np.errstate(invalid="ignore", over="ignore"):  # NaN marks "no bound"
            # every t_k is at most T, so a row scoring below lam - T cannot
            # violate. With q the n-th highest score, a row below q - 2T
            # cannot either if q - T <= lam; otherwise the n rows scoring q
            # or more all violate, and it cannot outrank them.
            if mode == MODE_MTL:
                T = math.sqrt(c_max @ (a * a))
            else:
                T = float((c_max * a).max())
            if math.isnan(T):
                T = math.inf
            near = np.flatnonzero(~(score <= lam * low - T))
            if moved and len(near) > room:
                return None
            if len(near) > n and self.bounded:
                q = np.partition(score[near], len(near) - n)[len(near) - n]
                near = near[~(score[near] < (q - T) * (low - self.slack) - T)]
            if mode == MODE_MTL:
                t = np.sqrt(c[near] @ (a * a))
                hi, lo = score[near] + t, score[near] - t
            else:
                g, t = np.abs(self.G[near]), c[near] * a
                hi, lo = (g + t).max(1), (g - t).max(1)
        sure = lo[lo > lam * high]
        if len(sure) >= n:  # rows below the n-th highest lo cannot outrank these n
            tau = np.partition(sure, len(sure) - n)[len(sure) - n]
            return near[~(hi < tau * low)]
        return near[~(hi <= lam * low)]

    def violators(self, data, P, ws, mode, lam, n):
        """The n rows outside ``ws`` with the highest float64 scores above
        ``lam`` at products P, highest first (ties to the lower row), and
        their scores."""
        if self.G is None:
            self.refresh(data, P)
        rows = self._candidates(P, ws, mode, lam, n, self.max_gather - self.gathered)
        if rows is None:
            self.refresh(data, P)  # P is the reference now, so rows come back
            rows = self._candidates(P, ws, mode, lam, n, self.max_gather)
        if not len(rows):
            return rows, np.zeros(0)
        self.gathered += len(rows)
        score = _exact_scores(P, data, rows, mode)
        over = score > lam
        rows, score = rows[over], score[over]
        order = np.argsort(-score, kind="stable")[:n]
        return rows[order], score[order]


def lambda_max(data, mode=MODE_MTL):
    """Smallest lambda for which the all-zero W is optimal.

    This is the largest float64 KKT score at W = 0, scored as ``solve``
    scores its rows (``_Screen``), so ``solve`` from zero at any lam >=
    lambda_max finds no violator and runs no FISTA. On tasks without a
    reference, its full-width pass at W = 0 becomes the first one.
    """
    P = [np.zeros(d.n) for d in data]  # X_l w_l at W = 0
    _, score = _Screen.of(data).violators(data, P, np.zeros(0, dtype=np.intp), mode, 0.0, 1)
    return float(score[0]) if len(score) else 0.0


def solve(data, lam, opts=SolverOptions(), w0=None):
    """Working-set solve of the selection problem at ``lam``.

    Starts with the working set ``ws`` at the nonzero rows of ``w0`` (empty
    from zero, the default). Each outer pass runs FISTA (``_fista``) on the
    columns ``ws`` of every X_l, warm-started from W[ws]; every row outside
    ``ws`` stays exactly 0, so the subproblem's objective is the full one.
    Then each row outside ``ws`` is checked against its KKT condition for
    staying zero: the float64 score of the smooth gradient G at W,
    ||G[k]|| in mtl mode, max_l |G[k, l]| in stl mode, must not exceed
    ``lam`` (``_Screen``; most passes score only a few rows and take no
    full-width product). With no violator, W is returned. Otherwise the
    max(20, |ws|) highest-scoring violators join ``ws``, which only grows,
    so there are about log2(K) passes.

    FISTA and its residuals run on a float64 copy of the columns ``ws``.
    ``w0`` is copied, never written to. The result depends only on
    ``data``, ``lam``, ``opts`` and ``w0``, never on the references the
    tasks carry from earlier calls. In the solver's own float64 loss it
    never has a higher objective than ``w0``; starting from zero, any lam
    >= lambda_max (the largest float64 score at zero) returns the exact
    zero matrix without a FISTA iteration.
    """
    if lam < 0:
        raise NegativeLambdaError(f"lambda = {lam}")
    k, n_tasks = data[0].k, len(data)
    W = np.zeros((k, n_tasks)) if w0 is None else np.array(w0, dtype=np.float64)
    _check_shapes(W, data)
    ws = _nonzero_rows(W)
    screen = _Screen.of(data)
    while True:
        sub = [d.columns(ws) for d in data]  # float64
        if len(ws):
            W[ws] = _fista(sub, lam, opts, W[ws])
        P = _products(W[ws], sub)
        grow, _ = screen.violators(data, P, ws, opts.mode, lam, max(20, len(ws)))
        if not len(grow):
            return W
        ws = np.union1d(ws, grow)


def _fista(data, lam, opts, w0):
    """Accelerated proximal gradient (FISTA) with backtracking from ``w0``.

    Momentum weights theta_{t+1} = (1 + sqrt(1 + 4 theta_t^2)) / 2; the
    step is halved until the quadratic upper bound on the smooth part
    holds at the prox point. The loss is quadratic, so that bound is
    tested exactly as sum_l ||X_l d_l||^2 / N_l <= ||d||^2 / (2 step) for
    the step d from the extrapolated point, without subtracting two
    rounded losses. Stops on relative objective change below
    opts.rel_tol. Returns the best iterate seen, so the result's objective
    is never above the initial point's.

    Each iterate carries its products X_l w_l, so the extrapolated
    point's products cost O(N); the accepted iterate's are recomputed
    from W so they never drift. Iterates are float64; products run in
    X's dtype.
    """
    W = np.array(w0, dtype=np.float64)
    P = _products(W, data)
    W_prev, P_prev = W, P
    G = np.empty_like(W)
    theta = 1.0
    step = INIT_STEP
    F = _loss(P, data) + lam * penalty(W, opts.mode)
    best_F, best_W = F, W  # iterates are never written to once made

    for _ in range(opts.max_iters):
        theta_next = (1.0 + math.sqrt(1.0 + 4.0 * theta * theta)) / 2.0
        beta = (theta - 1.0) / theta_next
        Z = W + beta * (W - W_prev)
        _grad([p + beta * (p - q) for p, q in zip(P, P_prev)], data, G)

        while True:
            W_new, pen = _prox(Z - step * G, step * lam, opts.mode)
            D = W_new - Z
            rhs = float(np.vdot(D, D)) / (2.0 * step)
            curv = sum([float(np.dot(x, x)) / len(x) for x in _products(D, data)])
            if curv <= rhs + 1e-12 * max(1.0, rhs):
                break
            step *= STEP_SHRINK
            if step < 1e-18:
                raise NonFiniteError("backtracking step underflow")

        W_prev, P_prev, W = W, P, W_new
        P = _products(W, data)
        theta = theta_next
        F_new = _loss(P, data) + lam * pen
        if not math.isfinite(F_new):
            raise NonFiniteError("objective diverged")
        if F_new < best_F:
            best_F, best_W = F_new, W
        if abs(F_new - F) / max(1.0, abs(F)) < opts.rel_tol:
            break
        F = F_new
    return best_W


def support(W, epsilon=SUPPORT_EPSILON):
    """Ascending indices of rows with Euclidean norm above epsilon."""
    return np.flatnonzero(_row_norms(np.atleast_2d(W)) > epsilon)


def fit_for_budget(data, budget, opts=SolverOptions()):
    """Pick lambda by bisection so at most ``budget`` bins are selected.

    Searches [0, lambda_max]; each solve warm-starts from the previous
    coefficients. Among solutions with |support| <= budget the one with
    the largest support wins, ties broken toward smaller lambda; a bin is
    selected when its row norm exceeds SUPPORT_EPSILON. The search stops
    after MAX_BISECT solves, or earlier once the bracket [lo, hi] is no
    wider than opts.rel_tol * hi: moving lambda that little changes the
    penalty term lambda * R(W) by less than the solver's own relative
    tolerance.
    """
    k = data[0].k
    if not (1 <= budget <= k):
        raise BudgetOutOfRangeError(f"budget {budget} outside [1, {k}]")

    lam_hi = lambda_max(data, opts.mode)
    best = SelectionResult(lam_hi, np.zeros((k, len(data))), np.array([], dtype=int))
    if lam_hi == 0.0:
        return best

    lo, hi = 0.0, lam_hi
    W = None
    for _ in range(MAX_BISECT):
        if hi - lo <= opts.rel_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        W = solve(data, mid, opts, w0=W)  # a new array; the old W is not touched
        S = support(W)
        if len(S) <= budget:
            hi = mid
            if len(S) >= len(best.selected):  # mid < hi <= best.lam: a tie goes to mid
                best = SelectionResult(mid, W, S)
        else:
            lo = mid
    return best


# --- GLOHSEL text serialization ---

def write_selection(path, result):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("GLOHSEL 1\n")
        fh.write(f"lambda={float(result.lam)!r}\n")
        fh.write(f"epsilon={float(result.epsilon)!r}\n")
        for k in result.selected:
            weights = " ".join(repr(float(v)) for v in result.W[k])
            fh.write(f"{int(k)} {weights}\n")


def read_selection(path, n_bins, n_tasks):
    """Inverse of write_selection; needs the full (K, L) shape to rebuild W.

    Bins must be strictly ascending and inside [0, n_bins), each with
    exactly n_tasks finite weights; anything else raises a GlohError.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except UnicodeDecodeError:
        raise MalformedRowError(f"{path}: not UTF-8 text") from None
    if (
        len(lines) < 3
        or lines[0] != "GLOHSEL 1"
        or not lines[1].startswith("lambda=")
        or not lines[2].startswith("epsilon=")
    ):
        raise ShapeMismatchError(f"not a GLOHSEL file: {path}")
    W = np.zeros((n_bins, n_tasks))
    selected = []
    lineno = 2
    try:
        lam = float(lines[1].split("=", 1)[1])
        lineno = 3
        eps = float(lines[2].split("=", 1)[1])
        for lineno, ln in enumerate(lines[3:], start=4):
            if not ln.strip():
                continue
            parts = ln.split()
            k = int(parts[0])
            weights = [float(v) for v in parts[1:]]
            if len(weights) != n_tasks:
                raise ShapeMismatchError(
                    f"{path}:{lineno}: {len(weights)} weights, expected {n_tasks}"
                )
            if not 0 <= k < n_bins:
                raise ShapeMismatchError(
                    f"{path}:{lineno}: bin {k} outside [0, {n_bins})"
                )
            if selected and k <= selected[-1]:
                raise MalformedRowError(f"{path}:{lineno}: bins not strictly ascending")
            W[k] = weights
            selected.append(k)
    except ValueError:
        raise MalformedRowError(f"{path}:{lineno}: unparsable value") from None
    if not (np.isfinite(lam) and np.isfinite(eps) and np.all(np.isfinite(W))):
        raise NonFiniteError(f"{path}: non-finite lambda, epsilon or weight")
    return SelectionResult(lam, W, np.array(selected, dtype=int), eps)
