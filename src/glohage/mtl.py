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
on most passes (``_Screen``). The lambda search's one screen checks its
tasks and measures their column norms once, and keeps the row scores of
the last full-width gradient, taken in X's dtype, as a reference; in
either mode a row's score at new products lies within its reference
score ± ||t_k||, a bound from its column norms and how far the products
moved, so only the rows whose interval reaches lambda, and that can still
rank among the rows that join, are scored, each in float64 from its own
column. When more columns would be gathered than the product reads, the
product is taken again and becomes the new reference. The decisions, and
so ``solve``'s result, do not depend on which reference the screen
carries.
``lambda_max`` is the largest float64 score at W = 0 from the same
scoring, so at lambda_max ``solve`` from zero finds no violator.

FISTA carries the products X_l w_l of its iterates, forms every product
over all the working set's columns and hands those of the iterate it
returns to the KKT check. Because the loss is quadratic, the
backtracking test compares sum_l ||X_l d_l||^2 / N_l with ||d||^2 /
(2 step) directly instead of differencing two rounded losses.
Loss and gradient share one product/residual path (``_products``,
``_loss``, ``_grad``); the tests score solutions with an objective of
their own, written from the problem's definition.

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
    read_lines,
)

MODE_MTL = "mtl"
MODE_STL = "stl"

INIT_STEP = 1.0  # first FISTA step of every call
STEP_SHRINK = 0.5  # backtracking factor on the step
SUPPORT_EPSILON = 1e-8  # row norm above which a bin counts as selected
MAX_BISECT = 40  # most solves one lambda search makes
CACHE_LINE = 64  # bytes read per element when gathering a column of a row-major X
SCORE_BLOCK = 128  # columns _exact_scores gathers and casts to float64 at a time


@dataclass(eq=False)
class TaskDataset:
    """Design matrix and age labels for one task (one gender); FISTA's
    tasks on float64 working-set columns are TaskDatasets too.

    The task checks only its shapes and carries no solver state: the
    lambda search's KKT screen (``_Screen``) checks its entries and
    measures its columns. Tasks compare by identity; X and y must not
    change once the task is made.
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
    """Float64 KKT scores of ``rows`` at products P, gathered SCORE_BLOCK
    columns at a time. Each column is summed on its own, so a row's score
    has the same bits whichever rows are scored with it."""
    G = np.empty((len(rows), len(data)), order="F")
    for l, (p, d) in enumerate(zip(P, data)):
        r = p - d.y
        for a in range(0, len(rows), SCORE_BLOCK):
            # (block, N), a fresh array
            cols = d.X.T[rows[a : a + SCORE_BLOCK]].astype(np.float64, copy=False)
            cols *= r
            G[a : a + SCORE_BLOCK, l] = (2.0 / len(p)) * cols.sum(1)
    return _scores(G, mode)


def _scores(G, mode):
    """Each row's KKT score for staying zero, from the smooth gradient G:
    ||G[k]|| in mtl mode, max_l |G[k, l]| in stl mode."""
    return _row_norms(G) if mode == MODE_MTL else np.abs(G).max(1)


def penalty(W, mode):
    if mode == MODE_MTL:
        return float(_row_norms(W).sum())
    return float(np.abs(W).sum())


def _prox(V, tau, mode):
    """Prox of tau * R at V: (result, R(result))."""
    if mode == MODE_STL:
        out = np.sign(V) * np.maximum(np.abs(V) - tau, 0.0)  # soft threshold
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

    A screen serves one mode and one list of tasks. Once, it checks them
    (at least one, all of one width, X and y finite) and takes upper
    bounds c_kl^2 on their squared column norms, summed in X's dtype and
    rounded up by that sum's error bound. Its reference is the
    last full-width pass over them: products p̂_l, ρ̂_l = ||p̂_l - y_l|| and
    each row's score s_k of the gradient computed in X's dtype. A task's
    gradient depends only on its own w_l, so a reference from any earlier
    pass, at any lambda, stays valid. At products p_l every row's float64
    gradient entry is within

        t_kl = (2 / N_l) c_kl (δ_l + γ_l ρ̂_l + γ64_l (ρ̂_l + δ_l))

    of the reference's, with c_kl the column norm, δ_l = ||p_l - p̂_l||
    (Cauchy-Schwarz) and γ the rounding bounds of the reference's product
    and of the float64 score (``_gamma``). So in either mode a row's score
    lies within [lo, hi] = s_k ± ||t_k||: a row norm moves by at most
    ||t_k||, and max_l |G[k, l]| by at most max_l t_kl <= ||t_k||. Both
    ends are widened by a relative slack for the float64 rounding of the
    bound and the score. The candidates are the rows whose hi reaches
    lambda (a lo above lambda puts hi above it too); when n of them have a
    lo above lambda, only those whose hi reaches the n-th highest lo can be
    among the n highest scores. Those left are scored by ``_exact_scores``.
    Once the columns scored against the reference would gather more bytes
    than one full-width product reads, the product is taken at P instead
    and becomes the reference. A non-finite reference score bounds nothing
    (NaN); a row whose float64 score is not finite cannot be decided, and
    raises NonFiniteError.

    The lambda search owns its screen: ``fit_for_budget`` makes one and
    passes it to ``lambda_max`` and every ``solve``, so each solve starts
    from the last full-width pass of the search.
    """

    def __init__(self, data, mode):
        self.data, self.mode = tuple(data), mode
        if not self.data or any(d.k != self.data[0].k for d in self.data):
            raise ShapeMismatchError("no tasks, or tasks of different widths")
        self.gammas = [(_gamma(d.n, d.X.dtype), _gamma(d.n, np.float64)) for d in data]
        self.c2 = np.empty((self.data[0].k, len(data)))
        for l, (d, (g, _)) in enumerate(zip(self.data, self.gammas)):
            with np.errstate(over="ignore"):  # an overflow is an infinite bound
                s2 = np.einsum("ij,ij->j", d.X, d.X)
            # a non-finite entry leaves its column's sum non-finite, so X is
            # scanned only when a sum is
            finite = np.isfinite(s2).all() or np.isfinite(d.X).all()
            if not (finite and np.isfinite(d.y).all()):
                raise NonFiniteError(f"task {d.task_id}: non-finite entries")
            self.c2[:, l] = np.multiply(s2, 1.0 + 2.0 * g, dtype=np.float64)
        self.slack = 4 * (len(data) + 4) * np.finfo(np.float64).eps
        # gathering a column of a row-major X reads one cache line per row
        self.max_gather = sum(d.X.nbytes for d in data) // (CACHE_LINE * sum(d.n for d in data))
        self.P = self.score = self.rho = None  # the reference, from the first pass on
        self.gathered = 0  # columns scored against it

    @classmethod
    def serving(cls, screen, data, mode):
        """``screen`` if made for these tasks, in this order, and ``mode``; else a new one."""
        if screen is None or screen.mode != mode or screen.data != tuple(data):
            screen = cls(data, mode)
        return screen

    def refresh(self, P):
        """Take the row scores of the full-width gradient at P, computed in
        X's dtype, as the reference."""
        data = self.data
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow bounds nothing
            G = _grad(P, data, np.empty((data[0].k, len(data)), order="F"))
            score = _scores(G, self.mode)
            self.rho = [float(np.linalg.norm(p - d.y)) for p, d in zip(P, data)]
        score[~np.isfinite(score)] = np.nan
        self.P, self.score = P, score
        self.gathered = 0

    def _candidates(self, P, ws, lam, n, room):
        """Rows outside ``ws`` that may score above ``lam`` at P and may be
        among the n highest scores, ascending, or None when P is off the
        reference and there are more than ``room`` of them."""
        a = np.empty(len(self.data))  # t_kl = c_kl a_l
        moved = False
        for l, (p, p_ref, rho, (g, g64)) in enumerate(zip(P, self.P, self.rho, self.gammas)):
            diff = p - p_ref
            delta = math.sqrt(float(diff @ diff))
            moved = moved or delta > 0
            a[l] = (2.0 / len(p)) * (delta + g * rho + g64 * (rho + delta))
        # a score lies in [lo (1 - s), hi (1 + s)]; thresholds carry the slack
        low, high = 1.0 - 2.0 * self.slack, 1.0 + 2.0 * self.slack
        with np.errstate(invalid="ignore", over="ignore"):  # NaN marks "no bound"
            t = np.sqrt(self.c2 @ (a * a))
            hi = self.score + t
            hi[ws] = -np.inf
            rows = np.flatnonzero(~(hi <= lam * low))
            lo = self.score[rows] - t[rows]  # lo > lam high only where hi > lam low
        sure = lo[lo > lam * high]
        if len(sure) >= n:  # rows below the n-th highest lo cannot outrank these n
            tau = np.partition(sure, len(sure) - n)[len(sure) - n]
            rows = rows[~(hi[rows] < tau * low)]  # tau > lam high, so tau low > lam low
        return None if moved and len(rows) > room else rows

    def violators(self, P, ws, lam, n):
        """The n rows outside ``ws`` with the highest float64 scores above
        ``lam`` at products P, highest first (ties to the lower row), and
        their scores."""
        if self.score is None:
            self.refresh(P)
        rows = self._candidates(P, ws, lam, n, self.max_gather - self.gathered)
        if rows is None:
            self.refresh(P)  # P is the reference now, so rows come back
            rows = self._candidates(P, ws, lam, n, self.max_gather)
        if not len(rows):
            return rows, np.zeros(0)
        self.gathered += len(rows)
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            score = _exact_scores(P, self.data, rows, self.mode)
        if not np.isfinite(score).all():
            raise NonFiniteError(f"bin {rows[~np.isfinite(score)][0]}: KKT score is not finite")
        over = score > lam
        rows, score = rows[over], score[over]
        order = np.argsort(-score, kind="stable")[:n]
        return rows[order], score[order]


def lambda_max(data, mode=MODE_MTL, *, screen=None):
    """Smallest lambda for which the all-zero W is optimal.

    This is the largest float64 KKT score at W = 0, scored as ``solve``
    scores its rows (``_Screen``), so ``solve`` from zero at any lam >=
    lambda_max finds no violator and runs no FISTA. On a new ``screen``
    (the lambda search's, else the call's own) its pass at W = 0 is the
    first reference. A score that is not finite, as when the float64
    gradient overflows, raises NonFiniteError.
    """
    screen = _Screen.serving(screen, data, mode)
    P = [np.zeros(d.n) for d in data]  # X_l w_l at W = 0
    _, score = screen.violators(P, np.zeros(0, dtype=np.intp), 0.0, 1)
    return float(score[0]) if len(score) else 0.0


def solve(data, lam, opts=SolverOptions(), w0=None, *, screen=None):
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
    ``w0`` is copied, never written to. ``screen`` is the lambda search's;
    a call without one for these tasks and mode makes its own. The result
    depends only on ``data``, ``lam``, ``opts`` and ``w0``, never on the
    screen's reference. In the solver's own float64 loss it never has a
    higher objective than ``w0``; starting from zero, any lam >=
    lambda_max (the largest float64 score at zero) returns the exact zero
    matrix without a FISTA iteration.
    """
    if lam < 0:
        raise NegativeLambdaError(f"lambda = {lam}")
    screen = _Screen.serving(screen, data, opts.mode)
    shape = (data[0].k, len(data))
    W = np.zeros(shape) if w0 is None else np.array(w0, dtype=np.float64)
    if W.shape != shape:
        raise ShapeMismatchError(f"W shape {W.shape}, expected {shape}")
    ws = _nonzero_rows(W)
    while True:
        P = [np.zeros(d.n) for d in data]  # X_l w_l at W = 0
        if len(ws):
            sub = [TaskDataset(d.task_id, d.X[:, ws].astype(np.float64, copy=False), d.y)
                   for d in data]
            W[ws], P = _fista(sub, lam, opts, W[ws])
        grow, _ = screen.violators(P, ws, lam, max(20, len(ws)))
        if not len(grow):
            return W
        ws = np.sort(np.concatenate([ws, grow]))  # grow lies outside ws


@np.errstate(over="ignore", invalid="ignore")
def _fista(data, lam, opts, w0):
    """Accelerated proximal gradient (FISTA) with backtracking from ``w0``.

    Momentum weights theta_{t+1} = (1 + sqrt(1 + 4 theta_t^2)) / 2; the
    step is halved until the quadratic upper bound on the smooth part
    holds at the prox point. The loss is quadratic, so that bound is
    tested exactly as sum_l ||X_l d_l||^2 / N_l <= ||d||^2 / (2 step) for
    the step d from the extrapolated point, without subtracting two
    rounded losses. Stops on relative objective change below
    opts.rel_tol. Returns the best iterate seen, so the result's objective
    is never above the initial point's, and its products X_l w_l.

    Each iterate carries its products, so the extrapolated point's
    products cost O(N); the accepted iterate's are recomputed from W so
    they never drift. Iterates are float64; products run in X's dtype.
    An overflow in here ends in the step-underflow or divergence check's
    NonFiniteError, with numpy's overflow and invalid warnings off.
    """
    W = np.array(w0, dtype=np.float64)
    P = _products(W, data)
    W_prev, P_prev = W, P
    G = np.empty_like(W)
    theta = 1.0
    step = INIT_STEP
    F = _loss(P, data) + lam * penalty(W, opts.mode)
    best_F, best_W, best_P = F, W, P  # iterates are never written to once made

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
            best_F, best_W, best_P = F_new, W, P
        if abs(F_new - F) / max(1.0, abs(F)) < opts.rel_tol:
            break
        F = F_new
    return best_W, best_P


def support(W, epsilon=SUPPORT_EPSILON):
    """Ascending indices of rows with Euclidean norm above epsilon."""
    return np.flatnonzero(_row_norms(np.atleast_2d(W)) > epsilon)


def fit_for_budget(data, budget, opts=SolverOptions()):
    """Pick lambda by bisection so at most ``budget`` bins are selected.

    Searches [0, lambda_max] with one KKT screen; each solve warm-starts
    from the previous coefficients. Among solutions with |support| <=
    budget the one with the largest support wins, ties broken toward
    smaller lambda; a bin is selected when its row norm exceeds
    SUPPORT_EPSILON. The search stops after MAX_BISECT solves, or earlier
    once the bracket [lo, hi] is no wider than opts.rel_tol * hi: moving
    lambda that little changes the penalty term lambda * R(W) by less than
    the solver's own relative tolerance. At lambda_max = 0 (say, all-zero
    labels) that bracket is closed before the first solve, and the result
    is lambda 0 with no bins.
    """
    screen = _Screen(data, opts.mode)
    k = data[0].k
    if not (1 <= budget <= k):
        raise BudgetOutOfRangeError(f"budget {budget} outside [1, {k}]")
    lam_hi = lambda_max(data, opts.mode, screen=screen)
    best = SelectionResult(lam_hi, np.zeros((k, len(data))), np.array([], dtype=int))
    lo, hi = 0.0, lam_hi
    W = None
    for _ in range(MAX_BISECT):
        if hi - lo <= opts.rel_tol * hi:
            break
        mid = 0.5 * (lo + hi)
        W = solve(data, mid, opts, w0=W, screen=screen)  # a new W; the old one is kept
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

    lambda and epsilon must be finite and nonnegative, and bins strictly
    ascending and inside [0, n_bins), each with exactly n_tasks finite
    weights; anything else raises a GlohError.
    """
    lines = read_lines(path, MalformedRowError)
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
    if lam < 0:
        raise NegativeLambdaError(f"{path}:2: lambda = {lam}")
    if eps < 0:
        raise MalformedRowError(f"{path}:3: negative epsilon {eps}")
    return SelectionResult(lam, W, np.array(selected, dtype=int), eps)
