"""End-to-end wiring: extraction, selection, training and LOPO evaluation."""

import itertools
import math
import os
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from . import dataset as ds
from . import featfile, metrics, mtl, ridge
from . import gloh as gloh_mod
from .errors import EmptyError


@dataclass
class RunConfig:
    gloh: gloh_mod.GlohParams = field(default_factory=gloh_mod.GlohParams)
    solver: mtl.SolverOptions = field(default_factory=mtl.SolverOptions)
    budget: int = 50
    alpha_grid: tuple = ridge.DEFAULT_ALPHA_GRID
    cs_max: int = 15
    seed: int = 0
    height: int = 68
    width: int = 62
    standardize: bool = False
    age_range: tuple | None = None  # (lo, hi) inclusive years

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if len(self.alpha_grid) == 0 or not all(
            math.isfinite(a) and a >= 0 for a in self.alpha_grid
        ):
            raise ValueError(
                f"alpha_grid needs finite values >= 0, got {self.alpha_grid}"
            )
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.cs_max <= ds.MAX_AGE:  # no absolute error exceeds MAX_AGE
            raise ValueError(f"cs_max must be in [0, {ds.MAX_AGE}], got {self.cs_max}")
        if self.age_range is not None and self.age_range[0] > self.age_range[1]:
            raise ValueError(f"age_range {self.age_range} has lo > hi")


# images each extraction task stacks into one extract_gloh call, and the
# bytes of finished float32 rows in flight per worker: about five rows at
# the default geometry. Measured on 2 vCPUs, two images a call halve the
# interpreter-lock handoffs per image, and only with tasks queued behind
# the running ones did that shorten extraction; more images did not.
IMAGES_PER_TASK = 2
EXTRACT_BYTES_PER_WORKER = 1 << 20


def _usable_cpus():
    """CPUs this process may run on: its affinity mask where there is one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def extract_features(manifest, path, config=RunConfig(), base_dir="."):
    """Extract GLOH features for every manifest row into a GFV1 file at
    ``path``, in manifest order; returns (N, K).

    Relative image paths are resolved against ``base_dir`` (normally the
    manifest's directory). Rows are extracted on one thread per usable CPU,
    IMAGES_PER_TASK images to an ``extract_gloh`` call, and streamed to
    ``featfile.write_blocks`` in manifest order, with at most about
    EXTRACT_BYTES_PER_WORKER of rows per worker in flight, so the whole
    matrix is never held. Each row is computed on its own, so the file has
    the same bytes for any number of threads. The rows are awaited in
    order, so a failure raises the first failing row's error, and then no
    file is written. With one worker the rows are computed on the calling
    thread, and no pool is made.
    """
    from .pgm import check_dims, load_pgm

    if not manifest.samples:
        raise EmptyError("manifest has no rows")
    paths = [os.path.join(base_dir, s.image_path) for s in manifest.samples]
    step = IMAGES_PER_TASK
    tasks = [paths[a : a + step] for a in range(0, len(paths), step)]
    workers = min(_usable_cpus(), len(tasks))

    def rows(image_paths):
        imgs = np.stack(
            [check_dims(load_pgm(p), config.height, config.width) for p in image_paths]
        )
        return gloh_mod.extract_gloh(imgs, config.gloh).astype(np.float32)

    if workers == 1:
        return featfile.write_blocks(path, map(rows, tasks))
    from concurrent.futures import ThreadPoolExecutor  # only a pool needs it

    todo = iter(tasks)

    def blocks(pool):
        pending = deque(pool.submit(rows, p) for p in itertools.islice(todo, workers))
        while pending:
            block = pending.popleft().result()
            room = max(workers, workers * EXTRACT_BYTES_PER_WORKER // block.nbytes)
            pending.extend(
                pool.submit(rows, p) for p in itertools.islice(todo, room - len(pending))
            )
            yield block

    pool = ThreadPoolExecutor(workers)
    try:
        return featfile.write_blocks(path, blocks(pool))
    finally:
        pool.shutdown(cancel_futures=True)


class _Rows:
    """Rows of a feature source as ``select_bins``, ``ridge.fit_model`` and
    ``predict_rows`` read them: ``.shape``, ``v[rows]`` and
    ``v[np.ix_(rows, bins)]``.

    Row i is row ``index[i]`` of ``source``, an (N, K) array or a
    ``featfile.FeatureFile``. With ``mean`` and ``std`` every block returned
    is ``(block - mean[bins]) / std[bins]``, elementwise in the source's
    dtype, so an element has the same bits whichever rows and bins are
    gathered with it. The view keeps each row block it returns, and a
    (rows, bins) gather of rows that those blocks hold is cut from them
    instead of read again: a fold's ridge fits take the rows its selection
    has read.
    """

    def __init__(self, source, index, mean=None, std=None):
        self.source, self.index, self.mean, self.std = source, index, mean, std
        self.shape = (len(index), source.shape[1])
        self._blocks = []
        self._block_of = np.full(len(index), -1)  # view row -> kept block
        self._row_in = np.zeros(len(index), dtype=np.intp)  # -> its row there

    def fresh(self, mean=None, std=None):
        """The same rows, scaled by ``mean`` and ``std`` if given, in a new
        view that keeps no block yet."""
        return _Rows(self.source, self.index, mean, std)

    def __getitem__(self, key):
        if not isinstance(key, tuple):
            rows = np.asarray(key, dtype=np.intp)
            block = self._scaled(self.source[self.index[rows]], slice(None))
            self._block_of[rows] = len(self._blocks)
            self._row_in[rows] = np.arange(len(rows))
            self._blocks.append(block)
            return block
        rows, bins = np.asarray(key[0])[:, 0], np.asarray(key[1])[0]
        kept = self._block_of[rows]
        if len(rows) == 0 or (kept < 0).any():
            return self._scaled(self.source[np.ix_(self.index[rows], bins)], bins)
        out = np.empty((len(rows), len(bins)), dtype=self._blocks[0].dtype)
        for b in np.unique(kept):
            at = kept == b
            out[at] = self._blocks[b][np.ix_(self._row_in[rows[at]], bins)]
        return out

    def _scaled(self, block, bins):
        if self.mean is not None:  # in place: the same bits as out of place
            block -= self.mean[bins]
            block /= self.std[bins]
        return block


def _filter_age_range(manifest, features, age_range):
    """The manifest rows whose age lies in ``age_range`` (every row if it
    is None), and a ``_Rows`` view of their features."""
    keep = range(len(manifest.samples))
    if age_range is not None:
        lo, hi = age_range
        keep = [i for i, s in enumerate(manifest.samples) if lo <= s.age <= hi]
        manifest = ds.Manifest([manifest.samples[i] for i in keep])
    return manifest, _Rows(features, np.asarray(keep, dtype=np.intp))


def _standardized(features, train_rows):
    """``features``, a ``_Rows`` view, standardized by the mean and std of
    its ``train_rows``: a new view that scales only the blocks it returns.
    The training rows are read whole, once, for their statistics."""
    train = features.source[features.index[train_rows]]
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    # a constant bin's float32 std can be rounding noise instead of 0: both get 1
    std[(std == 0) | (train.max(axis=0) == train.min(axis=0))] = 1.0
    return features.fresh(mean, std)


def select_bins(manifest, features, config=RunConfig(), rows=None):
    """Fit the sparse selection on the tasks of ``rows`` (default: all rows).

    ``features`` is an (N, K) array or a ``featfile.FeatureFile``; only
    its ``.shape`` and row gathers are used. Each task takes its
    ``dataset.task_rows`` of ``features`` once, as a new array. Its
    labels are its ages less their mean: the selection problem has no
    intercept, and the age offset would swamp the bin correlations.
    """
    ds.check_row_count(manifest, features)
    if rows is None:
        rows = range(len(manifest.samples))
    tasks = []
    for label, idx in ds.task_rows(rows, manifest).items():
        ages = np.array([manifest.samples[r].age for r in idx], dtype=np.float64)
        tasks.append(mtl.TaskDataset(label, features[idx], ages - ages.mean()))
    return mtl.fit_for_budget(tasks, config.budget, config.solver)


def train_model(manifest, features, config=RunConfig(), selection=None, rows=None):
    """Selection on ``rows`` (unless given) followed by per-task ridge
    regressors, each fit on its task's rows of the selected bins.

    ``features`` is an (N, K) array or a ``featfile.FeatureFile``, as in
    ``select_bins``."""
    ds.check_row_count(manifest, features)
    if rows is None:
        rows = range(len(manifest.samples))
    if selection is None:
        selection = select_bins(manifest, features, config, rows)
    ages = [s.age for s in manifest.samples]
    model = ridge.fit_model(
        features, ages, ds.task_rows(rows, manifest), selection.selected,
        config.alpha_grid, seed=config.seed,
    )
    return selection, model


def predict_rows(model, features, manifest=None, rows=None):
    """Predict ages for feature rows; gender (if known) picks the task model,
    and each task's rows go to ridge.predict_selected in one call.
    ``features`` is an (N, K) array or a ``featfile.FeatureFile``; only the
    selected bins of one task's rows at a time are gathered."""
    if manifest is not None:
        ds.check_row_count(manifest, features)
    rows = np.arange(features.shape[0]) if rows is None else np.asarray(rows, dtype=int)
    tasks = np.full(len(rows), ridge.POOLED, dtype=object)
    if manifest is not None:
        for i, r in enumerate(rows):
            if manifest.samples[r].gender in (ds.MALE, ds.FEMALE):
                tasks[i] = manifest.samples[r].gender
    preds = np.empty(len(rows))
    for task in dict.fromkeys(tasks):
        pick = tasks == task
        ridge.check_features(model, features.shape[1], task)
        # F order, as ridge.predict gives it: the same bits
        block = np.asfortranarray(
            features[np.ix_(rows[pick], model.selected)], dtype=np.float64
        )
        preds[pick] = ridge.predict_selected(model, block, task)
    return preds


def evaluate_lopo(manifest, features, config=RunConfig()):
    """Leave-one-person-out evaluation of the full selection+ridge pipeline.

    ``features`` is an (N, K) array or a ``featfile.FeatureFile``; the
    whole matrix is never copied. ``config.age_range`` keeps rows by index.
    Each fold reads its task rows once for the selection, and its ridge
    fits cut their selected bins from those rows; the held-out rows' bins
    are read for the predictions. With ``config.standardize`` the fold's
    training rows are read once more for their mean and std, and only the
    blocks the fold reads are standardized, with the bits a standardized
    copy of the whole matrix would give.
    """
    ds.check_row_count(manifest, features)
    manifest, view = _filter_age_range(manifest, features, config.age_range)
    folds = ds.split_lopo(manifest)
    results = []
    for fold in folds:
        # a new view each fold keeps only this fold's task rows, and is
        # dropped before the next fold reads its training rows
        feats = (
            _standardized(view, fold.train_rows) if config.standardize else view.fresh()
        )
        _, model = train_model(manifest, feats, config, rows=fold.train_rows)
        preds = predict_rows(model, feats, manifest, fold.test_rows)
        del feats
        truth = np.array(
            [manifest.samples[r].age for r in fold.test_rows], dtype=np.float64
        )
        results.append((fold.held_out_person, preds, truth))
    return metrics.aggregate(results, config.cs_max)


def synth_dataset(spec, out_dir):
    """Write a synthetic benchmark: manifest, GFV1 features and ground truth.

    Real-valued responses are mapped affinely onto integer ages in [0, 69]
    so the manifest satisfies the age contract; the map is recorded in the
    ground-truth file. Tasks 0 and 1 are labeled male and female; further
    tasks get unknown gender. Samples are grouped into persons of up to 5
    images for LOPO splitting. Deterministic per seed.
    """
    data, W, supp = ds.synth_generate(spec)
    os.makedirs(out_dir, exist_ok=True)

    all_y = np.concatenate([d.y for d in data])
    lo, hi = float(all_y.min()), float(all_y.max())
    scale = 69.0 / (hi - lo) if hi > lo else 1.0
    offset = -lo * scale

    samples = []
    genders = [ds.MALE, ds.FEMALE] + [ds.UNKNOWN] * max(0, spec.L - 2)
    idx = 0
    for l, d in enumerate(data):
        for i in range(d.n):
            age = int(round(offset + scale * float(d.y[i])))
            age = min(max(age, 0), ds.MAX_AGE)
            person = f"p{l}_{i // 5}"
            samples.append(
                ds.Sample(f"synthetic:{idx}", person, age, genders[l])
            )
            idx += 1
    manifest = ds.Manifest(samples)
    ds.write_manifest(os.path.join(out_dir, "manifest.csv"), manifest)
    features = np.concatenate([d.X for d in data])
    featfile.write_features(os.path.join(out_dir, "features.gfv"), features)

    with open(os.path.join(out_dir, "truth.txt"), "w", encoding="utf-8") as fh:
        fh.write("GLOHSYNTH 1\n")
        fh.write(f"seed={spec.seed}\n")
        fh.write(f"sigma={spec.noise_sigma!r}\n")
        fh.write(f"age_scale={scale!r}\n")
        fh.write(f"age_offset={offset!r}\n")
        for k in supp:
            ws = " ".join(repr(float(v)) for v in W[k])
            fh.write(f"{int(k)} {ws}\n")
    return manifest
