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
        for name in ("height", "width"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
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
    ``featfile.write_features``, the GFV1 writer, as blocks in manifest
    order, with at most about EXTRACT_BYTES_PER_WORKER of rows per worker
    in flight, so the whole matrix is never held. Each row is computed on
    its own, so the file has the same bytes for any number of threads. The
    rows are awaited in order, so a failure raises the first failing row's
    error, and then no file is written.
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

    from concurrent.futures import ThreadPoolExecutor  # no other command needs it

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
        return featfile.write_features(path, blocks(pool))
    finally:
        pool.shutdown(cancel_futures=True)


class _Rows:
    """``source``, an (N, K) array or a ``featfile.FeatureFile``, read
    through a cache: its ``.shape``, ``v[rows]`` and ``v[np.ix_(rows,
    bins)]``. The view keeps each row block it returns, and a (rows, bins)
    gather is cut from those blocks instead of read again, so it may name
    only rows that they hold: another row raises IndexError."""

    def __init__(self, source):
        self.source, self.shape = source, source.shape
        self._blocks = []
        self._block_of = np.full(source.shape[0], -1)  # row -> kept block
        self._row_in = np.zeros(source.shape[0], dtype=np.intp)  # -> its row there

    def __getitem__(self, key):
        if not isinstance(key, tuple):
            rows = np.asarray(key, dtype=np.intp)
            block = self.source[rows]
            self._block_of[rows] = len(self._blocks)
            self._row_in[rows] = np.arange(len(rows))
            self._blocks.append(block)
            return block
        rows, bins = np.asarray(key[0])[:, 0], np.asarray(key[1])[0]
        kept = self._block_of[rows]
        if (kept < 0).any():
            raise IndexError(f"row {rows[kept.argmin()]} is in no block read")
        out = np.empty((len(rows), len(bins)), dtype=self._blocks[0].dtype)
        for b, block in enumerate(self._blocks):
            at = kept == b
            out[at] = block[np.ix_(self._row_in[rows[at]], bins)]
        return out


STATS_BLOCK = 4096  # bins whose standardization statistics _Scaled takes at a time


class _Scaled:
    """``source`` standardized by the mean and std of its ``train_rows``,
    which are read whole, once, for them; a constant bin keeps std 1.
    The statistics are taken STATS_BLOCK bins at a time, so their only
    temporaries are (rows, STATS_BLOCK) blocks. numpy sums each bin of a
    block of two or more bins over the rows in row order, as it does for
    the whole matrix, so they have the bits of ``train.mean(axis=0)`` and
    ``train.std(axis=0)``; a last block of one bin, which numpy would sum
    pairwise, joins the block before it.
    A gather, ``v[rows]`` or ``v[np.ix_(rows, bins)]``, reads a new block
    and scales it in place, with the bits of ``(block - mean[bins]) /
    std[bins]`` elementwise in the source's dtype, so an element has the
    same bits whichever rows and bins come with it."""

    def __init__(self, source, train_rows):
        train = source[train_rows]
        self.source, self.shape = source, source.shape
        k = source.shape[1]
        cuts = list(range(STATS_BLOCK, k - 1, STATS_BLOCK))  # none leaves one bin last
        means, stds = [], []
        for a, b in zip([0, *cuts], [*cuts, k]):
            block = train[:, a:b]
            mean, std = block.mean(axis=0), block.std(axis=0)
            # a constant bin's float32 std can be rounding noise instead of 0: both get 1
            std[(std == 0) | (block.max(axis=0) == block.min(axis=0))] = 1.0
            means.append(mean)
            stds.append(std)
        self.mean, self.std = np.concatenate(means), np.concatenate(stds)

    def __getitem__(self, key):
        bins = np.asarray(key[1])[0] if isinstance(key, tuple) else slice(None)
        block = self.source[key]  # an index-array gather: a copy, never a view
        block -= self.mean[bins]
        block /= self.std[bins]
        return block


def select_bins(manifest, features, config=RunConfig(), split=None):
    """Fit the sparse selection on the tasks of ``split``, rows by task as
    ``dataset.partition_by_task`` gives them (default: every row's split).

    ``features`` is an (N, K) array or a ``featfile.FeatureFile``; only
    its ``.shape`` and row gathers are used. Each task takes its rows of
    ``features`` once, as a new array. Its labels are its ages less their
    mean: the selection problem has no intercept, and the age offset would
    swamp the bin correlations.
    """
    ds.check_row_count(manifest, features)
    if split is None:
        split = ds.partition_by_task(range(len(manifest.samples)), manifest)
    tasks = []
    for label, idx in split.items():
        ages = np.array([manifest.samples[r].age for r in idx], dtype=np.float64)
        tasks.append(mtl.TaskDataset(label, features[idx], ages - ages.mean()))
    return mtl.fit_for_budget(tasks, config.budget, config.solver)


def train_model(manifest, features, config=RunConfig(), selection=None, rows=None,
                regressors=None):
    """Selection on ``rows`` (unless given) followed by per-task ridge
    regressors, each fit on its task's rows of the selected bins: those
    named in ``regressors``, or all of them, as in ``ridge.fit_model``.

    ``rows`` (default: all rows) are split into tasks once, by
    ``dataset.partition_by_task``, and the selection and the ridge fits
    both take that split. ``features`` is an (N, K) array or a
    ``featfile.FeatureFile``, as in ``select_bins``. A selection run here
    reads the task rows through a ``_Rows`` cache, and the ridge fits cut
    their bins from those rows."""
    ds.check_row_count(manifest, features)
    if rows is None:
        rows = range(len(manifest.samples))
    split = ds.partition_by_task(rows, manifest)
    if selection is None:
        features = _Rows(features)
        selection = select_bins(manifest, features, config, split)
    ages = [s.age for s in manifest.samples]
    model = ridge.fit_model(
        features, ages, split, selection.selected, config.alpha_grid,
        seed=config.seed, regressors=regressors,
    )
    return selection, model


def _regressors(manifest, rows):
    """The regressor that predicts each of ``rows``: the row's gender where
    that is a task, else ``ridge.POOLED`` (for every row without a manifest)."""
    tasks = np.full(len(rows), ridge.POOLED, dtype=object)
    if manifest is not None:
        for i, r in enumerate(rows):
            if manifest.samples[r].gender in ds.TASKS:
                tasks[i] = manifest.samples[r].gender
    return tasks


def predict_rows(model, features, manifest=None, rows=None):
    """Predict ages for feature rows; gender (if known) picks the task model,
    and each task's rows go to ridge.predict_selected in one call.
    ``features`` is an (N, K) array or a ``featfile.FeatureFile``; only the
    selected bins of one task's rows at a time are gathered, and passed on
    as gathered: ``predict_selected`` fixes the product's dtype and layout."""
    if manifest is not None:
        ds.check_row_count(manifest, features)
    rows = np.arange(features.shape[0]) if rows is None else np.asarray(rows, dtype=int)
    tasks = _regressors(manifest, rows)
    preds = np.empty(len(rows))
    for task in dict.fromkeys(tasks):
        pick = tasks == task
        ridge.check_features(model, features.shape[1], task)
        block = features[np.ix_(rows[pick], model.selected)]
        preds[pick] = ridge.predict_selected(model, block, task)
    return preds


def evaluate_lopo(manifest, features, config=RunConfig()):
    """Leave-one-person-out evaluation of the full selection+ridge pipeline.

    ``features`` is an (N, K) array or a ``featfile.FeatureFile``; the
    whole matrix is never copied. The folds are cut from the manifest rows,
    which are the feature rows, whose age lies in ``config.age_range``.
    Each fold reads its task rows once in ``train_model``, and its held-out
    rows' selected bins for the predictions. The selection runs on every
    task, but a fold fits only the ridge regressors its held-out rows are
    predicted with, each with the bits a fit of all of them would give, so
    the report is the same. With ``config.standardize``
    the fold reads through a ``_Scaled`` view, which reads the fold's
    training rows once more for their mean and std and standardizes only
    the blocks the fold reads, with the bits a standardized copy of the
    whole matrix would give.
    """
    ds.check_row_count(manifest, features)
    rows = None
    if config.age_range is not None:
        lo, hi = config.age_range
        rows = [i for i, s in enumerate(manifest.samples) if lo <= s.age <= hi]
    results = []
    for fold in ds.split_lopo(manifest, rows):
        feats = features
        if config.standardize:
            feats = _Scaled(features, fold.train_rows)
        used = set(_regressors(manifest, fold.test_rows))
        _, model = train_model(
            manifest, feats, config, rows=fold.train_rows, regressors=used
        )
        preds = predict_rows(model, feats, manifest, fold.test_rows)
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
    genders = [*ds.TASKS] + [ds.UNKNOWN] * max(0, spec.L - len(ds.TASKS))
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
    featfile.write_features(os.path.join(out_dir, "features.gfv"), [features])

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
