"""End-to-end wiring: extraction, selection, training and LOPO evaluation."""

import math
import os
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
        if self.cs_max < 0:
            raise ValueError(f"cs_max must be >= 0, got {self.cs_max}")
        if self.age_range is not None and self.age_range[0] > self.age_range[1]:
            raise ValueError(f"age_range {self.age_range} has lo > hi")


def extract_features(manifest, config=RunConfig(), base_dir="."):
    """Extract GLOH features for every manifest row, in manifest order.

    Relative image paths are resolved against ``base_dir`` (normally the
    manifest's directory). Each row goes straight into the float32 result,
    which is allocated once the first row gives the feature length.
    """
    from .pgm import check_dims, load_pgm

    if not manifest.samples:
        raise EmptyError("manifest has no rows")
    feats = None
    for i, s in enumerate(manifest.samples):
        path = s.image_path
        if not os.path.isabs(path):
            path = os.path.join(base_dir, path)
        img = check_dims(load_pgm(path), config.height, config.width)
        row = gloh_mod.extract_gloh(img, config.gloh)
        if feats is None:
            feats = np.empty((len(manifest.samples), row.size), dtype=np.float32)
        feats[i] = row
    return feats


def _filter_age_range(manifest, features, age_range):
    if age_range is None:
        return manifest, features
    lo, hi = age_range
    keep = [i for i, s in enumerate(manifest.samples) if lo <= s.age <= hi]
    return ds.Manifest([manifest.samples[i] for i in keep]), features[keep]


def _standardized(features, train_rows):
    train = features[train_rows]
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    # a constant bin's float32 std can be rounding noise instead of 0: both get 1
    std[(std == 0) | (train.max(axis=0) == train.min(axis=0))] = 1.0
    return (features - mean) / std


def select_bins(manifest, features, config=RunConfig(), rows=None):
    """Fit the sparse selection on the tasks of ``rows`` (default: all rows).

    Each task copies its ``dataset.task_rows`` of ``features`` once. Its
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
    regressors, each fit on its task's rows of the selected bins."""
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
    and each task's rows go to ridge.predict in one call."""
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
        preds[pick] = ridge.predict(model, features[rows[pick]], task)
    return preds


def evaluate_lopo(manifest, features, config=RunConfig()):
    """Leave-one-person-out evaluation of the full selection+ridge pipeline."""
    features = np.asarray(features)
    ds.check_row_count(manifest, features)
    manifest, features = _filter_age_range(manifest, features, config.age_range)
    folds = ds.split_lopo(manifest)
    results = []
    for fold in folds:
        feats = (
            _standardized(features, fold.train_rows)
            if config.standardize
            else features
        )
        _, model = train_model(manifest, feats, config, rows=fold.train_rows)
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
    rows = []
    genders = [ds.MALE, ds.FEMALE] + [ds.UNKNOWN] * max(0, spec.L - 2)
    idx = 0
    for l, d in enumerate(data):
        featfile.write_features(os.path.join(out_dir, f"features_task{l}.gfv"), d.X)
        for i in range(d.n):
            age = int(round(offset + scale * float(d.y[i])))
            age = min(max(age, 0), 130)
            person = f"p{l}_{i // 5}"
            samples.append(
                ds.Sample(f"synthetic:{idx}", person, age, genders[l])
            )
            rows.append(d.X[i])
            idx += 1
    manifest = ds.Manifest(samples)
    ds.write_manifest(os.path.join(out_dir, "manifest.csv"), manifest)
    featfile.write_features(os.path.join(out_dir, "features.gfv"), np.array(rows))

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
