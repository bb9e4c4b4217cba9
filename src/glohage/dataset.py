"""Sample manifests, leave-one-person-out folds and synthetic instances.

The manifest CSV has the header ``path,person_id,age,gender`` with gender
tokens "m"/"f"/"" for male/female/unknown. Manifest row order defines the
row order of feature files extracted from it.

Random numbers come from numpy's default_rng (PCG64), which produces the
same stream for the same seed on every platform.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .errors import (
    DuplicatePathError,
    EmptyTaskError,
    InvalidSpecError,
    MalformedRowError,
    RowCountMismatchError,
    SinglePersonError,
    open_input,
)
from .mtl import TaskDataset

MALE = "male"
FEMALE = "female"
UNKNOWN = "unknown"
TASKS = (MALE, FEMALE)  # one selection task and ridge regressor each
MAX_AGE = 130  # ages lie in [0, MAX_AGE] years

_GENDER_FROM_TOKEN = {"m": MALE, "f": FEMALE, "": UNKNOWN}
_TOKEN_FROM_GENDER = {MALE: "m", FEMALE: "f", UNKNOWN: ""}


@dataclass
class Sample:
    image_path: str
    person_id: str
    age: int
    gender: str  # male / female / unknown


@dataclass
class Manifest:
    samples: list

    def __len__(self):
        return len(self.samples)


@dataclass
class Fold:
    held_out_person: str
    train_rows: np.ndarray
    test_rows: np.ndarray


def parse_manifest(path):
    """The manifest at ``path``: MissingFileError if absent, a GlohError if bad."""
    try:
        with open_input(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            rows = list(reader)
    except UnicodeDecodeError:
        raise MalformedRowError(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:  # e.g. a field beyond csv's field size limit
        raise MalformedRowError(f"line {reader.line_num}: {exc}") from None
    if not rows or rows[0] != ["path", "person_id", "age", "gender"]:
        raise MalformedRowError("missing or wrong manifest header")

    samples = []
    seen = set()
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 4:
            raise MalformedRowError(f"line {lineno}: expected 4 fields, got {len(row)}")
        path_, person, age_s, gender_s = (f.strip() for f in row)
        if not person:
            raise MalformedRowError(f"line {lineno}: empty person_id")
        try:
            age = int(age_s)
        except ValueError:
            raise MalformedRowError(f"line {lineno}: non-integer age {age_s!r}")
        if not (0 <= age <= MAX_AGE):
            raise MalformedRowError(f"line {lineno}: age {age} outside [0, {MAX_AGE}]")
        if gender_s.lower() not in _GENDER_FROM_TOKEN:
            raise MalformedRowError(f"line {lineno}: bad gender token {gender_s!r}")
        if path_ in seen:
            raise DuplicatePathError(f"line {lineno}: duplicate path {path_!r}")
        seen.add(path_)
        samples.append(Sample(path_, person, age, _GENDER_FROM_TOKEN[gender_s.lower()]))
    return Manifest(samples)


def write_manifest(path, manifest):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["path", "person_id", "age", "gender"])
        for s in manifest.samples:
            writer.writerow(
                [s.image_path, s.person_id, s.age, _TOKEN_FROM_GENDER[s.gender]]
            )


def split_lopo(manifest, rows=None):
    """One fold per person among the manifest ``rows`` (default: every
    row), ordered by first appearance in them. A fold's train and test
    rows are manifest rows, in the order of ``rows``."""
    rows = np.arange(len(manifest)) if rows is None else np.asarray(rows, dtype=np.intp)
    ids = [manifest.samples[r].person_id for r in rows]
    persons = list(dict.fromkeys(ids))
    if len(persons) < 2:
        raise SinglePersonError(
            f"leave-one-person-out needs at least 2 persons, the rows hold {len(persons)}"
        )
    folds = []
    for person in persons:
        mask = np.array([i == person for i in ids])
        folds.append(Fold(person, rows[~mask], rows[mask]))
    return folds


def check_row_count(manifest, features):
    """Raise RowCountMismatchError unless there is one feature row per sample."""
    if features.shape[0] != len(manifest.samples):
        raise RowCountMismatchError(
            f"feature rows {features.shape[0]} != manifest size {len(manifest.samples)}"
        )


def partition_by_task(rows, manifest):
    """{MALE: rows, FEMALE: rows}: the given manifest rows of each task,
    ascending, as indices; no feature is read. The one rule that splits
    rows into tasks, for the selection and the ridge fits alike.
    Unknown-gender rows are in both tasks; a task left without rows raises
    EmptyTaskError."""
    rows, tasks = sorted(rows), {}
    for label in TASKS:
        tasks[label] = [r for r in rows if manifest.samples[r].gender in (label, UNKNOWN)]
        if not tasks[label]:
            raise EmptyTaskError(f"no training rows for task {label!r}")
    return tasks


@dataclass(frozen=True)
class SynthSpec:
    """Parameters of a planted-support synthetic regression instance."""

    K: int = 500
    L: int = 2
    N: int = 200
    support_size: int = 10
    noise_sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if min(self.K, self.L, self.N, self.support_size) < 1:
            raise InvalidSpecError("all counts must be >= 1")
        if self.support_size > self.K:
            raise InvalidSpecError("support_size exceeds feature dimension")
        if not (np.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise InvalidSpecError("noise_sigma must be finite and >= 0")


def synth_generate(spec):
    """Deterministic synthetic instance with a common planted support.

    Features are standard normal; the nonzero coefficients have magnitude
    uniform in [1, 2] with random sign, independently per task; labels are
    the linear responses plus Gaussian noise of the given sigma.

    Returns (task datasets, true (K, L) weight matrix, sorted support).
    """
    rng = np.random.default_rng(spec.seed)
    supp = np.sort(rng.choice(spec.K, size=spec.support_size, replace=False))
    W = np.zeros((spec.K, spec.L))
    mags = rng.uniform(1.0, 2.0, size=(spec.support_size, spec.L))
    signs = rng.choice([-1.0, 1.0], size=(spec.support_size, spec.L))
    W[supp] = mags * signs

    data = []
    for l in range(spec.L):
        X = rng.standard_normal((spec.N, spec.K))
        y = X @ W[:, l] + spec.noise_sigma * rng.standard_normal(spec.N)
        data.append(TaskDataset(f"task{l}", X, y))
    return data, W, supp
