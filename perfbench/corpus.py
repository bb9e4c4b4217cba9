"""Seeded corpus generators for the benchmark workloads.

The generators are the benchmark's own. They follow the planted-support
model of ``glohage.dataset.synth_generate`` and the age/person layout of
``glohage.pipeline.synth_dataset``, but import nothing from the package, so
a change to the package cannot change the inputs it is measured on. Labels
are accumulated column by column with elementwise float64 arithmetic, not
a BLAS product, so the files (and their SHA-256) do not depend on the BLAS
build or thread count.

A corpus holds one or more independent instances, each drawn from its own
stream of the seed. How much work the selection's lambda search does
differs from instance to instance (its line search made 630 to 1,063 loss
evaluations on FG-NET-size instances), so the selection workloads average
over several instances per run.
Each instance directory holds its files plus ``corpus.json`` (file names
and the parameters the worker needs); the top-level ``corpus.json`` lists
the instances.
"""

import csv
import hashlib
import json
import os
import struct

import numpy as np

HEIGHT, WIDTH = 68, 62
IMAGES_PER_PERSON = 5
INSTANCES = {"ingest": 1, "select_fgnet": 4, "lopo_synth": 2}

# full: the shapes the workloads are defined on; tiny: the smoke-test shapes
SHAPES = {
    "ingest": {
        "full": {"n_images": 1002, "n_persons": 82},
        "tiny": {"n_images": 6, "n_persons": 3},
    },
    "select_fgnet": {
        "full": {"n_per_task": 501, "n_heldout_per_task": 100, "k": 12240,
                 "support": 30, "sigma": 0.5, "budget": 50},
        "tiny": {"n_per_task": 40, "n_heldout_per_task": 10, "k": 272,
                 "support": 4, "sigma": 0.5, "budget": 8},
    },
    "lopo_synth": {
        "full": {"persons_per_task": 20, "k": 4896, "support": 20,
                 "sigma": 0.5, "budget": 50},
        "tiny": {"persons_per_task": 2, "k": 24, "support": 3,
                 "sigma": 0.5, "budget": 4},
    },
}


def write_gfv1(path, rows):
    """GFV1: magic, uint32-LE rows, uint32-LE dim, float32-LE row-major."""
    arr = np.ascontiguousarray(rows, dtype="<f4")
    with open(path, "wb") as fh:
        fh.write(b"GFV1" + struct.pack("<II", *arr.shape))
        arr.tofile(fh)


def read_gfv1(path):
    """Independent GFV1 reader used by the output checks."""
    with open(path, "rb") as fh:
        magic, header = fh.read(4), fh.read(8)
        if magic != b"GFV1" or len(header) != 8:
            raise ValueError(f"{path}: not a GFV1 file")
        n, k = struct.unpack("<II", header)
        arr = np.fromfile(fh, dtype="<f4")
    if arr.size != n * k:
        raise ValueError(f"{path}: {arr.size} values, header says {n}x{k}")
    return arr.reshape(n, k)


def _write_manifest(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["path", "person_id", "age", "gender"])
        writer.writerows(rows)


def _write_pgm(path, img):
    with open(path, "wb") as fh:
        fh.write(f"P5\n{WIDTH} {HEIGHT}\n255\n".encode("ascii"))
        fh.write(img.tobytes())


def _planted_model(rng, k, support, n_tasks=2):
    supp = np.sort(rng.choice(k, size=support, replace=False))
    mags = rng.uniform(1.0, 2.0, size=(support, n_tasks))
    signs = rng.choice([-1.0, 1.0], size=(support, n_tasks))
    return supp, mags * signs


def _responses(rng, X, supp, w, sigma):
    y = np.zeros(X.shape[0])
    for col, coef in zip(supp, w):
        y += X[:, col].astype(np.float64) * coef
    return y + sigma * rng.standard_normal(X.shape[0])


def _age_map(y_train):
    # affine map of the training responses onto integer ages 0..69, as
    # pipeline.synth_dataset does; held-out rows reuse the same map
    lo, hi = float(y_train.min()), float(y_train.max())
    scale = 69.0 / (hi - lo) if hi > lo else 1.0
    return lambda y: np.clip(np.rint(scale * (y - lo)), 0, 130).astype(int)


def _gen_ingest(rng, out, n_images, n_persons):
    rows = []
    genders = rng.choice(["m", "f"], size=n_persons)
    for i in range(n_images):
        img = rng.integers(0, 256, size=(HEIGHT, WIDTH), dtype=np.uint8)
        name = f"img_{i:04d}.pgm"
        _write_pgm(os.path.join(out, name), img)
        person = i * n_persons // n_images
        rows.append([name, f"p{person:03d}", int(rng.integers(0, 70)),
                     genders[person]])
    _write_manifest(os.path.join(out, "manifest.csv"), rows)
    return {"manifest": "manifest.csv", "n_images": n_images}


def _gen_select(rng, out, n_per_task, n_heldout_per_task, k, support, sigma,
                budget):
    supp, W = _planted_model(rng, k, support)
    n = n_per_task + n_heldout_per_task
    X, y = [], []
    for task in range(2):
        X.append(rng.standard_normal((n, k), dtype=np.float32))
        y.append(_responses(rng, X[task], supp, W[:, task], sigma))
    to_age = _age_map(np.concatenate([yt[:n_per_task] for yt in y]))

    for split, rows in (("train", slice(0, n_per_task)),
                        ("heldout", slice(n_per_task, n))):
        manifest, idx = [], 0
        for task, gender in enumerate("mf"):
            for i, age in enumerate(to_age(y[task][rows])):
                person = f"{split}_{gender}{i // IMAGES_PER_PERSON}"
                manifest.append([f"synthetic:{split}:{idx}", person, int(age),
                                 gender])
                idx += 1
        _write_manifest(os.path.join(out, f"{split}.csv"), manifest)
        write_gfv1(os.path.join(out, f"{split}.gfv"),
                   np.vstack([Xt[rows] for Xt in X]))
    return {
        "manifest": "train.csv", "features": "train.gfv",
        "heldout_manifest": "heldout.csv", "heldout_features": "heldout.gfv",
        "planted": [int(s) for s in supp], "budget": budget,
        "n_train": 2 * n_per_task, "n_heldout": 2 * n_heldout_per_task,
        "n_images": 2 * n,
    }


def _gen_lopo(rng, out, persons_per_task, k, support, sigma, budget):
    supp, W = _planted_model(rng, k, support)
    n = persons_per_task * IMAGES_PER_PERSON
    X = [rng.standard_normal((n, k), dtype=np.float32) for _ in range(2)]
    y = [_responses(rng, X[t], supp, W[:, t], sigma) for t in range(2)]
    to_age = _age_map(np.concatenate(y))
    manifest, idx = [], 0
    for task, gender in enumerate("mf"):
        for i, age in enumerate(to_age(y[task])):
            manifest.append([f"synthetic:{idx}", f"p{gender}{i // IMAGES_PER_PERSON}",
                             int(age), gender])
            idx += 1
    _write_manifest(os.path.join(out, "manifest.csv"), manifest)
    write_gfv1(os.path.join(out, "features.gfv"), np.vstack(X))
    return {"manifest": "manifest.csv", "features": "features.gfv",
            "budget": budget, "n_rows": 2 * n, "n_images": 2 * n,
            "n_folds": 2 * persons_per_task}


_GENERATORS = {"ingest": _gen_ingest, "select_fgnet": _gen_select,
               "lopo_synth": _gen_lopo}


def _write_json(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


def generate(workload, scale, seed, out):
    """Write the workload's corpus for ``seed`` into ``out``; return its info."""
    names, n_images = [], 0
    for i in range(INSTANCES[workload]):
        name = f"instance{i}"
        os.makedirs(os.path.join(out, name))
        rng = np.random.default_rng([seed, i])
        info = _GENERATORS[workload](rng, os.path.join(out, name),
                                     **SHAPES[workload][scale])
        _write_json(os.path.join(out, name, "corpus.json"), info)
        names.append(name)
        n_images += info["n_images"]
    info = {"workload": workload, "scale": scale, "seed": seed,
            "instances": names, "n_images": n_images}
    _write_json(os.path.join(out, "corpus.json"), info)
    return info


def digest(directory):
    """SHA-256 over every file's relative path and bytes, in sorted order."""
    paths = sorted(
        os.path.relpath(os.path.join(d, f), directory)
        for d, _, files in os.walk(directory) for f in files)
    h = hashlib.sha256()
    for rel in paths:
        h.update(rel.encode("utf-8") + b"\0")
        with open(os.path.join(directory, rel), "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()
