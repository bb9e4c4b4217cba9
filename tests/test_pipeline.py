import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from glohage import dataset as ds
from glohage import featfile, metrics, mtl, pipeline, ridge


def synth_corpus(tmp_path, seed=5):
    spec = ds.SynthSpec(K=120, L=2, N=40, support_size=6, noise_sigma=0.5, seed=seed)
    manifest = pipeline.synth_dataset(spec, str(tmp_path))
    return manifest, featfile.read_features(os.path.join(tmp_path, "features.gfv"))


def recording(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_one_selection_and_one_partition_per_fold(tmp_path, monkeypatch):
    # each fold splits its rows into tasks once for the selection and once
    # for the ridge fits, through the same rule
    manifest, features = synth_corpus(tmp_path)
    fits = recording(monkeypatch, mtl, "fit_for_budget")
    parts = recording(monkeypatch, ds, "task_rows")
    pipeline.evaluate_lopo(manifest, features, pipeline.RunConfig(budget=8))
    assert len(parts) == 2 * len(fits) == 2 * len(ds.split_lopo(manifest))


@pytest.mark.parametrize(
    "standardize, age_range", [(False, None), (True, None), (True, (10, 60))]
)
def test_no_held_out_row_reaches_a_fold_fit(
    tmp_path, monkeypatch, standardize, age_range
):
    manifest, _ = synth_corpus(tmp_path)
    features = featfile.FeatureFile(os.path.join(tmp_path, "features.gfv"))
    parts = recording(monkeypatch, ds, "task_rows")
    fits = recording(monkeypatch, mtl, "fit_for_budget")
    config = pipeline.RunConfig(budget=8, standardize=standardize, age_range=age_range)
    report = pipeline.evaluate_lopo(manifest, features, config)

    kept, _ = pipeline._filter_age_range(manifest, features, age_range)
    folds = ds.split_lopo(kept)
    assert report.n == len(kept.samples)
    # the selection's task rows, then the ridge fits', for every fold
    assert [list(p[0]) for p in parts] == [
        list(f.train_rows) for f in folds for _ in range(2)
    ]
    for fold, (tasks, *_) in zip(folds, fits):
        # every synthetic row has a known gender, so it is in exactly one task
        assert sum(t.X.shape[0] for t in tasks) == len(fold.train_rows)
    for i, (rows, *_) in enumerate(parts):
        held_out = folds[i // 2].held_out_person
        assert all(kept.samples[r].person_id != held_out for r in rows)


@pytest.mark.parametrize("standardize", [False, True])
def test_held_out_person_changes_only_the_other_folds(tmp_path, monkeypatch, standardize):
    # new feature rows and ages for one person leave the fold that holds the
    # person out byte-identical, through the selection, _standardized's
    # statistics and the ridge clamp, and change every other fold
    manifest, features = synth_corpus(tmp_path)
    person = manifest.samples[0].person_id
    rows = [i for i, s in enumerate(manifest.samples) if s.person_id == person]
    changed = features.copy()
    rng = np.random.default_rng(34)
    changed[rows] = 10 * rng.standard_normal((len(rows), features.shape[1]))
    other = ds.Manifest([
        dataclasses.replace(s, age=ds.MAX_AGE - s.age) if s.person_id == person else s
        for s in manifest.samples
    ])
    config = pipeline.RunConfig(budget=8, standardize=standardize)
    train = pipeline.train_model

    def fold_fits(man, feats):
        fits = []

        def spy(*args, **kwargs):
            selection, model = train(*args, **kwargs)
            fits.append([selection.lam, selection.selected.tobytes(), selection.W.tobytes(),
                         model.clamp, sorted(model.alphas.items()),
                         sorted(model.intercepts.items()),
                         [(t, w.tobytes()) for t, w in sorted(model.weights.items())]])
            return selection, model

        monkeypatch.setattr(pipeline, "train_model", spy)
        pipeline.evaluate_lopo(man, feats, config)
        return fits

    held = [f.held_out_person for f in ds.split_lopo(manifest)].index(person)
    before, after = fold_fits(manifest, features), fold_fits(other, changed)
    assert len(before) == len(after) == 16
    for i, (b, a) in enumerate(zip(before, after)):
        assert (b == a) == (i == held)


def test_given_selection_skips_the_task_partition(tmp_path, monkeypatch):
    manifest, features = synth_corpus(tmp_path)
    selection = pipeline.select_bins(manifest, features, pipeline.RunConfig(budget=8))
    parts = recording(monkeypatch, ds, "task_rows")
    fits = recording(monkeypatch, mtl, "fit_for_budget")
    again, model = pipeline.train_model(manifest, features, selection=selection)
    assert again is selection
    assert set(model.weights) == {ds.MALE, ds.FEMALE, ridge.POOLED}
    assert len(parts) == 1 and fits == []  # the ridge fits' split only


def test_select_bins_copies_task_rows_with_centred_ages(monkeypatch):
    # each task is one copy of its task_rows, in manifest order, with its
    # ages less their mean; unknown-gender rows are in both tasks
    rng = np.random.default_rng(30)
    genders = [ds.UNKNOWN, ds.FEMALE, ds.MALE, ds.MALE, ds.FEMALE, ds.UNKNOWN] * 4
    ages = rng.integers(5, 70, len(genders))
    manifest = ds.Manifest(
        [ds.Sample(f"synthetic:{i}", f"p{i}", int(a), g)
         for i, (g, a) in enumerate(zip(genders, ages))]
    )
    features = rng.standard_normal((len(genders), 12)).astype(np.float32)
    fits = recording(monkeypatch, mtl, "fit_for_budget")
    rows = rng.permutation(len(genders))[:18]
    pipeline.select_bins(manifest, features, pipeline.RunConfig(budget=3), rows)

    (tasks, budget, _), = fits
    assert budget == 3
    expected = ds.task_rows(rows, manifest)
    assert [t.task_id for t in tasks] == list(expected)
    for t, idx in zip(tasks, expected.values()):
        assert t.X.dtype == np.float32 and np.array_equal(t.X, features[idx])
        assert not np.shares_memory(t.X, features)
        assert np.array_equal(t.y, ages[idx] - ages[idx].mean())


def test_standardized_constant_bin_keeps_its_scale():
    # 0.1 on every training row: its float32 std is rounding noise, not 0,
    # and dividing by it made training rows -1.0 and the held-out 0.2 huge
    rng = np.random.default_rng(32)
    features = rng.standard_normal((196, 3)).astype(np.float32)
    features[:, 1] = 0.1
    features[195, 1] = 0.2
    train = features[:195]
    mean, std = train.mean(axis=0), train.std(axis=0)
    assert std[1] > 0
    view = pipeline._Rows(features, np.arange(196))
    out = pipeline._standardized(view, np.arange(195))[np.arange(196)]
    assert np.array_equal(out[:, 1], features[:, 1] - mean[1])
    assert abs(out[195, 1] - 0.1) < 1e-6
    for k in (0, 2):
        assert np.array_equal(out[:, k], (features[:, k] - mean[k]) / std[k])


def test_predict_rows_gives_each_row_its_task():
    rng = np.random.default_rng(29)
    genders = [ds.MALE, ds.FEMALE, ds.UNKNOWN, ds.FEMALE, ds.MALE, ds.UNKNOWN, ds.FEMALE]
    manifest = ds.Manifest(
        [ds.Sample(f"synthetic:{i}", f"p{i}", 30, g) for i, g in enumerate(genders)]
    )
    features = rng.standard_normal((len(genders), 5)).astype(np.float32)
    model = ridge.RidgeModel(selected=np.array([0, 3]), clamp=(-1e9, 1e9))
    for task in (ds.MALE, ds.FEMALE, ridge.POOLED):
        model.weights[task] = rng.standard_normal(2)
        model.intercepts[task] = float(rng.standard_normal())
        model.alphas[task] = 1.0

    rows = [6, 2, 0, 5, 3]
    own = {ds.MALE: ds.MALE, ds.FEMALE: ds.FEMALE, ds.UNKNOWN: ridge.POOLED}
    expected = [ridge.predict(model, features[r], own[genders[r]]) for r in rows]
    preds = pipeline.predict_rows(model, features, manifest, rows)
    assert np.abs(preds - expected).max() <= 1e-12
    pooled = [ridge.predict(model, x, ridge.POOLED) for x in features]
    assert np.abs(pipeline.predict_rows(model, features) - pooled).max() <= 1e-12
    assert pipeline.predict_rows(model, features, manifest, []).shape == (0,)


def test_predict_rows_has_the_bits_of_ridge_predict(tmp_path):
    # predict_rows gathers only the selected bins, from an array or the
    # file; each task's predictions keep the bits ridge.predict gives for
    # that task's full-width rows, whose product rounds by memory order
    rng = np.random.default_rng(31)
    n, k = 90, 64
    features = rng.standard_normal((n, k)).astype(np.float32)
    genders = [(ds.MALE, ds.FEMALE, ds.UNKNOWN)[i % 3] for i in range(n)]
    manifest = ds.Manifest(
        [ds.Sample(f"synthetic:{i}", f"p{i}", 30, g) for i, g in enumerate(genders)]
    )
    model = ridge.RidgeModel(selected=np.sort(rng.choice(k, 23, replace=False)),
                             clamp=(-1e9, 1e9))
    for task in (ds.MALE, ds.FEMALE, ridge.POOLED):
        model.weights[task] = rng.standard_normal(23)
        model.intercepts[task] = float(rng.standard_normal())
    path = str(tmp_path / "f.gfv")
    featfile.write_features(path, features)
    own = {ds.MALE: ds.MALE, ds.FEMALE: ds.FEMALE, ds.UNKNOWN: ridge.POOLED}
    for source in (features, featfile.FeatureFile(path)):
        preds = pipeline.predict_rows(model, source, manifest)
        for gender, task in own.items():
            rows = [i for i in range(n) if genders[i] == gender]
            want = ridge.predict(model, features[rows], task)
            assert preds[rows].tobytes() == want.tobytes()
        pooled = ridge.predict(model, features, ridge.POOLED)
        assert pipeline.predict_rows(model, source).tobytes() == pooled.tobytes()


@pytest.mark.parametrize(
    "settings, key, value",
    [
        (pipeline.RunConfig, "alpha_grid", ()),
        (pipeline.RunConfig, "alpha_grid", (-1.0, 1.0)),
        (pipeline.RunConfig, "alpha_grid", (float("nan"), 1.0)),
        (pipeline.RunConfig, "seed", -1),
        (pipeline.RunConfig, "cs_max", -1),
        (pipeline.RunConfig, "age_range", (30, 20)),
        (mtl.SolverOptions, "rel_tol", float("nan")),
        (mtl.SolverOptions, "rel_tol", float("inf")),
        (pipeline.RunConfig, "cs_max", ds.MAX_AGE + 1),
    ],
)
def test_settings_reject_bad_values(settings, key, value):
    with pytest.raises(ValueError):
        settings(**{key: value})


def test_pooled_ridge_sees_each_training_row_once(monkeypatch):
    # unknown-gender rows train both gender tasks; the pooled fit takes them
    # once, with the male task's rows first and then the female-only rows
    rng = np.random.default_rng(31)
    genders = [ds.MALE, ds.UNKNOWN, ds.FEMALE] * 10
    ages = rng.integers(5, 70, len(genders))
    manifest = ds.Manifest(
        [ds.Sample(f"synthetic:{i}", f"p{i}", int(a), g)
         for i, (g, a) in enumerate(zip(genders, ages))]
    )
    features = rng.standard_normal((len(genders), 6)).astype(np.float32)
    selection = mtl.SelectionResult(1.0, np.zeros((6, 2)), np.array([1, 4]))
    alphas = recording(monkeypatch, ridge, "select_alpha")
    pipeline.train_model(manifest, features, selection=selection)

    order = [r for r, g in enumerate(genders) if g != ds.FEMALE]
    order += [r for r, g in enumerate(genders) if g == ds.FEMALE]
    X, y = alphas[-1][:2]  # male, female, then the pooled fit
    assert len(order) == len(X) == 30
    assert np.array_equal(X, features[order][:, [1, 4]])
    assert np.array_equal(y, ages[order])


def interleaved_corpus(tmp_path, n=70, k=60, seed=35):
    # genders alternate row by row and one row in seven has none, so every
    # task's rows come in short runs; ages follow a few planted bins
    rng = np.random.default_rng(seed)
    genders = [ds.UNKNOWN if i % 7 == 6 else (ds.MALE, ds.FEMALE)[i % 2] for i in range(n)]
    features = rng.standard_normal((n, k)).astype(np.float32)
    ages = np.clip(np.rint(35 + features[:, [3, 17, 41]] @ [6.0, -5.0, 4.0]), 0, 90)
    manifest = ds.Manifest([ds.Sample(f"synthetic:{i}", f"p{i // 3}", int(a), g)
                            for i, (g, a) in enumerate(zip(genders, ages))])
    path = str(tmp_path / "features.gfv")
    featfile.write_features(path, features)
    return manifest, path


def fit_bytes(selection, model):
    return [selection.lam, selection.W.tobytes(), selection.selected.tobytes(),
            model.selected.tobytes(), model.clamp, sorted(model.alphas.items()),
            sorted(model.intercepts.items()),
            [(t, w.tobytes()) for t, w in sorted(model.weights.items())]]


def test_reader_gives_the_array_fits(tmp_path, monkeypatch):
    # select_bins and train_model, with and without a selection, fit the
    # same bits from a FeatureFile, reading 3 rows a block, as from the
    # whole array, and predict_rows gives the same predictions
    manifest, path = interleaved_corpus(tmp_path)
    monkeypatch.setattr(featfile, "BLOCK_BYTES", 3 * 4 * 60)
    full, reader = featfile.read_features(path), featfile.FeatureFile(path)
    config = pipeline.RunConfig(budget=5)
    a, b = (pipeline.select_bins(manifest, x, config) for x in (full, reader))
    assert len(a.selected) and [a.lam, a.W.tobytes(), a.selected.tobytes()] == [
        b.lam, b.W.tobytes(), b.selected.tobytes()]
    rows = np.random.default_rng(36).permutation(len(manifest))[:50]
    for selection, fold in ((None, None), (a, None), (None, rows)):
        fits = [pipeline.train_model(manifest, x, config, selection, fold)
                for x in (full, reader)]
        assert fit_bytes(*fits[0]) == fit_bytes(*fits[1])
    model = fits[0][1]
    for man, picked in ((manifest, None), (None, None), (manifest, rows)):
        want, got = (pipeline.predict_rows(model, x, man, picked).tobytes()
                     for x in (full, reader))
        assert want == got


def test_extraction_pool_has_one_thread_per_usable_cpu(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert pipeline._usable_cpus() == len(os.sched_getaffinity(0))
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert pipeline._usable_cpus() == (os.cpu_count() or 1)


def test_only_extraction_imports_the_thread_pool():
    # the pool costs memory and start-up time that no other command needs
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    code = ("import sys; import glohage.cli; "
            "sys.exit('concurrent.futures' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def whole_matrix_lopo(manifest, features, config):
    """The reference LOPO on the whole matrix in memory: the age filter
    and each fold's standardization make new matrices."""
    if config.age_range is not None:
        lo, hi = config.age_range
        keep = [i for i, s in enumerate(manifest.samples) if lo <= s.age <= hi]
        manifest = ds.Manifest([manifest.samples[i] for i in keep])
        features = features[keep]
    results = []
    for fold in ds.split_lopo(manifest):
        feats = features
        if config.standardize:
            train = features[fold.train_rows]
            mean, std = train.mean(axis=0), train.std(axis=0)
            std[(std == 0) | (train.max(axis=0) == train.min(axis=0))] = 1.0
            feats = (features - mean) / std
        _, model = pipeline.train_model(manifest, feats, config, rows=fold.train_rows)
        preds = pipeline.predict_rows(model, feats, manifest, fold.test_rows)
        truth = np.array([manifest.samples[r].age for r in fold.test_rows], dtype=float)
        results.append((fold.held_out_person, preds, truth))
    return metrics.aggregate(results, config.cs_max)


@pytest.mark.parametrize(
    "standardize, age_range",
    [(False, None), (True, None), (True, (10, 50)), (False, (10, 50))],
)
def test_file_backed_lopo_has_the_whole_matrix_bits(
    tmp_path, monkeypatch, standardize, age_range
):
    # every fold's lambda, bins, W and ridge fits, and the report, are the
    # bits of the whole-matrix run, reading the file 3 rows a block
    manifest, path = interleaved_corpus(tmp_path)
    monkeypatch.setattr(featfile, "BLOCK_BYTES", 3 * 4 * 60)
    config = pipeline.RunConfig(budget=5, standardize=standardize, age_range=age_range)
    train = pipeline.train_model

    def run(evaluate, features):
        fits = []

        def spy(*args, **kwargs):
            selection, model = train(*args, **kwargs)
            fits.append(fit_bytes(selection, model))
            return selection, model

        monkeypatch.setattr(pipeline, "train_model", spy)
        report = evaluate(manifest, features, config)
        monkeypatch.setattr(pipeline, "train_model", train)
        return fits, metrics.format_report(report)

    want = run(whole_matrix_lopo, featfile.read_features(path))
    got = run(pipeline.evaluate_lopo, featfile.FeatureFile(path))
    kept = [s for s in manifest.samples if age_range is None or 10 <= s.age <= 50]
    assert len(want[0]) == len({s.person_id for s in kept}) > 10
    assert got == want


@pytest.mark.parametrize("standardize", [False, True])
def test_each_fold_reads_its_rows_once(tmp_path, monkeypatch, standardize):
    # a fold reads its task rows for the selection, which its ridge fits
    # reuse, and its held-out rows for the predictions; standardizing adds
    # one read of its training rows for their statistics
    manifest, path = interleaved_corpus(tmp_path)
    reads = []
    read = featfile.FeatureFile._read

    def counted(self, fh, rows, out):
        reads.append(len(rows))
        return read(self, fh, rows, out)

    monkeypatch.setattr(featfile.FeatureFile, "_read", counted)
    config = pipeline.RunConfig(budget=5, standardize=standardize)
    pipeline.evaluate_lopo(manifest, featfile.FeatureFile(path), config)
    want = 0
    for fold in ds.split_lopo(manifest):
        tasks = ds.task_rows(fold.train_rows, manifest)
        want += sum(map(len, tasks.values())) + len(fold.test_rows)
        want += len(fold.train_rows) if standardize else 0
    assert sum(reads) == want
