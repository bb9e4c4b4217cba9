import os

import numpy as np
import pytest

from glohage import dataset as ds
from glohage import featfile, mtl, pipeline, ridge


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
    manifest, features = synth_corpus(tmp_path)
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
    out = pipeline._standardized(features, np.arange(195))
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
