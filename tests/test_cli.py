import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from glohage import cli, featfile, gloh, pgm, pipeline, ridge
from glohage import dataset as ds

from pgmfile import write_pgm


def text_lines(*path):
    return Path(*path).read_text(encoding="utf-8").splitlines()


def make_image_corpus(tmp_path, n=3):
    rng = np.random.default_rng(0)
    lines = ["path,person_id,age,gender"]
    for i in range(n):
        img = rng.integers(0, 256, size=(68, 62)).astype(np.uint8)
        write_pgm(img, str(tmp_path / f"face{i}.pgm"))
        gender = "m" if i % 2 == 0 else "f"
        lines.append(f"face{i}.pgm,p{i // 2},{20 + i % 50},{gender}")
    man_path = tmp_path / "manifest.csv"
    man_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(man_path)


def make_feature_corpus(tmp_path, n_persons=4, images_per_person=3, k=30, seed=1):
    """Synthetic linear features with a manifest suitable for LOPO."""
    rng = np.random.default_rng(seed)
    w = np.zeros(k)
    w[[3, 11, 17]] = [4.0, -3.0, 5.0]
    rows, lines = [], ["path,person_id,age,gender"]
    idx = 0
    for p in range(n_persons):
        for j in range(images_per_person):
            x = rng.standard_normal(k)
            age = int(np.clip(round(35 + x @ w), 0, 69))
            # alternate genders within a person so every LOPO training
            # split keeps both tasks populated
            gender = "m" if j % 2 == 0 else "f"
            lines.append(f"synthetic:{idx},person{p},{age},{gender}")
            rows.append(x)
            idx += 1
    man_path = tmp_path / "manifest.csv"
    man_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    feat_path = tmp_path / "features.gfv"
    featfile.write_features(str(feat_path), np.array(rows))
    return str(man_path), str(feat_path)


def make_gappy_corpus(tmp_path, n, k, seed):
    """n x k normal float32 rows, three to a person, with ages linear in
    bins 5, 3k/10 and 7k/10; genders alternate and one row in seven has
    none, so each task's rows come in short runs."""
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, k)).astype(np.float32)
    lines = ["path,person_id,age,gender"]
    for i, x in enumerate(features):
        age = int(np.clip(round(35 + 6 * x[5] - 5 * x[3 * k // 10] + 4 * x[7 * k // 10]),
                          0, 90))
        lines.append(f"synthetic:{i},p{i // 3},{age},{'' if i % 7 == 6 else 'mf'[i % 2]}")
    man, feat = tmp_path / "manifest.csv", tmp_path / "features.gfv"
    man.write_text("\n".join(lines) + "\n", encoding="utf-8")
    featfile.write_features(str(feat), features)
    return str(man), str(feat)


class TestExtract:
    def test_three_images(self, tmp_path, capsys):
        man = make_image_corpus(tmp_path)
        out = str(tmp_path / "f.gfv")
        assert cli.main(["extract", "--manifest", man, "--out", out]) == 0
        assert capsys.readouterr().out.strip() == "N=3 K=48960"
        feats = featfile.read_features(out)
        assert feats.shape == (3, 48960)

    def test_missing_image(self, tmp_path, capsys):
        man = tmp_path / "m.csv"
        man.write_text(
            "path,person_id,age,gender\nghost.pgm,p1,5,m\n", encoding="utf-8"
        )
        rc = cli.main(
            ["extract", "--manifest", str(man), "--out", str(tmp_path / "f.gfv")]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR MissingFile:")
        assert "ghost.pgm" in err

    def test_empty_manifest(self, tmp_path, capsys):
        man = tmp_path / "m.csv"
        man.write_text("path,person_id,age,gender\n", encoding="utf-8")
        rc = cli.main(
            ["extract", "--manifest", str(man), "--out", str(tmp_path / "f.gfv")]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR Empty:")

    def test_wrong_dims_rejected(self, tmp_path, capsys):
        img = np.zeros((64, 64), dtype=np.uint8)
        write_pgm(img, str(tmp_path / "a.pgm"))
        man = tmp_path / "m.csv"
        man.write_text("path,person_id,age,gender\na.pgm,p1,5,m\n", encoding="utf-8")
        rc = cli.main(
            ["extract", "--manifest", str(man), "--out", str(tmp_path / "f.gfv")]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR DimensionMismatch:")

    def test_config_file_override(self, tmp_path, capsys):
        man = make_image_corpus(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stride = 6\nclip_threshold = none\n", encoding="utf-8")
        out = str(tmp_path / "f.gfv")
        assert (
            cli.main(
                ["extract", "--manifest", man, "--out", out, "--config", str(cfg)]
            )
            == 0
        )
        # stride 6 on 68x62: 10x9 patches -> 90 * 136 = 12240
        assert capsys.readouterr().out.strip() == "N=3 K=12240"

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_first_failing_row_wins_and_nothing_is_left(self, tmp_path, capsys,
                                                        monkeypatch, workers):
        # row 3 has the wrong dimensions and row 10 is missing: whichever
        # worker fails first, the error is row 3's, as in manifest order
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: workers)
        man = make_image_corpus(tmp_path, n=12)
        write_pgm(np.zeros((64, 64), dtype=np.uint8), str(tmp_path / "face3.pgm"))
        (tmp_path / "face10.pgm").unlink()
        existing = tmp_path / "old.gfv"
        existing.write_bytes(b"not yet replaced")
        before = sorted(os.listdir(tmp_path))
        for out in (tmp_path / "new.gfv", existing):
            assert cli.main(["extract", "--manifest", man, "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("ERROR DimensionMismatch:") and err.count("\n") == 1
            assert sorted(os.listdir(tmp_path)) == before
        assert existing.read_bytes() == b"not yet replaced"

    def test_image_one_pixel_high(self, tmp_path, capsys):
        # the geometry fits a 1x62 image, but its gradient needs two rows
        write_pgm(np.zeros((1, 62), dtype=np.uint8), str(tmp_path / "thin.pgm"))
        man = tmp_path / "manifest.csv"
        man.write_text("path,person_id,age,gender\nthin.pgm,p0,30,m\n", encoding="utf-8")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("patch_size = 1\nradii = 0.25,0.5,1\nheight = 1\n",
                       encoding="utf-8")
        before = sorted(os.listdir(tmp_path))
        argv = ["extract", "--manifest", str(man), "--out", str(tmp_path / "f.gfv"),
                "--config", str(cfg)]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR ImageTooSmall:") and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == before

    @pytest.mark.parametrize("workers", [1, 2])
    def test_image_path_naming_a_directory(self, tmp_path, capsys, monkeypatch, workers):
        # the path exists, so this is the open's own error, not MissingFile
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: workers)
        man = make_image_corpus(tmp_path, n=4)
        (tmp_path / "face2.pgm").unlink()
        (tmp_path / "face2.pgm").mkdir()
        before = sorted(os.listdir(tmp_path))
        assert cli.main(["extract", "--manifest", man,
                         "--out", str(tmp_path / "f.gfv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR FileAccess:") and err.count("\n") == 1
        assert "face2.pgm" in err
        assert sorted(os.listdir(tmp_path)) == before

    def test_out_naming_a_directory(self, tmp_path, capsys):
        man = make_image_corpus(tmp_path)
        before = sorted(os.listdir(tmp_path))
        assert cli.main(["extract", "--manifest", man, "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("ERROR FileAccess:") and err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == before

    def test_output_mode_is_a_new_file_s(self, tmp_path, capsys):
        man = make_image_corpus(tmp_path)
        out, plain = tmp_path / "f.gfv", str(tmp_path / "plain.gfv")
        assert cli.main(["extract", "--manifest", man, "--out", str(out)]) == 0
        featfile.write_features(plain, np.ones((1, 1)))
        assert os.stat(out).st_mode == os.stat(plain).st_mode

    def test_same_bytes_at_any_worker_count(self, tmp_path, capsys, monkeypatch):
        man = make_image_corpus(tmp_path, n=7)
        imgs = [pgm.load_pgm(str(tmp_path / f"face{i}.pgm")) for i in range(7)]
        want = tmp_path / "want.gfv"
        featfile.write_features(str(want), np.stack([gloh.extract_gloh(im) for im in imgs]))
        for workers in (1, 2, 3):
            monkeypatch.setattr(pipeline, "_usable_cpus", lambda: workers)
            out = tmp_path / f"f{workers}.gfv"
            assert cli.main(["extract", "--manifest", man, "--out", str(out)]) == 0
            assert capsys.readouterr().out.strip() == "N=7 K=48960"
            assert out.read_bytes() == want.read_bytes(), workers

    def test_extract_never_holds_the_whole_matrix(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(pipeline, "_usable_cpus", lambda: 2)
        n = 200
        man = make_image_corpus(tmp_path, n=n)
        out = str(tmp_path / "f.gfv")
        tracemalloc.start()  # numpy reports its data allocations to it
        try:
            assert cli.main(["extract", "--manifest", man, "--out", out]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        body = 4 * n * 48960
        assert os.path.getsize(out) == featfile.HEADER_BYTES + body
        assert peak < 0.25 * body, peak / body


class TestSynth:
    def test_deterministic_outputs(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        args = ["synth", "--k", "40", "--n", "10", "--support", "4", "--seed", "7"]
        assert cli.main(args + ["--out-dir", a]) == 0
        assert cli.main(args + ["--out-dir", b]) == 0
        for name in ("manifest.csv", "features.gfv", "truth.txt"):
            assert Path(a, name).read_bytes() == Path(b, name).read_bytes()

    def test_full_support(self, tmp_path):
        out = str(tmp_path / "s")
        cli.main(
            ["synth", "--out-dir", out, "--k", "6", "--n", "5", "--support", "6"]
        )
        truth = [ln for ln in text_lines(out, "truth.txt") if ln[0].isdigit()]
        assert len(truth) == 6

    def test_one_feature_file_holds_every_task(self, tmp_path):
        # features.gfv is each task's rows, task after task, and nothing
        # else is written
        out = str(tmp_path / "s")
        cli.main(["synth", "--out-dir", out, "--k", "8", "--n", "5", "--support", "2",
                  "--tasks", "3"])
        assert sorted(os.listdir(out)) == ["features.gfv", "manifest.csv", "truth.txt"]
        data, _, _ = ds.synth_generate(ds.SynthSpec(K=8, L=3, N=5, support_size=2))
        f = featfile.read_features(os.path.join(out, "features.gfv"))
        assert f.shape == (15, 8)
        for l, d in enumerate(data):
            assert np.array_equal(f[5 * l : 5 * l + 5], d.X.astype(np.float32))


class TestEvaluate:
    def test_two_person_manifest_two_folds(self, tmp_path):
        man, feat = make_feature_corpus(tmp_path, n_persons=2, images_per_person=4)
        out = str(tmp_path / "report.csv")
        rc = cli.main(
            ["evaluate", "--manifest", man, "--features", feat, "--out", out,
             "--budget", "5"]
        )
        assert rc == 0
        lines = text_lines(out)
        folds = [ln for ln in lines if ln.startswith("fold,")]
        assert len(folds) == 2

    def test_mtl_and_stl_same_schema(self, tmp_path):
        man, feat = make_feature_corpus(tmp_path)
        reports = {}
        for mode in ("mtl", "stl"):
            out = str(tmp_path / f"report_{mode}.csv")
            rc = cli.main(
                ["evaluate", "--manifest", man, "--features", feat, "--out", out,
                 "--mode", mode, "--budget", "5"]
            )
            assert rc == 0
            lines = text_lines(out)
            reports[mode] = [ln.split(",")[0] for ln in lines]
        assert reports["mtl"] == reports["stl"]

    def test_age_range_filter(self, tmp_path):
        man, feat = make_feature_corpus(tmp_path, n_persons=4, images_per_person=4)
        out = str(tmp_path / "report.csv")
        rc = cli.main(
            ["evaluate", "--manifest", man, "--features", feat, "--out", out,
             "--budget", "5", "--age-range", "0:30"]
        )
        assert rc == 0
        manifest = ds.parse_manifest(man)
        n_kept = sum(1 for s in manifest.samples if 0 <= s.age <= 30)
        summary = text_lines(out)[0].split(",")
        assert int(summary[1]) == n_kept

    def test_row_count_mismatch(self, tmp_path, capsys):
        man, feat = make_feature_corpus(tmp_path)
        feats = featfile.read_features(feat)
        featfile.write_features(feat, feats[:-1])
        rc = cli.main(["evaluate", "--manifest", man, "--features", feat])
        assert rc == 1
        assert capsys.readouterr().err.startswith("ERROR RowCountMismatch:")

    def test_cs_max_flag(self, tmp_path):
        man, feat = make_feature_corpus(tmp_path)
        out = str(tmp_path / "report.csv")
        cli.main(
            ["evaluate", "--manifest", man, "--features", feat, "--out", out,
             "--budget", "5", "--cs-max", "3"]
        )
        cs = [ln for ln in text_lines(out) if ln.startswith("cs,")]
        assert len(cs) == 4

    def test_standardize_flag_runs(self, tmp_path):
        man, feat = make_feature_corpus(tmp_path)
        out = str(tmp_path / "report.csv")
        rc = cli.main(
            ["evaluate", "--manifest", man, "--features", feat, "--out", out,
             "--budget", "5", "--standardize"]
        )
        assert rc == 0

    def test_report_on_stdout_without_out(self, tmp_path, capsys):
        man, feat = make_feature_corpus(tmp_path)
        out = tmp_path / "report.csv"
        argv = ["evaluate", "--manifest", man, "--features", feat, "--budget", "5"]
        assert cli.main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == out.read_text(encoding="utf-8")

    def test_evaluate_never_copies_the_whole_matrix(self, tmp_path, capsys):
        # each fold reads its task rows from the file, and standardizes only
        # the rows it reads, so neither run holds a copy of the GFV1 body
        # beside the fold's own rows
        n, k = 100, 4896
        rng = np.random.default_rng(38)
        features = rng.standard_normal((n, k)).astype(np.float32)
        lines = ["path,person_id,age,gender"]
        for i, x in enumerate(features):
            age = int(np.clip(round(35 + 6 * x[5] - 5 * x[1632] + 4 * x[2448]), 0, 90))
            lines.append(f"synthetic:{i},p{i // 10},{age},{'mf'[i // 10 % 2]}")
        man, feat = tmp_path / "manifest.csv", str(tmp_path / "features.gfv")
        man.write_text("\n".join(lines) + "\n", encoding="utf-8")
        featfile.write_features(feat, features)
        del features
        body = 4 * n * k
        for extra in ([], ["--standardize"]):
            argv = ["evaluate", "--manifest", str(man), "--features", feat,
                    "--out", str(tmp_path / "report.csv"), "--budget", "10", *extra]
            tracemalloc.start()  # numpy reports its data allocations to it
            try:
                assert cli.main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2.5 * body, (extra, peak / body)
            assert len(text_lines(tmp_path, "report.csv")) == 2 + 16 + 10  # 10 folds


class TestSelectTrainPredict:
    def test_select_writes_glohsel(self, tmp_path, capsys):
        man, feat = make_feature_corpus(tmp_path)
        out = str(tmp_path / "sel.txt")
        rc = cli.main(
            ["select", "--manifest", man, "--features", feat, "--out", out,
             "--budget", "5"]
        )
        assert rc == 0
        lines = text_lines(out)
        assert lines[0] == "GLOHSEL 1"
        assert lines[1].startswith("lambda=")
        assert lines[2].startswith("epsilon=")
        bins = [int(ln.split()[0]) for ln in lines[3:] if ln]
        assert bins == sorted(bins)
        assert len(bins) <= 5

    def test_train_then_predict(self, tmp_path):
        man, feat = make_feature_corpus(tmp_path)
        model_path = str(tmp_path / "model.txt")
        rc = cli.main(
            ["train", "--manifest", man, "--features", feat, "--out", model_path,
             "--budget", "5"]
        )
        assert rc == 0
        assert text_lines(model_path)[0] == "GLOHRIDGE 1"

        pred_path = str(tmp_path / "pred.csv")
        rc = cli.main(
            ["predict", "--model", model_path, "--features", feat,
             "--manifest", man, "--out", pred_path]
        )
        assert rc == 0
        lines = text_lines(pred_path)
        assert lines[0] == "row,pred_age"
        n_rows = featfile.read_features(feat).shape[0]
        assert len(lines) == n_rows + 1
        # noiseless-ish training data: predictions track the labels
        manifest = ds.parse_manifest(man)
        preds = [float(ln.split(",")[1]) for ln in lines[1:]]
        errs = [abs(p - s.age) for p, s in zip(preds, manifest.samples)]
        assert np.mean(errs) < 2.0

    def test_predict_without_manifest_uses_pooled(self, tmp_path):
        man, feat = make_feature_corpus(tmp_path)
        model_path = str(tmp_path / "model.txt")
        cli.main(
            ["train", "--manifest", man, "--features", feat, "--out", model_path,
             "--budget", "5"]
        )
        pred_path = str(tmp_path / "pred.csv")
        rc = cli.main(
            ["predict", "--model", model_path, "--features", feat, "--out", pred_path]
        )
        assert rc == 0
        assert len(text_lines(pred_path)) == 13

    def test_train_reusing_selection(self, tmp_path):
        man, feat = make_feature_corpus(tmp_path)
        sel_path = str(tmp_path / "sel.txt")
        cli.main(
            ["select", "--manifest", man, "--features", feat, "--out", sel_path,
             "--budget", "5"]
        )
        model_path = str(tmp_path / "model.txt")
        rc = cli.main(
            ["train", "--manifest", man, "--features", feat, "--out", model_path,
             "--selection", sel_path]
        )
        assert rc == 0

    def test_train_selection_with_whitespace_line(self, tmp_path):
        # a line of spaces in a GLOHSEL file is skipped like an empty one
        man, feat = make_feature_corpus(tmp_path)
        models = []
        for name, extra in (("plain", ""), ("spaces", "   \n")):
            sel = tmp_path / f"{name}.sel"
            body = "GLOHSEL 1\nlambda=0.5\nepsilon=1e-08\n3 1.0 2.0\n" + extra
            sel.write_text(body, encoding="utf-8")
            model = tmp_path / f"{name}.model"
            rc = cli.main(
                ["train", "--manifest", man, "--features", feat, "--out", str(model),
                 "--selection", str(sel)]
            )
            assert rc == 0
            models.append(model.read_bytes())
        assert models[0] == models[1]

    def test_select_train_and_predict_never_hold_the_whole_matrix(self, tmp_path, capsys):
        # select reads each task's rows from the file, and train --selection
        # and predict only the selected bins, so none allocates the GFV1
        # body as a whole; train without --selection keeps the task rows
        # through its ridge fits at select's bound; genders alternate and
        # one row in seven has none, so each task's rows come in short runs
        n, k = 240, 3000
        man, feat = make_gappy_corpus(tmp_path, n, k, seed=37)
        body = 4 * n * k
        sel, model = str(tmp_path / "sel.txt"), str(tmp_path / "model.txt")
        runs = [
            (["select", "--manifest", str(man), "--features", feat, "--out", sel,
              "--budget", "10"], 2.0),
            (["train", "--manifest", str(man), "--features", feat, "--out", model,
              "--selection", sel], 0.5),
            (["train", "--manifest", str(man), "--features", feat,
              "--out", str(tmp_path / "fresh.txt"), "--budget", "10"], 2.0),
            (["predict", "--model", model, "--features", feat, "--manifest", str(man),
              "--out", str(tmp_path / "pred.csv")], 0.5),
            (["predict", "--model", model, "--features", feat,
              "--out", str(tmp_path / "pooled.csv")], 0.5),
        ]
        for argv, bound in runs:
            tracemalloc.start()  # numpy reports its data allocations to it
            try:
                assert cli.main(argv) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * body, (argv[0], peak / body)
        assert len(text_lines(model)) > 4
        assert Path(model).read_bytes() == (tmp_path / "fresh.txt").read_bytes()

    def test_train_reads_each_task_row_once(self, tmp_path, monkeypatch):
        # the ridge fits cut their bins from the task rows the selection
        # read: 120 rows, and the 17 without a gender are in both tasks;
        # the model has the bytes of fits that gather their bins afresh
        n, k = 120, 40
        man, feat = make_gappy_corpus(tmp_path, n, k, seed=39)
        reads = []
        read = featfile.FeatureFile._read

        def counted(self, fh, rows, out):
            reads.append(len(rows))
            return read(self, fh, rows, out)

        monkeypatch.setattr(featfile.FeatureFile, "_read", counted)
        model = tmp_path / "model.txt"
        argv = ["train", "--manifest", man, "--features", feat, "--out", str(model),
                "--budget", "5"]
        assert cli.main(argv) == 0
        assert sum(reads) == n + 17 == 137

        manifest, config = ds.parse_manifest(man), pipeline.RunConfig(budget=5)
        features = featfile.read_features(feat)
        selection = pipeline.select_bins(manifest, features, config)
        _, want = pipeline.train_model(manifest, features, config, selection)
        ridge.write_model(str(tmp_path / "want.txt"), want)
        assert model.read_bytes() == (tmp_path / "want.txt").read_bytes()


class TestErrorContract:
    """Bad input ends in one ``ERROR <code>: <detail>`` line, not a traceback."""

    def run_failing(self, argv, capsys, code):
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"ERROR {code}:")
        assert err.count("\n") == 1

    def test_evaluate_age_range_without_persons(self, tmp_path, capsys):
        # every age is in [0, 69]: the range keeps no row, so no person
        man, feat = make_feature_corpus(tmp_path)
        out = tmp_path / "report.csv"
        argv = ["evaluate", "--manifest", man, "--features", feat, "--out", str(out),
                "--age-range", "100:110"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            "ERROR SinglePerson: leave-one-person-out needs at least 2 persons, "
            "the rows hold 0\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("damage, code", [
        (lambda body: b"GFV2" + body[4:], "MalformedHeader"),
        (lambda body: body[:7], "MalformedHeader"),
        (lambda body: body[:-4], "TruncatedPixelData"),
        (lambda body: body + bytes(4), "TrailingData"),
    ])
    def test_evaluate_damaged_feature_file(self, tmp_path, capsys, damage, code):
        man, feat = make_feature_corpus(tmp_path)
        Path(feat).write_bytes(damage(Path(feat).read_bytes()))
        self.run_failing(["evaluate", "--manifest", man, "--features", feat],
                         capsys, code)

    def test_non_integer_budget_in_config(self, tmp_path, capsys):
        man, feat = make_feature_corpus(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("budget = x\n", encoding="utf-8")
        self.run_failing(
            ["select", "--manifest", man, "--features", feat,
             "--out", str(tmp_path / "sel.txt"), "--config", str(cfg)],
            capsys, "InvalidSpec",
        )

    @pytest.mark.parametrize(
        "settings",
        [
            "alpha_grid = -1,1",
            "alpha_grid = nan,1",
            "seed = -1",
            "cs_max = -1",
            "age_range = 30:20",
            "rel_tol = nan",
            "standardize = ture",
            "budgte = 3",
            "budget = 3\nbudget = 4",
            "budget 3",
        ],
    )
    def test_bad_setting_in_config(self, tmp_path, capsys, settings):
        man, feat = make_feature_corpus(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(settings + "\n", encoding="utf-8")
        self.run_failing(
            ["evaluate", "--manifest", man, "--features", feat,
             "--out", str(tmp_path / "report.csv"), "--budget", "5",
             "--config", str(cfg)],
            capsys, "InvalidSpec",
        )

    @pytest.mark.parametrize(
        "argv",
        [
            ["select", "--manifest", "m.csv"],  # --features and --out missing
            ["select", "--manifest", "m.csv", "--features", "f.gfv", "--out", "s.txt",
             "--mode", "foo"],
            ["synth", "--out-dir", "synth", "--k", "abc"],
            [],  # no subcommand
            ["evaluate", "--manifest", "m.csv", "--features", "f.gfv", "--cs-max", "131"],
            ["evaluate", "--manifest", "m.csv", "--features", "f.gfv", "--age-range", "5"],
            ["extract", "--manifest", "m.csv", "--out", "f.gfv", "--seed", "3"],  # no fit
            ["select", "--manifest", "m.csv", "--features", "f.gfv", "--out", "s.txt",
             "--seed", "3"],  # no ridge fit
        ],
    )
    def test_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        self.run_failing(argv, capsys, "InvalidSpec")
        assert not os.listdir(tmp_path)

    def test_train_selection_missing_file(self, tmp_path, capsys):
        man, feat = make_feature_corpus(tmp_path)
        out = tmp_path / "model.txt"
        self.run_failing(
            ["train", "--manifest", man, "--features", feat, "--out", str(out),
             "--selection", str(tmp_path / "absent.txt")],
            capsys, "MissingFile",
        )
        assert not out.exists()

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["select", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: glohage select")

    @pytest.mark.parametrize("setting", ["standardize = true", "age_range = 30:40"])
    @pytest.mark.parametrize("command", ["select", "train"])
    def test_evaluate_only_setting_in_config(self, tmp_path, capsys, command, setting):
        # select and train would ignore these keys, so they refuse them
        man, feat = make_feature_corpus(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(setting + "\n", encoding="utf-8")
        out = tmp_path / "out.txt"
        self.run_failing(
            [command, "--manifest", man, "--features", feat, "--out", str(out),
             "--budget", "5", "--config", str(cfg)],
            capsys, "InvalidSpec",
        )
        assert not out.exists()

    def test_two_radii_in_config(self, tmp_path, capsys):
        man = make_image_corpus(tmp_path, n=1)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("radii = 1,2\n", encoding="utf-8")
        self.run_failing(
            ["extract", "--manifest", man, "--out", str(tmp_path / "f.gfv"),
             "--config", str(cfg)],
            capsys, "InvalidSpec",
        )

    @pytest.mark.parametrize(
        "setting",
        [
            "patch_size = 0",
            "stride = 0",
            "stride = -1",
            "n_sectors = 0",
            "n_orient = 0",
            "n_orient = -2",
            "height = 0",
            "width = -1",
        ],
    )
    def test_bad_geometry_in_config(self, tmp_path, capsys, setting):
        man = make_image_corpus(tmp_path, n=1)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(setting + "\n", encoding="utf-8")
        self.run_failing(
            ["extract", "--manifest", man, "--out", str(tmp_path / "f.gfv"),
             "--config", str(cfg)],
            capsys, "InvalidSpec",
        )

    def test_p2_sample_beyond_int64(self, tmp_path, capsys):
        samples = ["7"] * (68 * 62)
        samples[100] = "100000000000000000000000"
        (tmp_path / "a.pgm").write_text("P2\n62 68\n255\n" + " ".join(samples) + "\n",
                                        encoding="ascii")
        man = tmp_path / "m.csv"
        man.write_text("path,person_id,age,gender\na.pgm,p1,5,m\n", encoding="utf-8")
        self.run_failing(
            ["extract", "--manifest", str(man), "--out", str(tmp_path / "f.gfv")],
            capsys, "TruncatedPixelData",
        )

    def test_selection_bin_out_of_range(self, tmp_path, capsys):
        man, feat = make_feature_corpus(tmp_path)  # K = 30
        sel = tmp_path / "sel.txt"
        sel.write_text(
            "GLOHSEL 1\nlambda=0.5\nepsilon=1e-08\n30 1.0 2.0\n", encoding="utf-8"
        )
        self.run_failing(
            ["train", "--manifest", man, "--features", feat,
             "--out", str(tmp_path / "model.txt"), "--selection", str(sel)],
            capsys, "ShapeMismatch",
        )

    def test_model_weight_line_with_three_fields(self, tmp_path, capsys):
        man, feat = make_feature_corpus(tmp_path)
        model = tmp_path / "model.txt"
        model.write_text(
            "GLOHRIDGE 1\ntask=pooled\nalpha=1.0\nintercept=30.0\n"
            "clamp=0.0 69.0\n3 1.0 2.0\n",
            encoding="utf-8",
        )
        self.run_failing(
            ["predict", "--model", str(model), "--features", feat,
             "--out", str(tmp_path / "pred.csv")],
            capsys, "MalformedRow",
        )

    @pytest.mark.parametrize("n_rows", [4, 13])  # the features have 12 rows
    def test_predict_manifest_row_count(self, tmp_path, capsys, n_rows):
        man, feat = make_feature_corpus(tmp_path)
        lines = text_lines(man)[: n_rows + 1]
        lines += [f"synthetic:{i},extra,30,m" for i in range(12, n_rows)]
        rows_csv = tmp_path / "rows.csv"
        rows_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")
        model = tmp_path / "model.txt"
        model.write_text("GLOHRIDGE 1\n" + "".join(
            f"task={t}\nalpha=1.0\nintercept=30.0\nclamp=0.0 69.0\n3 1.0\n"
            for t in ("male", "female", "pooled")
        ), encoding="utf-8")
        self.run_failing(
            ["predict", "--model", str(model), "--features", feat,
             "--manifest", str(rows_csv), "--out", str(tmp_path / "pred.csv")],
            capsys, "RowCountMismatch",
        )

    def test_train_selection_row_count(self, tmp_path, capsys):
        man, feat = make_feature_corpus(tmp_path)
        featfile.write_features(feat, featfile.read_features(feat)[:-1])
        sel = tmp_path / "sel.txt"
        sel.write_text(
            "GLOHSEL 1\nlambda=0.5\nepsilon=1e-08\n3 1.0 2.0\n", encoding="utf-8"
        )
        self.run_failing(
            ["train", "--manifest", man, "--features", feat,
             "--out", str(tmp_path / "model.txt"), "--selection", str(sel)],
            capsys, "RowCountMismatch",
        )

    def test_train_selection_non_finite_selected_bin(self, tmp_path, capsys):
        man, feat = make_feature_corpus(tmp_path)
        feats = featfile.read_features(feat)
        feats[0, 3] = np.nan
        featfile.write_features(feat, feats)
        sel = tmp_path / "sel.txt"
        sel.write_text(
            "GLOHSEL 1\nlambda=0.5\nepsilon=1e-08\n3 1.0 2.0\n", encoding="utf-8"
        )
        self.run_failing(
            ["train", "--manifest", man, "--features", feat,
             "--out", str(tmp_path / "model.txt"), "--selection", str(sel)],
            capsys, "NonFiniteEncountered",
        )

    def test_predict_non_finite_selected_bin(self, tmp_path, capsys):
        man, feat = make_feature_corpus(tmp_path)
        feats = featfile.read_features(feat)
        feats[0, 3] = np.nan
        featfile.write_features(feat, feats)
        model = tmp_path / "model.txt"
        model.write_text(
            "GLOHRIDGE 1\ntask=pooled\nalpha=1.0\nintercept=30.0\n"
            "clamp=0.0 69.0\n3 1.0\n",
            encoding="utf-8",
        )
        self.run_failing(
            ["predict", "--model", str(model), "--features", feat,
             "--out", str(tmp_path / "pred.csv")],
            capsys, "NonFiniteEncountered",
        )
        assert not (tmp_path / "pred.csv").exists()

    def test_manifest_not_utf8(self, tmp_path, capsys):
        man = tmp_path / "manifest.csv"
        man.write_bytes(b"path,person_id,age,gender\nface\xff.pgm,p0,20,m\n")
        self.run_failing(
            ["extract", "--manifest", str(man), "--out", str(tmp_path / "f.gfv")],
            capsys, "MalformedRow",
        )

    def test_manifest_field_beyond_csv_limit(self, tmp_path, capsys):
        man = tmp_path / "manifest.csv"
        man.write_text(f"path,person_id,age,gender\n{'a' * 200_000}.pgm,p0,20,m\n",
                       encoding="utf-8")
        self.run_failing(
            ["extract", "--manifest", str(man), "--out", str(tmp_path / "f.gfv")],
            capsys, "MalformedRow",
        )

    def test_config_not_utf8(self, tmp_path, capsys):
        man = make_image_corpus(tmp_path, n=1)
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"budget = \xff\n")
        self.run_failing(
            ["extract", "--manifest", man, "--out", str(tmp_path / "f.gfv"),
             "--config", str(cfg)],
            capsys, "InvalidSpec",
        )

    def test_model_is_a_directory(self, tmp_path, capsys):
        _, feat = make_feature_corpus(tmp_path)
        self.run_failing(
            ["predict", "--model", str(tmp_path), "--features", feat,
             "--out", str(tmp_path / "pred.csv")],
            capsys, "FileAccess",
        )


# which subcommand reads which config key, written out by hand for the
# tests below to hold cli.SETTINGS to
READS = {
    "extract": ("patch_size", "stride", "radii", "n_sectors", "n_orient",
                "clip_threshold", "height", "width"),
    "select": ("max_iters", "rel_tol", "mode", "budget"),
    "train": ("max_iters", "rel_tol", "mode", "budget", "alpha_grid", "seed"),
    "evaluate": ("max_iters", "rel_tol", "mode", "budget", "alpha_grid", "seed",
                 "cs_max", "standardize", "age_range"),
}
# each key at the value a run without it uses; 0:130 keeps every age
PLAIN = {
    "patch_size": "10", "stride": "3", "radii": "2,3,5", "n_sectors": "8",
    "n_orient": "8", "clip_threshold": "0.2", "max_iters": "2000", "rel_tol": "1e-6",
    "mode": "mtl", "budget": "50", "alpha_grid": "0.001,0.01,0.1,1,10,100,1000",
    "cs_max": "15", "seed": "0", "height": "68", "width": "62",
    "standardize": "false", "age_range": "0:130",
}
# the flags each subcommand's --help lists: its files, then its settings'
HELP_FLAGS = {
    "extract": ["--manifest", "--out", "--config", "--height", "--width"],
    "select": ["--manifest", "--features", "--out", "--config", "--mode", "--budget"],
    "train": ["--manifest", "--features", "--out", "--selection", "--config", "--mode",
              "--budget", "--seed"],
    "evaluate": ["--manifest", "--features", "--out", "--config", "--mode", "--budget",
                 "--seed", "--cs-max", "--age-range", "--standardize"],
    "predict": ["--model", "--features", "--out", "--manifest"],
}


def command_argv(command, tmp_path):
    """``command``'s input flags over the corpus in ``tmp_path``, or over
    files that do not exist when it has none."""
    man, feat = str(tmp_path / "manifest.csv"), str(tmp_path / "features.gfv")
    return [command, "--manifest", man] + ([] if command == "extract" else
                                           ["--features", feat])


class TestSettings:
    """Each subcommand takes only the settings it reads."""

    @pytest.mark.parametrize("command, key", [
        (command, key) for command in READS for key in PLAIN if key not in READS[command]
    ])
    def test_unread_key_in_config(self, tmp_path, capsys, command, key):
        # refused before the (absent) manifest or features are opened
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# one key\n{key} = {PLAIN[key]}\n", encoding="utf-8")
        argv = command_argv(command, tmp_path)
        argv += ["--out", str(tmp_path / "out"), "--config", str(cfg)]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == (
            f"ERROR InvalidSpec: {cfg}:2: {command} does not read '{key}'\n"
        )
        assert os.listdir(tmp_path) == ["run.cfg"]

    @pytest.mark.parametrize("command", list(READS))
    def test_config_at_plain_values_changes_no_byte(self, tmp_path, capsys, command):
        if command == "extract":
            make_image_corpus(tmp_path)
        else:
            make_feature_corpus(tmp_path, k=60)  # K above the default budget
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{key} = {PLAIN[key]}\n" for key in READS[command]),
                       encoding="utf-8")
        plain, configured = tmp_path / "plain.out", tmp_path / "configured.out"
        argv = command_argv(command, tmp_path)
        assert cli.main(argv + ["--out", str(plain)]) == 0
        printed = capsys.readouterr()
        assert cli.main(argv + ["--out", str(configured), "--config", str(cfg)]) == 0
        assert capsys.readouterr() == printed
        assert configured.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_ridge_fits_take_seed(self, command):
        argv = command_argv(command, Path("absent")) + ["--out", "o", "--seed", "3"]
        assert cli.build_config(cli.make_parser().parse_args(argv)).seed == 3

    @pytest.mark.parametrize("command", list(HELP_FLAGS))
    def test_help_lists_only_the_flags_of_read_settings(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        flags = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert flags == {"--help", *HELP_FLAGS[command]}


def test_readme_lists_every_config_key():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    readme = readme.read_text(encoding="utf-8")
    section = readme.split("Config keys", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| .* \| ([^|]*) \|$", section, flags=re.M)
    assert sorted(key for key, _ in rows) == sorted(cli.SETTINGS)
    for key, read_by in rows:  # the "read by" column
        assert tuple(re.findall(r"`(\w+)`", read_by)) == cli.SETTINGS[key][2], key


# the same commands run in the CI workflow's numpy-only step
NUMPY_ONLY_RUN = [
    "synth --out-dir {d} --k 40 --n 20 --support 4",
    "select --manifest {d}/manifest.csv --features {d}/features.gfv"
    " --out {d}/sel.txt --budget 4",
    "train --manifest {d}/manifest.csv --features {d}/features.gfv"
    " --out {d}/model.txt --selection {d}/sel.txt",
    "predict --model {d}/model.txt --features {d}/features.gfv"
    " --manifest {d}/manifest.csv --out {d}/preds.csv",
    "evaluate --manifest {d}/manifest.csv --features {d}/features.gfv"
    " --out {d}/report.csv --budget 4",
]


def test_runs_end_to_end_without_scipy(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    block_scipy = (
        "import sys; sys.modules['scipy'] = None; "
        "from glohage.cli import main; sys.exit(main())"
    )
    for cmd in NUMPY_ONLY_RUN:
        done = subprocess.run(
            [sys.executable, "-c", block_scipy, *cmd.format(d=tmp_path).split()],
            env={**os.environ, "PYTHONPATH": path}, capture_output=True,
            encoding="utf-8",
        )
        assert done.returncode == 0, (cmd, done.stderr)
    assert (tmp_path / "report.csv").read_text(encoding="utf-8").startswith("summary,")
