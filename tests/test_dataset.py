import numpy as np
import pytest

from glohage import dataset as ds
from glohage import pipeline
from glohage.errors import (
    DuplicatePathError,
    EmptyTaskError,
    InvalidSpecError,
    MalformedRowError,
    RowCountMismatchError,
    SinglePersonError,
)

HEADER = "path,person_id,age,gender\n"


def write_manifest_text(tmp_path, text, name="m.csv"):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return str(p)


class TestParseManifest:
    def test_three_valid_rows(self, tmp_path):
        path = write_manifest_text(
            tmp_path, HEADER + "a.pgm,p1,5,m\nb.pgm,p1,7,f\nc.pgm,p2,40,\n"
        )
        man = ds.parse_manifest(path)
        assert [s.person_id for s in man.samples] == ["p1", "p1", "p2"]
        assert [s.gender for s in man.samples] == [ds.MALE, ds.FEMALE, ds.UNKNOWN]
        assert [s.age for s in man.samples] == [5, 7, 40]

    def test_non_integer_age(self, tmp_path):
        path = write_manifest_text(tmp_path, HEADER + "a.pgm,p1,abc,m\n")
        with pytest.raises(MalformedRowError) as exc:
            ds.parse_manifest(path)
        assert "line 2" in str(exc.value)

    def test_duplicate_path(self, tmp_path):
        path = write_manifest_text(tmp_path, HEADER + "a.pgm,p1,5,m\na.pgm,p2,6,f\n")
        with pytest.raises(DuplicatePathError):
            ds.parse_manifest(path)

    def test_wrong_arity(self, tmp_path):
        path = write_manifest_text(tmp_path, HEADER + "a.pgm,p1,5\n")
        with pytest.raises(MalformedRowError):
            ds.parse_manifest(path)

    def test_bad_gender_token(self, tmp_path):
        path = write_manifest_text(tmp_path, HEADER + "a.pgm,p1,5,x\n")
        with pytest.raises(MalformedRowError):
            ds.parse_manifest(path)

    def test_crlf_accepted(self, tmp_path):
        p = tmp_path / "crlf.csv"
        p.write_bytes(b"path,person_id,age,gender\r\na.pgm,p1,5,m\r\n")
        man = ds.parse_manifest(str(p))
        assert len(man.samples) == 1

    def test_roundtrip(self, tmp_path):
        path = write_manifest_text(
            tmp_path, HEADER + "a.pgm,p1,5,m\nb.pgm,p1,7,f\nc.pgm,p2,40,\n"
        )
        man = ds.parse_manifest(path)
        out = str(tmp_path / "out.csv")
        ds.write_manifest(out, man)
        assert ds.parse_manifest(out) == man


class TestSplitLopo:
    def make(self, persons):
        return ds.Manifest(
            [ds.Sample(f"img{i}.pgm", p, 10, ds.MALE) for i, p in enumerate(persons)]
        )

    def test_small_example(self):
        folds = ds.split_lopo(self.make(["A", "A", "B"]))
        assert [f.held_out_person for f in folds] == ["A", "B"]
        assert folds[0].test_rows.tolist() == [0, 1]
        assert folds[0].train_rows.tolist() == [2]
        assert folds[1].test_rows.tolist() == [2]
        assert folds[1].train_rows.tolist() == [0, 1]

    def test_fold_count_per_person(self):
        persons = [f"p{i}" for i in range(82) for _ in range(3)]
        folds = ds.split_lopo(self.make(persons))
        assert len(folds) == 82

    def test_single_person_rejected(self):
        with pytest.raises(SinglePersonError):
            ds.split_lopo(self.make(["A", "A"]))

    def test_partition_properties(self):
        rng = np.random.default_rng(0)
        persons = [f"p{rng.integers(6)}" for _ in range(40)]
        man = self.make(persons)
        folds = ds.split_lopo(man)
        n = len(man.samples)
        seen_in_test = np.zeros(n, dtype=int)
        for f in folds:
            seen_in_test[f.test_rows] += 1
            assert set(f.train_rows) & set(f.test_rows) == set()
            assert sorted(set(f.train_rows) | set(f.test_rows)) == list(range(n))
        assert np.all(seen_in_test == 1)


class TestPartitionByTask:
    """``dataset.task_rows``, the one rule that splits rows into tasks for
    the selection and the ridge fits alike."""

    def make(self, genders):
        return ds.Manifest(
            [ds.Sample(f"i{i}.pgm", f"p{i}", 10 + i, g) for i, g in enumerate(genders)]
        )

    def test_all_male_raises(self):
        man = self.make([ds.MALE, ds.MALE])
        with pytest.raises(EmptyTaskError):
            ds.task_rows([0, 1], man)

    def test_counts(self):
        man = self.make([ds.MALE, ds.MALE, ds.FEMALE, ds.FEMALE, ds.FEMALE])
        tasks = ds.task_rows(range(5), man)
        assert list(tasks) == [ds.MALE, ds.FEMALE]
        assert tasks == {ds.MALE: [0, 1], ds.FEMALE: [2, 3, 4]}

    def test_unknown_duplicated_into_both(self):
        man = self.make([ds.UNKNOWN, ds.MALE, ds.FEMALE])
        assert ds.task_rows(range(3), man) == {ds.MALE: [0, 1], ds.FEMALE: [0, 2]}

    def test_row_count_mismatch(self):
        man = self.make([ds.MALE, ds.FEMALE])
        feats = np.zeros((1, 4), dtype=np.float32)
        with pytest.raises(RowCountMismatchError):
            pipeline.select_bins(man, feats, pipeline.RunConfig(budget=1))

    def test_manifest_order_preserved(self):
        man = self.make([ds.FEMALE, ds.MALE, ds.MALE, ds.UNKNOWN])
        tasks = ds.task_rows([3, 2, 0, 1], man)
        assert tasks == {ds.MALE: [1, 2, 3], ds.FEMALE: [0, 3]}


class TestSynthGenerate:
    def test_determinism(self):
        spec = ds.SynthSpec(K=50, L=2, N=20, support_size=5, noise_sigma=0.3, seed=42)
        d1, W1, s1 = ds.synth_generate(spec)
        d2, W2, s2 = ds.synth_generate(spec)
        assert np.array_equal(W1, W2)
        assert np.array_equal(s1, s2)
        for a, b in zip(d1, d2):
            assert np.array_equal(a.X, b.X)
            assert np.array_equal(a.y, b.y)

    def test_noiseless_exact_on_support(self):
        spec = ds.SynthSpec(K=40, L=2, N=30, support_size=6, noise_sigma=0.0, seed=1)
        data, W, supp = ds.synth_generate(spec)
        for l, d in enumerate(data):
            w_ls, *_ = np.linalg.lstsq(d.X[:, supp], d.y, rcond=None)
            assert np.allclose(d.X[:, supp] @ w_ls, d.y, atol=1e-8)
            assert np.allclose(w_ls, W[supp, l], atol=1e-8)

    def test_coefficient_magnitudes(self):
        spec = ds.SynthSpec(K=100, L=3, N=10, support_size=20, seed=2)
        _, W, supp = ds.synth_generate(spec)
        nz = np.abs(W[supp])
        assert np.all((nz >= 1.0) & (nz <= 2.0))
        off = np.delete(W, supp, axis=0)
        assert np.all(off == 0)

    def test_invalid_specs(self):
        with pytest.raises(InvalidSpecError):
            ds.SynthSpec(K=5, support_size=6)
        for sigma in (-0.1, float("nan"), float("inf")):
            with pytest.raises(InvalidSpecError):
                ds.SynthSpec(noise_sigma=sigma)
        with pytest.raises(InvalidSpecError):
            ds.SynthSpec(N=0)
