import os
from pathlib import Path

import numpy as np
import pytest

from glohage import featfile
from glohage.errors import (
    MalformedHeaderError,
    MissingFileError,
    TrailingDataError,
    TruncatedPixelDataError,
)


def write_rows(tmp_path, rows):
    path = str(tmp_path / "f.gfv")
    featfile.write_features(path, rows)
    return path


def test_roundtrip(tmp_path):
    rows = np.random.default_rng(0).standard_normal((4, 7)).astype(np.float32)
    back = featfile.read_features(write_rows(tmp_path, rows))
    assert back.dtype == np.float32 and back.shape == (4, 7)
    assert np.array_equal(back, rows)


def test_empty_body(tmp_path):
    path = write_rows(tmp_path, np.zeros((0, 5)))
    assert featfile.read_features(path).shape == (0, 5)


def test_truncated_body(tmp_path):
    path = write_rows(tmp_path, np.ones((3, 4)))
    Path(path).write_bytes(Path(path).read_bytes()[:-1])
    with pytest.raises(TruncatedPixelDataError):
        featfile.read_features(path)


def test_trailing_bytes(tmp_path):
    path = write_rows(tmp_path, np.ones((3, 4)))
    with open(path, "ab") as fh:
        fh.write(b"junk")
    with pytest.raises(TrailingDataError):
        featfile.read_features(path)


@pytest.mark.parametrize("data", [b"", b"GFV1\x01\x00", b"GFV2" + bytes(8)])
def test_bad_header(tmp_path, data):
    path = tmp_path / "f.gfv"
    path.write_bytes(data)
    with pytest.raises(MalformedHeaderError):
        featfile.read_features(str(path))


def test_missing_file(tmp_path):
    with pytest.raises(MissingFileError):
        featfile.read_features(str(tmp_path / "absent.gfv"))


def reader_and_matrix(tmp_path, n=40, k=30, seed=3):
    rows = np.random.default_rng(seed).standard_normal((n, k)).astype(np.float32)
    path = write_rows(tmp_path, rows)
    return featfile.FeatureFile(path), featfile.read_features(path), path


def same(got, want):
    return (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


# male rows, then the female-only rows: ridge.fit_model's pooled list
POOLED = [0, 1, 3, 4, 6, 9, 10, 12, 2, 5, 7, 8, 11]


@pytest.mark.parametrize("rows", [
    list(range(40)), [3, 4, 5, 20, 39], [17, 2, 30, 3, 4, 0], [5, 5, 6, 5, 0, 0],
    POOLED, np.array([8, 9, 1]), range(10, 20), [],
])
def test_reader_rows_match_read_features(tmp_path, rows):
    f, full, _ = reader_and_matrix(tmp_path)
    assert f.shape == full.shape
    assert same(f[rows], full[rows])


@pytest.mark.parametrize("block_rows", [1, 2, 5, 100])
@pytest.mark.parametrize("rows", [list(range(40)), POOLED, [7, 7, 39, 0, 1, 2], []])
def test_reader_rows_and_bins_match_read_features(tmp_path, monkeypatch, block_rows, rows):
    f, full, _ = reader_and_matrix(tmp_path)
    monkeypatch.setattr(featfile, "BLOCK_BYTES", block_rows * 4 * full.shape[1])
    for bins in ([29, 0, 14, 3], np.array([5]), [-1, 2], []):
        assert same(f[np.ix_(rows, bins)], full[np.ix_(rows, bins)])


def test_reader_of_a_zero_row_file(tmp_path):
    path = write_rows(tmp_path, np.zeros((0, 6)))
    f = featfile.FeatureFile(path)
    assert f.shape == (0, 6)
    assert same(f[[]], featfile.read_features(path)[[]])
    assert f[np.ix_([], [1, 4])].shape == (0, 2)


@pytest.mark.parametrize("key", [[-1], [40], [0, 41], [3, -2]])
def test_reader_refuses_rows_outside_the_body(tmp_path, key):
    f, _, _ = reader_and_matrix(tmp_path)
    with pytest.raises(IndexError):
        f[key]
    with pytest.raises(IndexError):
        f[np.ix_(key, [0])]


def test_reader_checks_the_file_as_read_features_does(tmp_path):
    with pytest.raises(MissingFileError):
        featfile.FeatureFile(str(tmp_path / "absent.gfv"))
    bad = tmp_path / "bad.gfv"
    bad.write_bytes(b"GFV2" + bytes(8))
    with pytest.raises(MalformedHeaderError):
        featfile.FeatureFile(str(bad))
    path = write_rows(tmp_path, np.ones((3, 4)))
    Path(path).write_bytes(Path(path).read_bytes()[:-1])
    with pytest.raises(TruncatedPixelDataError):
        featfile.FeatureFile(path)
    path = write_rows(tmp_path, np.ones((3, 4)))
    with open(path, "ab") as fh:
        fh.write(b"junk")
    with pytest.raises(TrailingDataError):
        featfile.FeatureFile(path)


@pytest.mark.parametrize("key", [[0, 39], np.ix_([39], [0, 1])])
def test_reader_refuses_a_file_changed_after_it_was_opened(tmp_path, key):
    f, _, path = reader_and_matrix(tmp_path)
    body = Path(path).read_bytes()
    Path(path).write_bytes(body[:-8])
    with pytest.raises(TruncatedPixelDataError):
        f[key]
    Path(path).write_bytes(body + b"junk")
    with pytest.raises(TrailingDataError):
        f[key]


@pytest.mark.parametrize("read", [
    lambda f: f[[0, 39]], lambda f: featfile.read_features(f.path),
], ids=["FeatureFile", "read_features"])
def test_reader_refuses_a_body_that_ends_mid_read(tmp_path, monkeypatch, read):
    # the file shrinks between the size check and the read
    f, _, path = reader_and_matrix(tmp_path)
    checked = featfile._open

    def check_then_truncate(p):
        opened = checked(p)
        os.truncate(p, featfile.HEADER_BYTES + 4 * 30 * 20)
        return opened

    monkeypatch.setattr(featfile, "_open", check_then_truncate)
    with pytest.raises(TruncatedPixelDataError):
        read(f)


def test_reader_refuses_a_file_rewritten_with_another_shape(tmp_path):
    f, full, path = reader_and_matrix(tmp_path)
    featfile.write_features(path, full.reshape(30, 40))
    with pytest.raises(MalformedHeaderError):
        f[[0]]


@pytest.mark.parametrize("key", [
    ([1], [2]), (np.array([[1]]),), ([[1]], [[2]], [[3]]),
    [0.0], [True], np.ix_([1.5], [0]),  # rows that are not integers
])
def test_reader_takes_only_rows_or_an_ix_pair(tmp_path, key):
    f, _, _ = reader_and_matrix(tmp_path)
    with pytest.raises(IndexError):
        f[key]


def test_blocks_write_the_bytes_of_the_whole_array(tmp_path):
    rows = np.random.default_rng(4).standard_normal((9, 5))
    whole = write_rows(tmp_path, rows)
    blocks = str(tmp_path / "blocks.gfv")
    parts = (rows[a:b] for a, b in [(0, 1), (1, 1), (1, 6), (6, 9)])
    assert featfile.write_blocks(blocks, parts) == (9, 5)
    assert Path(blocks).read_bytes() == Path(whole).read_bytes()
    assert featfile.write_blocks(blocks, [np.zeros((0, 3))]) == (0, 3)
    assert featfile.read_features(blocks).shape == (0, 3)


def failing_blocks(rows, exc):
    yield rows
    raise exc


@pytest.mark.parametrize("blocks", [
    lambda: failing_blocks(np.ones((2, 4)), OSError("disk full")),
    lambda: [np.ones((2, 4)), np.ones((1, 5))],
    lambda: [np.ones(4)],
], ids=["error", "width", "ndim"])
def test_a_failed_write_leaves_the_target_as_it_was(tmp_path, blocks):
    path = write_rows(tmp_path, np.arange(6.0).reshape(2, 3))
    before = Path(path).read_bytes()
    with pytest.raises((OSError, ValueError)):
        featfile.write_blocks(path, blocks())
    assert Path(path).read_bytes() == before
    assert os.listdir(tmp_path) == ["f.gfv"]
    with pytest.raises((OSError, ValueError)):
        featfile.write_blocks(str(tmp_path / "new.gfv"), blocks())
    assert os.listdir(tmp_path) == ["f.gfv"]


def test_a_written_file_gets_a_new_file_s_mode(tmp_path):
    plain = tmp_path / "plain"
    with open(plain, "wb"):
        pass
    path = write_rows(tmp_path, np.ones((2, 2)))
    assert os.stat(path).st_mode == os.stat(plain).st_mode
    os.chmod(path, 0o600)  # a new file replaces the old one, mode and all
    write_rows(tmp_path, np.ones((2, 2)))
    assert os.stat(path).st_mode == os.stat(plain).st_mode


def test_a_symlink_is_written_through(tmp_path):
    real = write_rows(tmp_path, np.ones((1, 2)))
    link = tmp_path / "link.gfv"
    link.symlink_to(real)
    featfile.write_features(str(link), np.zeros((3, 2)))
    assert link.is_symlink()
    assert featfile.read_features(real).shape == (3, 2)


def test_a_directory_target_fails_before_any_block(tmp_path):
    def blocks():
        raise AssertionError("a block was taken")
        yield

    with pytest.raises(IsADirectoryError):
        featfile.write_blocks(str(tmp_path), blocks())
    assert os.listdir(tmp_path) == []


def test_a_stale_hidden_file_is_passed_over_and_kept(tmp_path):
    # a hidden file left under the first name this process would use
    stale = tmp_path / f".f.gfv.{os.getpid()}-0.part"
    stale.write_bytes(b"stale")
    path = write_rows(tmp_path, np.ones((2, 3)))
    assert featfile.read_features(path).shape == (2, 3)
    assert stale.read_bytes() == b"stale"
    assert sorted(os.listdir(tmp_path)) == sorted([stale.name, "f.gfv"])


def test_a_missing_directory_is_named_by_the_target(tmp_path):
    target = str(tmp_path / "absent" / "f.gfv")
    with pytest.raises(FileNotFoundError) as info:
        featfile.write_blocks(target, [np.ones((1, 2))])
    assert info.value.filename == os.path.realpath(target)
    assert ".part" not in str(info.value)
    assert os.listdir(tmp_path) == []
