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
    data = open(path, "rb").read()
    open(path, "wb").write(data[:-1])
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
