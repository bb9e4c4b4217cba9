import numpy as np
import pytest

from glohage import pgm
from glohage.errors import (
    DimensionMismatchError,
    MalformedHeaderError,
    MissingFileError,
    TruncatedPixelDataError,
    UnsupportedMaxvalError,
)

from pgmfile import write_pgm


def write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_bytes(payload)
    return str(p)


def test_p5_header_echo(tmp_path):
    # 68 rows x 62 cols: PGM header is width then height
    body = bytes(range(256)) * 17  # 4352 >= 4216 bytes
    path = write(tmp_path, "a.pgm", b"P5\n62 68\n255\n" + body[:4216])
    img = pgm.load_pgm(path)
    assert img.shape == (68, 62)


def test_p2_direct_parse(tmp_path):
    path = write(tmp_path, "a.pgm", b"P2 2 2 255 0 64 128 255")
    img = pgm.load_pgm(path)
    assert img.tolist() == [[0, 64], [128, 255]]


def test_p5_truncated(tmp_path):
    path = write(tmp_path, "a.pgm", b"P5\n62 68\n255\n" + b"\x00" * 4000)
    with pytest.raises(TruncatedPixelDataError):
        pgm.load_pgm(path)


def test_missing_file(tmp_path):
    with pytest.raises(MissingFileError):
        pgm.load_pgm(str(tmp_path / "nope.pgm"))


def test_directory_is_not_a_missing_file(tmp_path):
    # the path exists: the open's own error comes through
    with pytest.raises(IsADirectoryError):
        pgm.load_pgm(str(tmp_path))


def test_bad_magic(tmp_path):
    path = write(tmp_path, "a.pgm", b"P7\n2 2\n255\n\x00\x00\x00\x00")
    with pytest.raises(MalformedHeaderError):
        pgm.load_pgm(path)


def test_non_numeric_dims(tmp_path):
    path = write(tmp_path, "a.pgm", b"P5\ntwo 2\n255\n\x00\x00\x00\x00")
    with pytest.raises(MalformedHeaderError):
        pgm.load_pgm(path)


@pytest.mark.parametrize("dims", [b"0 2", b"2 0", b"0 0"])
def test_zero_width_or_height(tmp_path, dims):
    path = write(tmp_path, "a.pgm", b"P5\n" + dims + b"\n255\n\x00\x00")
    with pytest.raises(MalformedHeaderError, match="bad dimensions"):
        pgm.load_pgm(path)


def test_maxval_over_255(tmp_path):
    path = write(tmp_path, "a.pgm", b"P5\n2 2\n65535\n" + b"\x00" * 8)
    with pytest.raises(UnsupportedMaxvalError):
        pgm.load_pgm(path)


@pytest.mark.parametrize(
    "magic, body",
    [(b"P5", bytes([200, 7])), (b"P2", b"200 7"), (b"P2", b"7 100000000000000000000000")],
    ids=["P5", "P2", "P2-beyond-int64"],
)
def test_sample_above_maxval(tmp_path, magic, body):
    path = write(tmp_path, "a.pgm", magic + b"\n2 1\n100\n" + body)
    with pytest.raises(TruncatedPixelDataError, match="outside"):
        pgm.load_pgm(path)


def test_p5_sample_at_maxval(tmp_path):
    path = write(tmp_path, "a.pgm", b"P5\n2 1\n100\n" + bytes([100, 7]))
    assert pgm.load_pgm(path).tolist() == [[100, 7]]


def test_header_comments_skipped(tmp_path):
    path = write(tmp_path, "a.pgm", b"P2\n# a comment\n2 1\n# more\n255\n7 9")
    img = pgm.load_pgm(path)
    assert img.tolist() == [[7, 9]]


def test_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    img = rng.integers(0, 256, size=(17, 11)).astype(np.uint8)
    path = str(tmp_path / "rt.pgm")
    write_pgm(img, path)
    assert np.array_equal(pgm.load_pgm(path), img)


def test_parsing_is_total(tmp_path):
    # arbitrary byte streams either parse or raise a typed error
    rng = np.random.default_rng(1)
    for i in range(50):
        payload = bytes(rng.integers(0, 256, size=rng.integers(0, 60)))
        path = write(tmp_path, f"junk{i}.pgm", payload)
        try:
            img = pgm.load_pgm(path)
        except (
            MalformedHeaderError,
            TruncatedPixelDataError,
            UnsupportedMaxvalError,
        ):
            continue
        assert img.size == img.shape[0] * img.shape[1]


def test_check_dims_pass_and_idempotent():
    img = np.zeros((68, 62), dtype=np.uint8)
    out = pgm.check_dims(pgm.check_dims(img, 68, 62), 68, 62)
    assert out is img


def test_check_dims_mismatch():
    img = np.zeros((64, 64), dtype=np.uint8)
    with pytest.raises(DimensionMismatchError) as exc:
        pgm.check_dims(img, 68, 62)
    assert exc.value.actual == (64, 64)
    assert exc.value.expected == (68, 62)
