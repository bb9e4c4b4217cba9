"""Loading and validation of aligned grayscale face images (PGM P2/P5).

Images are kept as 2-D uint8 numpy arrays, shape (height, width), row-major
with the origin at the top-left pixel. The pipeline expects pre-aligned
68x62 inputs; ``check_dims`` enforces that contract, no resizing is done.
"""

import numpy as np

from .errors import (
    DimensionMismatchError,
    MalformedHeaderError,
    TruncatedPixelDataError,
    UnsupportedMaxvalError,
    open_input,
)


def _tokenize_header(data, n_tokens):
    """Pull the first ``n_tokens`` whitespace-separated header tokens,
    skipping ``#`` comments. Returns (tokens, offset past the single
    whitespace byte that terminates the last token)."""
    tokens = []
    i = 0
    n = len(data)
    while len(tokens) < n_tokens:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i : i + 1] == b"#":
            while i < n and data[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < n and not data[i : i + 1].isspace() and data[i : i + 1] != b"#":
            i += 1
        if i == start:
            raise MalformedHeaderError("unexpected end of header")
        tokens.append(data[start:i])
    # exactly one whitespace byte separates the header from binary pixels
    if i < n and data[i : i + 1].isspace():
        i += 1
    return tokens, i


def load_pgm(path):
    """Read a P5 (binary) or P2 (ASCII) PGM file into a uint8 array.

    Raises MissingFileError if ``path`` does not exist, MalformedHeaderError,
    TruncatedPixelDataError or UnsupportedMaxvalError, and any other OSError
    of the open or read, such as IsADirectoryError; never a partial image.
    """
    with open_input(path, "rb") as fh:
        data = fh.read()

    tokens, offset = _tokenize_header(data, 4)
    magic = tokens[0]
    if magic not in (b"P2", b"P5"):
        raise MalformedHeaderError(f"bad magic {magic!r}, expected P2 or P5")
    try:
        width, height, maxval = (int(t) for t in tokens[1:4])
    except ValueError:
        raise MalformedHeaderError(f"non-numeric header fields {tokens[1:4]}")
    if width < 1 or height < 1:
        raise MalformedHeaderError(f"bad dimensions {width}x{height}")
    if maxval > 255 or maxval < 1:
        raise UnsupportedMaxvalError(f"maxval {maxval} outside [1, 255]")

    n_pixels = height * width
    if magic == b"P5":
        body = data[offset : offset + n_pixels]
        if len(body) < n_pixels:
            raise TruncatedPixelDataError(
                f"need {n_pixels} bytes, found {len(body)}"
            )
        pixels = np.frombuffer(body, dtype=np.uint8, count=n_pixels)
        if maxval < 255 and pixels.max() > maxval:
            raise TruncatedPixelDataError("pixel sample outside [0, maxval]")
    else:
        values = data[offset:].split()
        if len(values) < n_pixels:
            raise TruncatedPixelDataError(
                f"need {n_pixels} samples, found {len(values)}"
            )
        try:
            pixels = np.array(
                [int(v) for v in values[:n_pixels]], dtype=np.int64
            )
        except ValueError:
            raise TruncatedPixelDataError("non-numeric pixel sample")
        except OverflowError:  # beyond int64, so beyond maxval
            raise TruncatedPixelDataError("pixel sample outside [0, maxval]")
        if pixels.min() < 0 or pixels.max() > maxval:
            raise TruncatedPixelDataError("pixel sample outside [0, maxval]")
        pixels = pixels.astype(np.uint8)
    return pixels.reshape(height, width)


def check_dims(img, expected_h, expected_w):
    """Assert the pipeline's fixed input size; returns the image unchanged."""
    h, w = img.shape
    if (h, w) != (expected_h, expected_w):
        raise DimensionMismatchError((h, w), (expected_h, expected_w))
    return img
