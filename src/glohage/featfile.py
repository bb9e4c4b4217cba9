"""GFV1 feature file format.

Binary layout: 4-byte ASCII magic "GFV1", uint32-LE row count N, uint32-LE
dimension K, then N*K float32-LE values, row-major. Row order matches the
manifest order used at extraction time.
"""

import os
import struct

import numpy as np

from .errors import (
    MalformedHeaderError,
    MissingFileError,
    TrailingDataError,
    TruncatedPixelDataError,
)

MAGIC = b"GFV1"


def write_features(path, rows):
    """Write an (N, K) float array as a GFV1 file."""
    arr = np.ascontiguousarray(rows, dtype="<f4")
    if arr.ndim != 2:
        raise ValueError(f"expected 2-D array, got shape {arr.shape}")
    n, k = arr.shape
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", n, k))
        arr.tofile(fh)


def read_features(path):
    """Read a GFV1 file into an (N, K) float32 array.

    The body is read straight into the array; a file shorter or longer
    than its header declares is rejected.
    """
    try:
        fh = open(path, "rb")
    except FileNotFoundError:
        raise MissingFileError(f"no such file: {path}")
    with fh:
        header = fh.read(12)
        if len(header) < 12 or header[:4] != MAGIC:
            raise MalformedHeaderError(f"not a GFV1 file: {path}")
        n, k = struct.unpack("<II", header[4:])
        need = 12 + 4 * n * k
        size = os.fstat(fh.fileno()).st_size
        if size < need:
            raise TruncatedPixelDataError(
                f"GFV1 body too short: need {need} bytes, found {size}"
            )
        if size > need:
            raise TrailingDataError(
                f"GFV1 file has {size - need} bytes after its {n}x{k} body"
            )
        return np.fromfile(fh, dtype="<f4", count=n * k).reshape(n, k)
