"""GFV1 feature file format.

Binary layout: 4-byte ASCII magic "GFV1", uint32-LE row count N, uint32-LE
dimension K, then N*K float32-LE values, row-major. Row order matches the
manifest order used at extraction time.

``write_features`` is the one writer of a GFV1 file. It streams blocks
of rows into a new temporary file beside the target, so the writer never
holds more than one block, and renames it onto the target only after the
last row: an error leaves no partial output and an existing target as it
was. A whole array goes in as one block, ``[rows]``.

``FeatureFile`` is the one reader of a GFV1 body. It reads on demand: a
gather of rows, or of (rows, bins), goes straight from the file, so a
caller that needs only some rows or bins never holds the whole matrix.
``read_features`` is its gather of every row, one read of the body.
"""

import errno
import itertools
import os
import struct

import numpy as np

from .errors import (
    MalformedHeaderError,
    TrailingDataError,
    TruncatedPixelDataError,
    open_input,
)

MAGIC = b"GFV1"
HEADER_BYTES = 12
BLOCK_BYTES = 1 << 19  # most bytes of whole rows a (rows, bins) gather holds


def write_features(path, blocks):
    """Write the rows of ``blocks``, 2-D float arrays of one width K taken
    one at a time, as a GFV1 file at ``path``; returns (N, K).

    The rows go, as float32, to a new file in the target's directory,
    created with the permissions any new file gets, and the header goes in
    last. The file is renamed onto the target (a symlink's target, if it
    is one) after the last row. Any error, from the file or from
    ``blocks``, removes it and leaves the target untouched. A target that
    cannot be written fails before the first block is taken.
    """
    target = os.path.realpath(path)
    if os.path.isdir(target):  # os.replace would refuse it after the last row
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), target)
    tmp, fh = _create_beside(target)
    try:
        with fh:
            fh.write(bytes(HEADER_BYTES))
            n = k = 0
            for i, block in enumerate(blocks):
                arr = np.ascontiguousarray(block, dtype="<f4")
                if arr.ndim != 2 or (i and arr.shape[1] != k):
                    raise ValueError(
                        f"expected 2-D rows of one width, got shape {arr.shape}"
                    )
                n, k = n + arr.shape[0], arr.shape[1]
                fh.write(arr)
            fh.seek(0)
            fh.write(MAGIC + struct.pack("<II", n, k))
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise
    return n, k


def _create_beside(target):
    """A new, hidden file in ``target``'s directory: (its path, its binary
    handle). ``open(..., "xb")`` never reuses a name and keeps the umask's
    permissions."""
    head, name = os.path.split(target)
    for i in itertools.count():
        tmp = os.path.join(head, f".{name}.{os.getpid()}-{i}.part")
        try:
            return tmp, open(tmp, "xb")
        except FileExistsError:
            continue
        except OSError as exc:  # name the file asked for, not the hidden one
            raise type(exc)(exc.errno, exc.strerror, target) from None


def _open(path):
    """Open a GFV1 file whose size matches its header; returns (file, N, K),
    the file positioned at the body. A missing file is MissingFileError."""
    fh = open_input(path, "rb")
    try:
        header = fh.read(HEADER_BYTES)
        if len(header) < HEADER_BYTES or header[:4] != MAGIC:
            raise MalformedHeaderError(f"not a GFV1 file: {path}")
        n, k = struct.unpack("<II", header[4:])
        need = HEADER_BYTES + 4 * n * k
        size = os.fstat(fh.fileno()).st_size
        if size < need:
            raise TruncatedPixelDataError(
                f"GFV1 body too short: need {need} bytes, found {size}"
            )
        if size > need:
            raise TrailingDataError(
                f"GFV1 file has {size - need} bytes after its {n}x{k} body"
            )
    except BaseException:
        fh.close()
        raise
    return fh, n, k


def read_features(path):
    """Read a GFV1 file into an (N, K) float32 array: every row of a
    ``FeatureFile``, so it raises the same typed errors."""
    f = FeatureFile(path)
    return f[np.arange(f.shape[0])]


class FeatureFile:
    """A GFV1 file read on demand, for callers that need some rows or bins.

    ``f[rows]`` reads the rows, in the given order and repeats included,
    into one new (len(rows), K) float32 array, with one read per run of
    consecutive rows. ``f[np.ix_(rows, bins)]`` reads the rows a block of
    at most BLOCK_BYTES at a time and keeps only the bins. Rows must lie
    in [0, N), so a read never leaves the body; bins index as in numpy.
    The header and size are checked when the reader is made and again at
    every read, and a read that ends short raises TruncatedPixelDataError,
    so a file changed in between raises a typed error instead of
    returning other bytes.
    """

    def __init__(self, path):
        self.path = path
        fh, n, k = _open(path)
        fh.close()
        self.shape = (n, k)

    def __getitem__(self, key):
        if not isinstance(key, tuple):
            rows = self._row_index(key)
            out = np.empty((len(rows), self.shape[1]), dtype="<f4")
            with self._reopen() as fh:
                self._read(fh, rows, out)
            return out
        # np.ix_ gives a (rows, 1) and a (1, bins) array
        if len(key) != 2 or np.shape(key[0])[1:] != (1,) or np.shape(key[1])[:-1] != (1,):
            raise IndexError("a FeatureFile takes f[rows] or f[np.ix_(rows, bins)]")
        rows = self._row_index(np.asarray(key[0])[:, 0])
        bins = np.arange(self.shape[1])[np.asarray(key[1])[0]]  # numpy's bin checks
        out = np.empty((len(rows), len(bins)), dtype="<f4")
        step = max(1, BLOCK_BYTES // (4 * self.shape[1] or 1))
        block = np.empty((min(step, len(rows)), self.shape[1]), dtype="<f4")
        with self._reopen() as fh:
            for a in range(0, len(rows), step):
                part = rows[a : a + step]
                self._read(fh, part, block)
                out[a : a + len(part)] = block[: len(part), bins]
        return out

    def _row_index(self, rows):
        idx = np.asarray(rows)
        if idx.ndim != 1 or (idx.size and idx.dtype.kind not in "iu"):
            raise IndexError("rows must be a 1-D sequence of integers")
        idx = idx.astype(np.intp)
        if idx.size and (idx.min() < 0 or idx.max() >= self.shape[0]):
            raise IndexError(f"row index out of range [0, {self.shape[0]})")
        return idx

    def _reopen(self):
        fh, n, k = _open(self.path)
        if (n, k) != self.shape:
            fh.close()
            raise MalformedHeaderError(
                f"{self.path}: now {n}x{k}, was {self.shape[0]}x{self.shape[1]}"
            )
        return fh

    def _read(self, fh, rows, out):
        """Read ``rows`` into out[:len(rows)], one read per run of consecutive rows."""
        if not len(rows):
            return
        row_bytes = 4 * self.shape[1]
        cuts = (np.flatnonzero(np.diff(rows) != 1) + 1).tolist()
        for a, b in zip([0, *cuts], [*cuts, len(rows)]):
            fh.seek(HEADER_BYTES + int(rows[a]) * row_bytes)
            if fh.readinto(out[a:b]) != (b - a) * row_bytes:
                raise TruncatedPixelDataError(f"{self.path}: body ended mid-read")
