"""Dense GLOH feature extraction.

A face image is covered by overlapping square patches on a regular grid.
Each patch gets a log-polar gradient-orientation histogram: a central disc
plus two angular rings of sectors, each cell holding an orientation
histogram weighted by gradient magnitude. Patch histograms are L2
normalized (with optional clipping) and concatenated into one long
feature vector. At the default parameters a 68x62 image gives
20*18 = 360 patches of 136 bins each, 48960 features total.
"""

import functools
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ImageTooSmallError

TWO_PI = 2.0 * np.pi
# per-thread buffers, reused from call to call: extract_gloh keeps its
# signature, and no thread sees another's buffers
_per_thread = threading.local()


@dataclass(frozen=True)
class GlohParams:
    """Descriptor geometry and normalization settings."""

    patch_size: int = 10
    stride: int = 3
    radii: tuple = (2.0, 3.0, 5.0)
    n_sectors: int = 8
    n_orient: int = 8
    clip_threshold: float | None = 0.2

    def __post_init__(self):
        for name in ("patch_size", "stride", "n_sectors", "n_orient"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        r = tuple(float(x) for x in self.radii)
        object.__setattr__(self, "radii", r)
        if len(r) != 3 or any(x <= 0 for x in r) or not (r[0] < r[1] < r[2]):
            raise ValueError(f"radii must be 3 ascending positive values, got {r}")
        if r[2] > self.patch_size / 2 + 1:
            raise ValueError("outer radius exceeds patch support")
        if self.clip_threshold is not None and not (0 < self.clip_threshold <= 1):
            raise ValueError("clip_threshold must lie in (0, 1]")

    @property
    def n_spatial(self):
        # central disc + two rings of sectors
        return 1 + 2 * self.n_sectors

    @property
    def per_patch_dim(self):
        return self.n_spatial * self.n_orient


def compute_gradients(img):
    """Per-pixel gradient magnitude and orientation of an image, or of each
    image of a stack.

    Central differences on interior pixels, one-sided at the borders
    (``np.gradient`` over the last two axes). Returns (magnitude,
    orientation) float64 arrays; orientation is the angle of (gx, gy) in
    [0, 2pi).
    """
    gy, gx = np.gradient(np.asarray(img, dtype=np.float64), axis=(-2, -1))
    magnitude = np.hypot(gx, gy)
    # np.mod(angle, 2pi) bit for bit, -0.0 included; a rounded 2pi wraps to 0
    angle = np.arctan2(gy, gx)
    orientation = angle + TWO_PI * (angle < 0)
    orientation[orientation >= TWO_PI] = 0.0
    return magnitude, orientation


def patch_grid(height, width, params=GlohParams()):
    """Top-left (row, col) origins of all patches, row-major order."""
    p, s = params.patch_size, params.stride
    if height < p or width < p:
        raise ImageTooSmallError(
            f"image {height}x{width} smaller than patch size {p}"
        )
    rows = range(0, height - p + 1, s)
    cols = range(0, width - p + 1, s)
    return [(r, c) for r in rows for c in cols]


def _spatial_bin_map(params):
    """Spatial bin index for every pixel offset inside a patch.

    Shape (patch_size, patch_size), values in [0, n_spatial) or -1 for
    pixels outside the outer radius; shared by every patch.
    """
    p = params.patch_size
    dr, dc = np.mgrid[0:p, 0:p] - (p - 1) / 2.0
    rho = np.hypot(dr, dc)
    # spatial angle measured counterclockwise with the row axis pointing down
    phi = np.mod(np.arctan2(-dr, dc), TWO_PI)
    sector = np.minimum(
        (phi / (TWO_PI / params.n_sectors)).astype(np.int64), params.n_sectors - 1
    )
    r0, r1, r2 = params.radii
    sbin = np.where(rho <= r1, 1 + sector, 1 + params.n_sectors + sector)
    sbin[rho <= r0] = 0
    sbin[rho > r2] = -1
    return sbin


def _orientation_bins(orientation, n_orient):
    return np.minimum(
        (orientation / (TWO_PI / n_orient)).astype(np.int64), n_orient - 1
    )


@functools.lru_cache(maxsize=8)
def _layout(height, width, params):
    """Read-only (pixel, cell) arrays and the feature length for one shape.

    Per in-radius pixel of each patch, in patch then row-major order: its
    flat image index and its cell ``patch * per_patch_dim + sbin * n_orient``.
    """
    origins = np.array(patch_grid(height, width, params))
    sbin = _spatial_bin_map(params)
    rr, cc = np.nonzero(sbin >= 0)
    pixel = ((origins[:, :1] + rr) * width + origins[:, 1:] + cc).ravel()
    size = len(origins) * params.per_patch_dim
    offsets = np.arange(0, size, params.per_patch_dim)[:, None]
    cell = (offsets + sbin[rr, cc] * params.n_orient).ravel()
    pixel.flags.writeable = cell.flags.writeable = False
    return pixel, cell, size


def extract_gloh(img, params=GlohParams()):
    """Concatenated GLOH feature vector for a whole image, or for each image
    of a stack.

    ``img`` is one (H, W) image, which gives a (K,) vector, or an (M, H, W)
    stack of images, which gives an (M, K) array. Every step works per
    pixel, per patch or per histogram bin, so each row has the bits its
    image gives on its own; a stack only makes fewer, larger numpy calls.
    The patch layout is computed once per (image shape, params) and cached;
    each call then makes one gather and one bincount. Each patch histogram
    is L2 normalized, clipped at ``clip_threshold`` and renormalized; an
    all-zero patch stays zero. The features are bit-identical to the
    earlier sliding-window extractor, kept in the tests as an oracle. No
    dimensionality reduction is applied.

    Safe to call from several threads at once: the gathers and squares go
    into buffers each thread keeps for its next call of the same size, so
    only the returned histograms are a new large array.
    """
    img = np.asarray(img)
    m, h, w = img.reshape(-1, *img.shape[-2:]).shape
    pixel, cell, size = _layout(h, w, params)
    index, weights, squares = _buffers(m * pixel.size, m * size)
    index, weights = index.reshape(m, -1), weights.reshape(m, -1)
    magnitude, orientation = compute_gradients(img)
    obin = _orientation_bins(orientation, params.n_orient).reshape(m, -1)
    # mode="clip" takes straight into ``out``; every pixel index is in range
    np.take(obin, pixel, axis=1, out=index, mode="clip")
    index += cell
    index += np.arange(0, m * size, size)[:, None]  # each image its own bins
    np.take(magnitude.reshape(m, -1), pixel, axis=1, out=weights, mode="clip")
    hist = np.bincount(index.ravel(), weights=weights.ravel(), minlength=m * size)
    blocks = hist.reshape(-1, params.per_patch_dim)
    squares = squares.reshape(blocks.shape)
    _normalize_rows(blocks, squares)
    if params.clip_threshold is not None:
        np.minimum(blocks, params.clip_threshold, out=blocks)
        _normalize_rows(blocks, squares)
    return hist.reshape(*img.shape[:-2], size)


def _buffers(n_pixels, size):
    """This thread's (index, weight, square) buffers for one call, made
    anew only when the sizes change."""
    bufs = getattr(_per_thread, "bufs", None)
    if bufs is None or bufs[0].size != n_pixels or bufs[2].size != size:
        bufs = _per_thread.bufs = (
            np.empty(n_pixels, dtype=np.intp), np.empty(n_pixels), np.empty(size)
        )
    return bufs


def _normalize_rows(blocks, squares):
    """Divide rows in place by np.linalg.norm's sums; rows of norm 0 by 1.0.
    ``squares`` is a work array of the same shape."""
    np.multiply(blocks, blocks, out=squares)
    norms = np.sqrt(np.add.reduce(squares, axis=1))
    norms[~(norms > 0)] = 1.0
    blocks /= norms[:, None]
