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
from dataclasses import dataclass

import numpy as np

from .errors import ImageTooSmallError

TWO_PI = 2.0 * np.pi


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
    """Per-pixel gradient magnitude and orientation.

    Central differences on interior pixels, one-sided at the borders
    (``np.gradient``). Returns (magnitude, orientation) float64 arrays;
    orientation is the angle of (gx, gy) in [0, 2pi).
    """
    gy, gx = np.gradient(np.asarray(img, dtype=np.float64))
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
    """Concatenated GLOH feature vector for a whole image.

    The patch layout is computed once per (image shape, params) and cached;
    each image then makes one gather and one bincount. Each patch histogram
    is L2 normalized, clipped at ``clip_threshold`` and renormalized; an
    all-zero patch stays zero. The features are bit-identical to the
    earlier sliding-window extractor, kept in the tests as an oracle. No
    dimensionality reduction is applied.
    """
    img = np.asarray(img)
    h, w = img.shape
    pixel, cell, size = _layout(h, w, params)
    magnitude, orientation = compute_gradients(img)
    obin = _orientation_bins(orientation, params.n_orient).ravel()
    weights = magnitude.ravel()[pixel]
    hist = np.bincount(cell + obin[pixel], weights=weights, minlength=size)
    blocks = hist.reshape(-1, params.per_patch_dim)
    _normalize_rows(blocks)
    if params.clip_threshold is not None:
        np.minimum(blocks, params.clip_threshold, out=blocks)
        _normalize_rows(blocks)
    return hist


def _normalize_rows(blocks):
    """Divide rows in place by np.linalg.norm's sums; rows of norm 0 by 1.0."""
    norms = np.sqrt(np.add.reduce(blocks * blocks, axis=1))
    norms[~(norms > 0)] = 1.0
    blocks /= norms[:, None]
