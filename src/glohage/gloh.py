"""Dense GLOH feature extraction.

A face image is covered by overlapping square patches on a regular grid.
Each patch gets a log-polar gradient-orientation histogram: a central disc
plus two angular rings of sectors, each cell holding an orientation
histogram weighted by gradient magnitude. Patch histograms are L2
normalized (with optional clipping) and concatenated into one long
feature vector. At the default parameters a 68x62 image gives
20*18 = 360 patches of 136 bins each, 48960 features total.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

    Central differences on interior pixels, one-sided at the borders.
    Returns (magnitude, orientation) float64 arrays; orientation is the
    angle of (gx, gy) in [0, 2pi).
    """
    I = np.asarray(img, dtype=np.float64)
    gx = np.empty_like(I)
    gy = np.empty_like(I)
    gx[:, 1:-1] = (I[:, 2:] - I[:, :-2]) / 2.0
    gx[:, 0] = I[:, 1] - I[:, 0]
    gx[:, -1] = I[:, -1] - I[:, -2]
    gy[1:-1, :] = (I[2:, :] - I[:-2, :]) / 2.0
    gy[0, :] = I[1, :] - I[0, :]
    gy[-1, :] = I[-1, :] - I[-2, :]
    magnitude = np.hypot(gx, gy)
    orientation = np.mod(np.arctan2(gy, gx), TWO_PI)
    # arctan2 can return exactly 2*pi after the mod for tiny negative angles
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
    pixels outside the outer radius. Depends only on the params, so it is
    shared by every patch.
    """
    p = params.patch_size
    center = (p - 1) / 2.0
    rr, cc = np.mgrid[0:p, 0:p]
    dr = rr - center
    dc = cc - center
    rho = np.hypot(dr, dc)
    # spatial angle measured counterclockwise with the row axis pointing down
    phi = np.mod(np.arctan2(-dr, dc), TWO_PI)
    sector = np.minimum(
        (phi / (TWO_PI / params.n_sectors)).astype(np.int64), params.n_sectors - 1
    )
    r0, r1, r2 = params.radii
    sbin = np.full((p, p), -1, dtype=np.int64)
    sbin[rho <= r0] = 0
    ring1 = (rho > r0) & (rho <= r1)
    sbin[ring1] = 1 + sector[ring1]
    ring2 = (rho > r1) & (rho <= r2)
    sbin[ring2] = 1 + params.n_sectors + sector[ring2]
    return sbin


def _orientation_bins(orientation, n_orient):
    return np.minimum(
        (orientation / (TWO_PI / n_orient)).astype(np.int64), n_orient - 1
    )


def extract_gloh(img, params=GlohParams()):
    """Concatenated GLOH feature vector for a whole image.

    Vectorized over patches; each patch histogram is L2 normalized,
    clipped at ``clip_threshold`` and renormalized, and an all-zero patch
    stays zero. The tests compare it with a per-patch reference. No
    dimensionality reduction is applied.
    """
    img = np.asarray(img)
    h, w = img.shape
    origins = patch_grid(h, w, params)
    n_patches = len(origins)
    p, s = params.patch_size, params.stride
    d = params.per_patch_dim

    magnitude, orientation = compute_gradients(img)
    obin = _orientation_bins(orientation, params.n_orient)
    sbin = _spatial_bin_map(params)

    # windows over the dense grid: (n_rows, n_cols, p, p)
    mag_w = sliding_window_view(magnitude, (p, p))[::s, ::s]
    obin_w = sliding_window_view(obin, (p, p))[::s, ::s]
    mag_w = mag_w.reshape(n_patches, p, p)
    obin_w = obin_w.reshape(n_patches, p, p)

    # one flat bincount over (patch, spatial bin, orientation bin); pixels
    # outside the outer radius go to a trash slot that is dropped after
    cell = np.where(sbin >= 0, sbin * params.n_orient, 0)
    flat_idx = obin_w + cell[None, :, :]
    flat_idx = flat_idx + (np.arange(n_patches) * d)[:, None, None]
    trash = n_patches * d
    flat_idx = np.where(sbin[None, :, :] >= 0, flat_idx, trash)
    hist = np.bincount(
        flat_idx.ravel(), weights=mag_w.ravel(), minlength=trash + 1
    )[:trash]
    blocks = hist.reshape(n_patches, d)

    norms = np.linalg.norm(blocks, axis=1)
    nz = norms > 0
    blocks[nz] /= norms[nz, None]
    if params.clip_threshold is not None:
        np.minimum(blocks, params.clip_threshold, out=blocks)
        norms = np.linalg.norm(blocks, axis=1)
        blocks[nz] /= norms[nz, None]
    return blocks.ravel()
