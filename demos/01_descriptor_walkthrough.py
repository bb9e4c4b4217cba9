"""Walk through dense GLOH extraction on a synthetic face-sized image.

Shows the gradient field, the log-polar patch layout and the structure of
the concatenated feature vector.
"""

import numpy as np

from glohage import gloh

rng = np.random.default_rng(0)

# a 68x62 "face": smooth blobs plus noise, like a heavily blurred portrait
yy, xx = np.mgrid[0:68, 0:62]
img = (
    120
    + 60 * np.exp(-((yy - 25) ** 2 + (xx - 20) ** 2) / 200)
    + 60 * np.exp(-((yy - 25) ** 2 + (xx - 42) ** 2) / 200)
    + 40 * np.exp(-((yy - 50) ** 2 + (xx - 31) ** 2) / 300)
    + rng.normal(0, 6, (68, 62))
)
img = np.clip(img, 0, 255).astype(np.uint8)

magnitude, orientation = gloh.compute_gradients(img)
print(f"image {img.shape}, gradient magnitude range "
      f"[{magnitude.min():.2f}, {magnitude.max():.2f}]")

params = gloh.GlohParams()
origins = gloh.patch_grid(*img.shape, params)
print(f"patch grid: {len(origins)} patches of {params.patch_size}x"
      f"{params.patch_size}, stride {params.stride}")
print(f"per-patch histogram: {params.n_spatial} spatial cells "
      f"(1 disc + 2 rings of {params.n_sectors}) x {params.n_orient} "
      f"orientations = {params.per_patch_dim} bins")

# the full feature vector: one normalized histogram block per patch
v = gloh.extract_gloh(img, params)
blocks = v.reshape(len(origins), params.per_patch_dim)
norms = np.linalg.norm(blocks, axis=1)

# one patch in detail
d = blocks[100]
print(f"\npatch #100 at {origins[100]}: norm {np.linalg.norm(d):.6f}, "
      f"{np.count_nonzero(d)} nonzero bins")

print(f"\nfull feature vector: {v.shape[0]} dims, "
      f"{np.count_nonzero(norms)} non-flat patches")
print("strongest bins (patch, bin):")
for flat in np.argsort(v)[-5:][::-1]:
    print(f"  patch {flat // 136:3d} bin {flat % 136:3d}  value {v[flat]:.4f}")
