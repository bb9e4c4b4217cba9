"""A PGM writer for test fixtures, with numpy alone.

The package only reads PGM images; the tests make theirs with
``write_pgm``, which ``pgm.load_pgm`` reads back exactly.
"""

import numpy as np


def write_pgm(img, path):
    """Write a 2-D uint8 image as binary P5 (the header gives width first)."""
    img = np.asarray(img)
    if img.dtype != np.uint8 or img.ndim != 2:
        raise TypeError(f"expected a 2-D uint8 image, got {img.dtype} {img.shape}")
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (w, h) + img.tobytes())
