import sys
import threading

import numpy as np
import pytest

from glohage import gloh
from glohage.errors import ImageTooSmallError
from glohage.gloh import GlohParams

import oracles
from oracles import NegativeEntryError, PatchOutOfBoundsError

DEFAULTS = GlohParams()

GEOMETRIES = [
    DEFAULTS,
    GlohParams(stride=2),
    GlohParams(n_sectors=4, n_orient=4),
    GlohParams(clip_threshold=None),
    GlohParams(clip_threshold=1.0),
    GlohParams(patch_size=12, radii=(2.5, 4, 6)),
]
# the first shape comes back last, after the cache has seen the others
SHAPES = [(68, 62), (10, 10), (31, 25), (13, 40), (68, 62)]


def rand_image(shape, seed=0):
    return np.random.default_rng(seed).integers(0, 256, size=shape).astype(np.uint8)


def bit_images(shape):
    """Inputs for the bitwise checks, by name."""
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    rows, cols = np.mgrid[0 : shape[0], 0 : shape[1]]
    return {
        "uint8": rng.integers(0, 256, size=shape).astype(np.uint8),
        "float64": rng.normal(0.0, 50.0, size=shape),
        "constant": np.full(shape, 9, dtype=np.uint8),
        "negative zero": np.full(shape, -0.0),
        # -0.0 minus +0.0 down column 0 against a positive gx there: angles
        # of -0.0, which the wrap turns into +0.0
        "signed zeros": np.where(
            cols == 0, np.where(rows % 4 >= 2, -0.0, 0.0), cols.astype(float)
        ),
        # gy ~ -1e-300 against gx ~ 1e-284: angles of about -1e-16, which
        # round to exactly 2*pi once wrapped
        "tiny angles": cols * 1e-284 - rows * 1e-300,
    }


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


class TestGradients:
    def test_constant_image_zero_magnitude(self):
        mag, _ = gloh.compute_gradients(np.full((12, 12), 77, dtype=np.uint8))
        assert np.all(mag == 0)

    def test_horizontal_ramp(self):
        img = np.tile(np.arange(20, dtype=np.uint8), (15, 1))
        mag, ori = gloh.compute_gradients(img)
        assert np.allclose(mag[1:-1, 1:-1], 1.0)
        assert np.allclose(ori[1:-1, 1:-1], 0.0)

    def test_rotated_image_shifts_orientation(self):
        # rotating pixels clockwise in array terms turns gradients by +pi/2
        img = rand_image((12, 12), seed=5)
        rot = np.rot90(img, -1)
        m0, o0 = gloh.compute_gradients(img)
        m1, o1 = gloh.compute_gradients(rot)
        h, w = img.shape
        for r in range(1, h - 1):
            for c in range(1, w - 1):
                i, j = c, h - 1 - r
                if 1 <= i < rot.shape[0] - 1 and 1 <= j < rot.shape[1] - 1:
                    assert m1[i, j] == pytest.approx(m0[r, c], abs=1e-12)
                    if m0[r, c] > 0:
                        shift = (o1[i, j] - o0[r, c]) % (2 * np.pi)
                        assert shift == pytest.approx(np.pi / 2, abs=1e-9)

    @pytest.mark.parametrize("shape", SHAPES[:-1])
    def test_orientation_bits_match_mod(self, shape):
        for name, img in bit_images(shape).items():
            m0, o0 = oracles.compute_gradients_mod(img)
            m1, o1 = gloh.compute_gradients(img)
            assert same_bits(m1, m0), name
            assert same_bits(o1, o0), name
            assert np.all((o1 >= 0) & (o1 < 2 * np.pi)), name


class TestPatchGrid:
    def test_default_face_grid(self):
        origins = gloh.patch_grid(68, 62, DEFAULTS)
        assert len(origins) == 360
        assert origins[0] == (0, 0)
        assert origins[-1] == (57, 51)

    def test_single_patch(self):
        assert gloh.patch_grid(10, 10, DEFAULTS) == [(0, 0)]

    def test_too_small(self):
        with pytest.raises(ImageTooSmallError):
            gloh.patch_grid(9, 62, DEFAULTS)


class TestPatchDescriptor:
    def test_zero_field(self):
        mag = np.zeros((10, 10))
        ori = np.zeros((10, 10))
        d = oracles.patch_descriptor(mag, ori, (0, 0), DEFAULTS)
        assert d.shape == (136,)
        assert np.all(d == 0)

    def test_single_center_pixel(self):
        mag = np.zeros((10, 10))
        ori = np.zeros((10, 10))
        mag[4, 4] = 1.0  # within the central disc of the (4.5, 4.5) center
        ori[4, 4] = 0.1
        d = oracles.patch_descriptor(mag, ori, (0, 0), DEFAULTS)
        assert d[0] == pytest.approx(1.0)
        assert np.count_nonzero(d) == 1

    def test_orientation_rotation_permutes_bins(self):
        rng = np.random.default_rng(3)
        mag = rng.uniform(0, 1, (10, 10))
        ori = rng.uniform(0, 2 * np.pi, (10, 10))
        step = 2 * np.pi / DEFAULTS.n_orient
        # snap orientations to bin centers so the cyclic shift is exact
        ori = (np.floor(ori / step) + 0.5) * step
        d0 = oracles.patch_descriptor(mag, ori, (0, 0), DEFAULTS)
        d1 = oracles.patch_descriptor(mag, (ori + step) % (2 * np.pi), (0, 0), DEFAULTS)
        rolled = d0.reshape(17, 8)
        rolled = np.roll(rolled, 1, axis=1).ravel()
        assert np.allclose(d1, rolled, atol=1e-12)

    def test_out_of_bounds(self):
        mag = np.zeros((12, 12))
        with pytest.raises(PatchOutOfBoundsError):
            oracles.patch_descriptor(mag, mag, (5, 0), DEFAULTS)


class TestNormalize:
    def test_plain_l2(self):
        v = np.zeros(136)
        v[0], v[1] = 3.0, 4.0
        out = oracles.normalize_descriptor(v, None)
        assert out[0] == pytest.approx(0.6)
        assert out[1] == pytest.approx(0.8)

    def test_zero_vector_passthrough(self):
        v = np.zeros(10)
        assert np.all(oracles.normalize_descriptor(v, 0.2) == 0)

    def test_single_support_fixed_point(self):
        v = np.zeros(136)
        v[0] = 1.0
        out = oracles.normalize_descriptor(v, 0.2)
        assert out[0] == pytest.approx(1.0)
        assert np.all(out[1:] == 0)

    def test_negative_entry_rejected(self):
        with pytest.raises(NegativeEntryError):
            oracles.normalize_descriptor(np.array([1.0, -0.5]), 0.2)


class TestExtract:
    def test_face_dimensions(self):
        v = gloh.extract_gloh(rand_image((68, 62)), DEFAULTS)
        assert v.shape == (48960,)

    def test_single_patch_dimension(self):
        v = gloh.extract_gloh(rand_image((10, 10)), DEFAULTS)
        assert v.shape == (136,)

    def test_constant_image_all_zero(self):
        v = gloh.extract_gloh(np.full((68, 62), 9, dtype=np.uint8), DEFAULTS)
        assert np.all(v == 0)

    def test_matches_per_patch_reference(self):
        img = rand_image((31, 25), seed=2)
        mag, ori = gloh.compute_gradients(img)
        ref = np.concatenate(
            [
                oracles.patch_descriptor(mag, ori, o, DEFAULTS)
                for o in gloh.patch_grid(*img.shape, DEFAULTS)
            ]
        )
        assert np.allclose(gloh.extract_gloh(img, DEFAULTS), ref, atol=1e-12)

    def test_block_norms_zero_or_one(self):
        v = gloh.extract_gloh(rand_image((68, 62), seed=4), DEFAULTS)
        norms = np.linalg.norm(v.reshape(-1, 136), axis=1)
        assert np.all((np.abs(norms - 1) < 1e-9) | (norms == 0))

    def test_intensity_shift_invariance(self):
        img = rand_image((30, 28), seed=6) // 2  # headroom for the shift
        v0 = gloh.extract_gloh(img, DEFAULTS)
        v1 = gloh.extract_gloh(img + 40, DEFAULTS)
        assert np.array_equal(v0, v1)

    def test_intensity_scale_invariance(self):
        img = rand_image((30, 28), seed=7) // 4
        v0 = gloh.extract_gloh(img.astype(np.float64), DEFAULTS)
        v1 = gloh.extract_gloh(img.astype(np.float64) * 3.0, DEFAULTS)
        assert np.allclose(v0, v1, atol=1e-6)

    def test_locality(self):
        img = rand_image((30, 28), seed=8)
        v0 = gloh.extract_gloh(img, DEFAULTS)
        r, c = 15, 13
        img2 = img.copy()
        img2[r, c] = (int(img[r, c]) + 128) % 256
        v1 = gloh.extract_gloh(img2, DEFAULTS)
        changed = np.flatnonzero(
            np.any((v0 != v1).reshape(-1, 136), axis=1)
        )
        origins = gloh.patch_grid(*img.shape, DEFAULTS)
        p = DEFAULTS.patch_size
        for b in changed:
            orow, ocol = origins[b]
            # the edited pixel or one of its gradient neighbors is inside
            assert orow - 1 <= r <= orow + p and ocol - 1 <= c <= ocol + p

    @pytest.mark.parametrize("params", GEOMETRIES)
    def test_bits_match_sliding_windows(self, params):
        for shape in SHAPES:
            if min(shape) < params.patch_size:
                with pytest.raises(ImageTooSmallError):
                    gloh.extract_gloh(np.zeros(shape), params)
                continue
            for name, img in bit_images(shape).items():
                v = gloh.extract_gloh(img, params)
                ref = oracles.extract_gloh_windows(img, params)
                assert same_bits(v, ref), (shape, name)

    @pytest.mark.parametrize("params", GEOMETRIES)
    def test_a_stack_has_each_image_s_bits(self, params):
        for shape in SHAPES[:4]:
            if min(shape) < params.patch_size:
                continue
            images = list(bit_images(shape).values())
            rows = gloh.extract_gloh(np.stack(images), params)
            assert rows.shape[0] == len(images)
            for row, img in zip(rows, images):
                assert same_bits(row, gloh.extract_gloh(img, params)), shape
            mag, ori = gloh.compute_gradients(np.stack(images))
            for i, img in enumerate(images):
                m, o = gloh.compute_gradients(img)
                assert same_bits(mag[i], m) and same_bits(ori[i], o), shape

    def test_layout_is_cached_read_only(self):
        a = gloh._layout(31, 25, DEFAULTS)
        assert gloh._layout(31, 25, GlohParams()) is a
        assert gloh._layout(25, 31, DEFAULTS) is not a
        assert gloh._layout(31, 25, GlohParams(stride=2)) is not a
        for arr in a[:2]:
            with pytest.raises(ValueError):
                arr[0] = 0

    def test_length_invariant_random_shapes(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            h = int(rng.integers(10, 40))
            w = int(rng.integers(10, 40))
            v = gloh.extract_gloh(rand_image((h, w), seed=int(rng.integers(1e6))))
            expected = len(gloh.patch_grid(h, w, DEFAULTS)) * 136
            assert v.shape == (expected,)


def test_threads_keep_their_own_buffers():
    # more threads than cores, switching often: every vector keeps the
    # bits of a one-thread extraction, which a buffer shared between
    # threads would break; the last images have another shape, so each
    # thread makes its buffers again
    images = [rand_image(SHAPES[i // 80], seed=i) for i in range(88)]
    want = [gloh.extract_gloh(img) for img in images]
    got = [None] * len(images)

    def work(start):
        for i in range(start, len(images), 4):
            got[i] = gloh.extract_gloh(images[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(g is not None and same_bits(g, w) for g, w in zip(got, want))


def test_params_validation():
    with pytest.raises(ValueError):
        GlohParams(radii=(3.0, 2.0, 5.0))
    with pytest.raises(ValueError):
        GlohParams(radii=(2.0, 3.0, 9.0))
    with pytest.raises(ValueError):
        GlohParams(clip_threshold=0.0)
    for bad in (
        {"patch_size": 0},
        {"stride": 0},
        {"stride": -1},
        {"n_sectors": 0},
        {"n_orient": 0},
        {"n_orient": -2},
    ):
        with pytest.raises(ValueError, match=next(iter(bad))):
            GlohParams(**bad)
    assert GlohParams(clip_threshold=None).per_patch_dim == 136
