"""Image-patch and time-series adapters against straight-line oracles."""

import numpy as np
import numpy.testing as npt
import pytest

from nlmkit.adapters import patch_embed, patchify, tst_embed, tst_mask, unpatchify
from nlmkit.errors import ConfigError, ShapeError

import oracles


class TestPatchify:
    @pytest.mark.parametrize("shape,patch", [((4, 6, 3), 2), ((6, 6, 1), 3), ((2, 4, 2), 1),
                                             ((5, 5, 2), 5)])
    def test_patch_order_matches_straight_line_loop(self, rng, shape, patch):
        image = rng.normal(size=shape)
        want = np.array(oracles.patchify(image.tolist(), patch)).T
        npt.assert_array_equal(patchify(image, patch), want)

    @pytest.mark.parametrize("shape,patch", [((4, 6, 3), 2), ((6, 6, 1), 3), ((5, 5, 2), 5)])
    def test_round_trip(self, rng, shape, patch):
        image = rng.normal(size=shape)
        npt.assert_array_equal(unpatchify(patchify(image, patch), *shape, patch), image)

    @pytest.mark.parametrize("patch", [0, -2, 4, 5])
    def test_patch_that_does_not_divide_rejected(self, rng, patch):
        with pytest.raises(ShapeError):
            patchify(rng.normal(size=(6, 8, 1)), patch)

    def test_image_must_have_three_axes(self, rng):
        with pytest.raises(ShapeError):
            patchify(rng.normal(size=(4, 4)), 2)

    def test_unpatchify_shape_checked(self, rng):
        with pytest.raises(ShapeError):
            unpatchify(rng.normal(size=(12, 5)), 4, 6, 3, 2)


class TestPatchEmbed:
    def test_matches_mat_vec_per_patch(self, rng):
        patches = patchify(rng.normal(size=(4, 6, 3)), 2)
        embedding = rng.normal(size=(5, patches.shape[0]))
        out = patch_embed(patches, embedding)
        rows = oracles.rows(embedding)
        for j, column in enumerate(oracles.cols(patches)):
            npt.assert_allclose(out[:, j], oracles.mat_vec(rows, column), rtol=1e-12, atol=1e-14)

    def test_width_checked(self, rng):
        with pytest.raises(ShapeError):
            patch_embed(rng.normal(size=(12, 6)), rng.normal(size=(5, 11)))


class TestTstEmbed:
    def test_matches_straight_line_zscore_and_projection(self, rng):
        series = rng.normal(size=(4, 7)) * 3 + 1
        embedding = rng.normal(size=(5, 4))
        bias = rng.normal(size=5)
        want = np.array(oracles.tst_embed(oracles.rows(series), oracles.rows(embedding),
                                          oracles.vec(bias))).T
        npt.assert_allclose(tst_embed(series, embedding, bias), want, rtol=1e-12, atol=1e-13)

    def test_constant_step_projects_to_bias(self, rng):
        series = np.ones((3, 4))
        bias = rng.normal(size=2)
        out = tst_embed(series, rng.normal(size=(2, 3)), bias)
        npt.assert_array_equal(out, np.repeat(bias[:, None], 4, axis=1))

    def test_dims_checked(self, rng):
        with pytest.raises(ShapeError):
            tst_embed(rng.normal(size=(3, 4)), rng.normal(size=(2, 4)), np.zeros(2))
        with pytest.raises(ShapeError):
            tst_embed(rng.normal(size=(3, 4)), rng.normal(size=(2, 3)), np.zeros(3))


class TestTstMask:
    def test_seed_determinism(self, rng):
        series = rng.normal(size=(3, 200))
        a_series, a = tst_mask(series, 0.3, 4, seed=11)
        b_series, b = tst_mask(series, 0.3, 4, seed=11)
        npt.assert_array_equal(a.mask, b.mask)
        npt.assert_array_equal(a_series, b_series)
        assert not np.array_equal(tst_mask(series, 0.3, 4, seed=12)[1].mask, a.mask)

    def test_zeroes_exactly_the_masked_entries(self, rng):
        series = rng.normal(size=(3, 200)) + 5.0
        corrupted, noise = tst_mask(series, 0.3, 4, seed=2)
        assert noise.mask.shape == series.shape and set(np.unique(noise.mask)) <= {0, 1}
        npt.assert_array_equal(corrupted[noise.mask == 1], 0.0)
        npt.assert_array_equal(corrupted[noise.mask == 0], series[noise.mask == 0])
        assert (noise.rate, noise.mean_len) == (0.3, 4)

    def test_channel_mask_depends_only_on_seed_channel_and_length(self, rng):
        _, three = tst_mask(rng.normal(size=(3, 150)), 0.2, 3, seed=5)
        _, five = tst_mask(rng.normal(size=(5, 150)) * 9, 0.2, 3, seed=5)
        npt.assert_array_equal(five.mask[:3], three.mask)
        assert not np.array_equal(three.mask[0], three.mask[1])

    @pytest.mark.parametrize("rate,mean_len", [(0.15, 3), (0.5, 8)])
    def test_long_run_masked_fraction_is_rate(self, rate, mean_len):
        _, noise = tst_mask(np.zeros((2, 100_000)), rate, mean_len, seed=3)
        assert abs(noise.mask.mean() - rate) < 0.02

    @pytest.mark.parametrize("rate", [0.0, 1.0, -0.1, 1.5])
    def test_rate_outside_open_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError):
            tst_mask(np.zeros((2, 10)), rate, 3, seed=0)

    def test_mean_len_below_one_rejected(self):
        with pytest.raises(ValueError):
            tst_mask(np.zeros((2, 10)), 0.3, 0, seed=0)

    @pytest.mark.parametrize("seed", [-1, 2**32, 2**64])
    def test_seed_outside_32_bits_is_config_error(self, seed):
        # 2**32 used to key the same stream as seed 0, channel 1
        with pytest.raises(ConfigError):
            tst_mask(np.zeros((2, 10)), 0.3, 3, seed=seed)

    @pytest.mark.parametrize("seed", [0, 2**32 - 1])
    def test_range_ends_are_accepted(self, seed):
        series = np.zeros((2, 50))
        npt.assert_array_equal(tst_mask(series, 0.3, 3, seed=seed)[1].mask,
                               tst_mask(series, 0.3, 3, seed=seed)[1].mask)
