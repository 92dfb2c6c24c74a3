"""Numeric kernel contracts: softmax, GELU, layer norm, sigmoid/tanh."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlmkit.errors import ShapeError, UndefinedDistributionError
from nlmkit.attention import build_mask
from nlmkit.kernels import (
    GELU_TANH_COEFF,
    LAYER_NORM_EPS,
    MASKED_EXP_MIN_KEYS,
    SQRT_2_OVER_PI,
    exp_allowed,
    gelu,
    gelu_exact,
    gelu_tanh,
    layer_norm,
    sigmoid,
    softmax,
)

from oracles import (
    gelu_tanh_scalar,
    layer_norm_vec,
    naive_softmax,
    normal_cdf_series,
    sigmoid_scalar,
)


def masked_matrix(rng, shape, rate=0.3):
    """Normal scores with about `rate` of the entries set to -inf, leaving
    at least one finite entry in every row and every column."""
    m = rng.normal(scale=3.0, size=shape)
    m[rng.uniform(size=shape) < rate] = -np.inf
    keep = np.arange(max(shape))
    m[keep % shape[0], keep % shape[1]] = rng.normal(size=max(shape))
    return m


def slices(m, axis):
    return [m[:, j] for j in range(m.shape[1])] if axis == 0 else list(m)


class TestSoftmax:
    def test_uniform_for_equal_scores(self):
        npt.assert_allclose(softmax([0.0, 0.0, 0.0]), [1 / 3] * 3, rtol=1e-15)

    def test_log3_gives_quarters(self):
        npt.assert_allclose(softmax([0.0, math.log(3)]), [0.25, 0.75], rtol=1e-14)

    def test_neg_inf_is_exact_zero(self):
        out = softmax([0.0, -np.inf])
        assert out[0] == 1.0
        assert out[1] == 0.0

    def test_all_masked_rejected(self):
        with pytest.raises(UndefinedDistributionError):
            softmax([-np.inf, -np.inf])

    def test_empty_rejected(self):
        with pytest.raises(UndefinedDistributionError):
            softmax([])

    def test_nan_rejected(self):
        with pytest.raises(UndefinedDistributionError):
            softmax([0.0, np.nan])

    def test_sums_to_one_large_dim(self, rng):
        v = rng.normal(scale=10.0, size=100_000)
        assert abs(softmax(v).sum() - 1.0) < 1e-12

    def test_shift_invariance(self, rng):
        v = rng.normal(size=64)
        for shift in (-250.0, -1.0, 3.5, 400.0):
            npt.assert_allclose(softmax(v + shift), softmax(v), atol=1e-12)

    def test_row_wise_matches_vector_form(self, rng):
        m = rng.normal(size=(5, 7))
        out = softmax(m, axis=1)
        for i in range(5):
            npt.assert_array_equal(out[i], softmax(m[i]))

    def test_pos_inf_rejected(self):
        with pytest.raises(UndefinedDistributionError, match=r"\+inf"):
            softmax([0.0, np.inf])
        with pytest.raises(UndefinedDistributionError, match=r"\+inf"):
            softmax(np.array([[0.0, 1.0], [-np.inf, np.inf]]), axis=0)

    def test_nan_rejected_in_matrix(self):
        m = np.zeros((3, 4))
        m[2, 1] = np.nan
        for axis in (0, 1):
            with pytest.raises(UndefinedDistributionError, match="NaN"):
                softmax(m, axis=axis)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_masked_matrix_matches_naive_oracle(self, rng, axis):
        m = masked_matrix(rng, (7, 9))
        out = softmax(m, axis=axis)
        for got, scores in zip(slices(out, axis), slices(m, axis)):
            npt.assert_allclose(got, naive_softmax(scores), rtol=1e-12, atol=1e-15)
            npt.assert_array_equal(got[scores == -np.inf], 0.0)

    @pytest.mark.parametrize("axis", [0, 1])
    def test_one_all_masked_slice_rejected(self, rng, axis):
        m = masked_matrix(rng, (5, 6))
        if axis == 0:
            m[:, 2] = -np.inf
        else:
            m[3] = -np.inf
        with pytest.raises(UndefinedDistributionError, match="no finite entry"):
            softmax(m, axis=axis)

    def test_rejects_higher_rank(self):
        with pytest.raises(ShapeError):
            softmax(np.zeros((2, 2, 2)))

    @settings(max_examples=60)
    @given(rows=st.integers(1, 12), cols=st.integers(1, 12), axis=st.sampled_from([0, 1]),
           seed=st.integers(0, 2**32 - 1), rate=st.floats(0.0, 0.9))
    def test_property_masked_slices_sum_to_one(self, rows, cols, axis, seed, rate):
        m = masked_matrix(np.random.default_rng(seed), (rows, cols), rate)
        out = softmax(m, axis=axis)
        npt.assert_allclose(out.sum(axis=axis), 1.0, rtol=0, atol=1e-12)
        for got, scores in zip(slices(out, axis), slices(m, axis)):
            npt.assert_allclose(got, softmax(scores), rtol=0, atol=1e-15)


def causal_scores(rng, rows, keys, stacked=1):
    """`stacked` sequences' scores under rows keys-rows..keys-1 of a causal
    mask, side by side as in attention, and the mask."""
    mask = build_mask(keys, "AR", keys - rows)
    return (rng.normal(scale=3.0, size=(stacked, rows, keys)) + mask).reshape(-1, keys), mask


class TestMaskedSoftmax:
    @pytest.mark.parametrize("n", [8, 31, 32, 128])
    def test_bitwise_equal_to_plain_either_side_of_the_threshold(self, rng, n):
        scores, mask = causal_scores(rng, n, n)
        assert (exp_allowed(mask) is None) == (n < MASKED_EXP_MIN_KEYS)
        npt.assert_array_equal(softmax(scores, 1, mask != -np.inf), softmax(scores, axis=1))

    def test_bitwise_equal_to_plain_for_stacked_windows(self, rng):
        scores, mask = causal_scores(rng, 64, 64, stacked=4)
        allowed = exp_allowed(mask)
        assert allowed.shape == (64, 64)
        npt.assert_array_equal(softmax(scores, 1, allowed), softmax(scores, axis=1))

    @pytest.mark.parametrize("rows", [1, 8])
    def test_cache_step_rows(self, rng, rows):
        scores, mask = causal_scores(rng, rows, 70)
        allowed = exp_allowed(mask)
        assert (allowed is None) == (rows == 1)  # the newest query sees every key
        npt.assert_array_equal(softmax(scores, 1, mask != -np.inf), softmax(scores, axis=1))

    def test_one_row_never_takes_the_masked_path(self):
        # a decode step's last query row allows every key, and both paths give
        # the same bits for any mask, so a one-row mask builds no boolean row
        mask = np.zeros((1, 64))
        assert exp_allowed(mask) is None
        mask[0, 40:] = -np.inf
        assert exp_allowed(mask) is None

    @pytest.mark.parametrize("n", [1, 32, 128])
    def test_ae_mask_never_takes_the_masked_path(self, n):
        assert exp_allowed(build_mask(n, "AE")) is None

    def test_allowed_must_tile_the_scores(self, rng):
        scores, _ = causal_scores(rng, 4, 40)
        with pytest.raises(ShapeError):
            softmax(scores, 1, np.tri(3, 40, dtype=bool))


class TestOwnership:
    @pytest.mark.parametrize("shape,axis", [((9,), -1), ((5, 40), 1), ((40, 5), 0)])
    def test_softmax_leaves_the_callers_array_unchanged(self, rng, shape, axis):
        v = masked_matrix(rng, shape) if len(shape) == 2 else rng.normal(size=shape)
        kept = v.copy()
        softmax(v, axis)
        npt.assert_array_equal(v, kept)

    def test_masked_softmax_leaves_the_callers_array_unchanged(self, rng):
        scores, mask = causal_scores(rng, 40, 40)
        kept = scores.copy()
        softmax(scores, 1, exp_allowed(mask))
        npt.assert_array_equal(scores, kept)

    def test_overwrite_returns_the_same_distribution(self, rng):
        v = masked_matrix(rng, (6, 7))
        want = softmax(v, axis=1)
        got = softmax(v, 1, None, overwrite=True)
        assert got is v
        npt.assert_array_equal(got, want)


class TestGelu:
    def test_zero(self):
        assert gelu(0.0, "tanh") == 0.0
        assert gelu_exact(0.0) == 0.0

    def test_large_positive_is_identity(self):
        assert abs(gelu(10.0, "tanh") - 10.0) < 1e-6
        assert abs(gelu_exact(10.0) - 10.0) < 1e-12

    def test_exact_mode_against_series_cdf(self):
        # independently computed Phi(1) = 0.8413447460685429
        assert abs(normal_cdf_series(1.0) - 0.841345) < 1e-5
        assert abs(gelu_exact(1.0) - 1.0 * normal_cdf_series(1.0)) < 1e-12

    def test_modes_agree_within_5e3(self):
        x = np.linspace(-5.0, 5.0, 10_000)
        assert np.max(np.abs(gelu_tanh(x) - gelu_exact(x))) <= 5e-3

    def test_matrix_matches_scalar_oracle(self, rng):
        x = rng.uniform(-30.0, 30.0, size=(16, 12))
        x[0, :6] = [-30.0, -5.0, -1e-8, 0.0, 1e-8, 30.0]
        out = gelu_tanh(x)
        assert out.shape == x.shape
        for (i, j), xi in np.ndenumerate(x):
            assert abs(out[i, j] - gelu_tanh_scalar(xi)) <= 1e-12 * max(1.0, abs(xi))

    def test_tanh_form_is_bitwise_the_textbook_expression(self, rng):
        x = rng.uniform(-30.0, 30.0, size=(64, 48))
        x[0, :8] = [-30.0, -5.0, -1e-8, 0.0, 1e-8, 30.0, 5e-324, -1e-310]
        textbook = 0.5 * x * (1.0 + np.tanh(SQRT_2_OVER_PI * (x + GELU_TANH_COEFF * (x * x * x))))
        npt.assert_array_equal(gelu_tanh(x), textbook)
        exact = [xi * 0.5 * math.erfc(-xi / math.sqrt(2.0)) for xi in x.ravel().tolist()]
        npt.assert_array_equal(gelu_exact(x), np.reshape(exact, x.shape))

    def test_input_is_left_unchanged(self, rng):
        x = rng.normal(size=(5, 4))
        kept = x.copy()
        gelu_tanh(x)
        gelu_exact(x)
        npt.assert_array_equal(x, kept)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            gelu(1.0, mode="relu")

    def test_exact_keeps_zero_dim_and_empty_types(self):
        assert type(gelu_exact(1.5)) is np.float64
        assert type(gelu_exact(np.float64(-2.0))) is np.float64
        for shape in ((0,), (0, 3), (4, 0)):
            out = gelu_exact(np.zeros(shape))
            assert type(out) is np.ndarray and out.shape == shape and out.dtype == np.float64

    def test_exact_limits(self):
        assert gelu_exact(np.inf) == np.inf
        assert gelu_exact(-40.0) == -0.0


class TestLayerNorm:
    def test_constant_vector_regularized_to_bias(self):
        out = layer_norm([5.0, 5.0, 5.0, 5.0], np.ones(4), np.zeros(4))
        npt.assert_allclose(out, np.zeros(4), atol=1e-9)

    def test_unit_variance_vector_nearly_fixed(self):
        # eps under the root shrinks the output by ~eps/2
        out = layer_norm([1.0, -1.0], np.ones(2), np.zeros(2))
        npt.assert_allclose(out, [1.0, -1.0], atol=1e-5)

    def test_normalizes_mean_and_variance(self, rng):
        x = rng.normal(loc=3.0, scale=2.0, size=8)
        out = layer_norm(x, np.ones(8), np.zeros(8))
        assert abs(out.mean()) < 1e-12
        assert abs(out.var() - 1.0) < 1e-4

    def test_affine_input_invariance(self, rng):
        # z-scoring removes any a*x + b with a > 0, up to eps effects
        x = rng.normal(scale=10.0, size=16)
        base = layer_norm(x, np.ones(16), np.zeros(16))
        for a, b in ((2.0, -7.0), (0.5, 3.0), (10.0, 100.0)):
            npt.assert_allclose(layer_norm(a * x + b, np.ones(16), np.zeros(16)),
                                base, atol=1e-6)

    def test_gain_and_bias_applied(self, rng):
        x = rng.normal(size=6)
        gain = rng.normal(size=6)
        bias = rng.normal(size=6)
        manual = gain * layer_norm(x, np.ones(6), np.zeros(6)) + bias
        npt.assert_allclose(layer_norm(x, gain, bias), manual, rtol=1e-12, atol=1e-12)

    def test_columnwise_matches_vector_form(self, rng):
        m = rng.normal(size=(6, 4))
        gain = rng.normal(size=6)
        bias = rng.normal(size=6)
        out = layer_norm(m, gain, bias)
        for j in range(4):
            npt.assert_allclose(out[:, j], layer_norm(m[:, j], gain, bias), rtol=1e-12, atol=1e-14)

    def test_matrix_matches_vector_oracle(self, rng):
        m = rng.normal(loc=2.0, scale=5.0, size=(9, 7))
        m[:, 3] = 4.0  # constant column normalizes to the bias
        gain = rng.normal(size=9)
        bias = rng.normal(size=9)
        out = layer_norm(m, gain, bias)
        for j in range(7):
            npt.assert_allclose(out[:, j], layer_norm_vec(list(m[:, j]), list(gain), list(bias)),
                                rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("shape", [(64,), (64, 1), (4, 28), (128, 80), (64, 256),
                                       (64, 6208)])
    def test_bitwise_equals_the_mean_based_formula(self, rng, shape):
        x = rng.normal(loc=3.0, scale=4.0, size=shape)
        gain, bias = rng.normal(size=shape[0]), rng.normal(size=shape[0])
        column = (-1,) + (1,) * (x.ndim - 1)
        want = x - x.mean(axis=0)
        want /= np.sqrt((want * want).mean(axis=0) + LAYER_NORM_EPS)
        want *= gain.reshape(column)
        want += bias.reshape(column)
        npt.assert_array_equal(layer_norm(x, gain, bias), want)

    @pytest.mark.parametrize("scale", [1e155, 1e160, 1e300, 1.7e308])
    def test_scale_invariant_where_the_variance_overflows(self, scale):
        # entries within [-1, 1] and none at its column's mean; the squares
        # overflow from about 1e154, and at 1.7e308 the column sums too
        x = np.column_stack([np.arange(1.0, 9.0) / 8, -np.arange(8.0, 0.0, -1.0) ** 2 / 64])
        gain, bias = np.linspace(0.5, 1.5, 8), np.zeros(8)
        got = layer_norm(x * scale, gain, bias)  # under the repository's error::RuntimeWarning
        npt.assert_allclose(got, layer_norm(x * 1e150, gain, bias), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("rows", [5, 16, 64])
    def test_overflowing_columns_are_their_unscaled_output_bit_for_bit(self, rng, rows):
        # every other column keeps the one path, and 2^p scaling commutes with
        # its roundings while eps is negligible (it is below var 1e-200 here)
        x = rng.normal(size=(rows, 6)) * 1e100
        gain, bias = rng.normal(size=rows), rng.normal(size=rows)
        want = layer_norm(x, gain, bias)
        for p in (200, 201, 600):
            y = x.copy()
            y[:, [1, 4]] *= 2.0 ** p
            npt.assert_array_equal(layer_norm(y, gain, bias), want)

    def test_a_constant_column_past_the_overflow_is_its_bias(self):
        bias = np.linspace(-1.0, 1.0, 4)
        npt.assert_array_equal(layer_norm(np.full(4, 1.7e308), np.ones(4), bias), bias)

    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_zero_rows_rejected_before_any_arithmetic(self, shape):
        with pytest.raises(ShapeError, match="nonempty axis 0"):
            layer_norm(np.zeros(shape), np.zeros(0), np.zeros(0))

    def test_zero_columns_give_an_empty_matrix(self):
        out = layer_norm(np.zeros((3, 0)), np.ones(3), np.zeros(3))
        assert out.shape == (3, 0)

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            layer_norm(np.zeros(3), np.zeros(4), np.zeros(3))
        with pytest.raises(ShapeError):
            layer_norm(np.zeros((3, 5)), np.zeros(5), np.zeros(5))


class TestSigmoidTanh:
    def test_fixed_points(self):
        assert sigmoid(0.0) == 0.5
        assert np.tanh(0.0) == 0.0

    def test_sigmoid_of_log3(self):
        assert abs(sigmoid(math.log(3)) - 0.75) < 1e-15

    def test_complement_identity(self, rng):
        x = rng.uniform(-30, 30, size=1000)
        npt.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-15)

    def test_open_interval_bounds(self, rng):
        # float64 saturates sigmoid beyond |x| ~ 36 and tanh beyond |x| ~ 19;
        # the strict bounds hold over the representable range
        s = sigmoid(rng.uniform(-36, 36, size=1000))
        assert np.all(s > 0) and np.all(s < 1)
        t = np.tanh(rng.uniform(-18, 18, size=1000))
        assert np.all(t > -1) and np.all(t < 1)

    def test_is_bitwise_the_lstm_gate_form(self, rng):
        x = rng.uniform(-45.0, 45.0, size=(64, 96))
        x[0, :6] = [-40.0, -36.0, -1e-300, 0.0, 5e-324, 40.0]
        npt.assert_array_equal(sigmoid(x), 0.5 * np.tanh(0.5 * x) + 0.5)

    def test_within_2_3e_16_of_the_logistic_oracle(self):
        x = np.linspace(-40.0, 40.0, 80_001)
        want = np.array([sigmoid_scalar(xi) for xi in x.tolist()])
        assert np.max(np.abs(sigmoid(x) - want)) <= 2.3e-16

    def test_zero_dim_and_empty_inputs_keep_their_types(self):
        assert type(sigmoid(0.5)) is np.float64 and type(sigmoid(np.float64(-3.0))) is np.float64
        for shape in ((0,), (0, 3), (4, 0)):
            out = sigmoid(np.zeros(shape))
            assert type(out) is np.ndarray and out.shape == shape and out.dtype == np.float64

    def test_saturates_exactly_at_infinity(self):
        assert sigmoid(np.inf) == 1.0 and sigmoid(-np.inf) == 0.0
        npt.assert_array_equal(sigmoid(np.array([-np.inf, np.inf])), [0.0, 1.0])

    def test_leaves_the_callers_array_unchanged(self, rng):
        x = rng.normal(size=(6, 5))
        kept = x.copy()
        sigmoid(x)
        npt.assert_array_equal(x, kept)
