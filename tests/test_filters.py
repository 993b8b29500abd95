import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from apsabench.filters import (
    STEPPERS,
    FilterParams,
    FilterState,
    GainVariant,
    _block_gains,
    bs_gains,
    error_vector,
    ip_gains,
    normalized_update,
    shift_memory,
    sign_vector,
)

# Every stepper, with ids such as `apsa_step`.
ALL_STEPPERS = [
    pytest.param(step, id=f"{name.replace('-', '_')}_step") for name, step in STEPPERS.items()
]

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False)


def weight_arrays(length):
    return arrays(np.float64, length, elements=finite)


# ---------------------------------------------------------------- parameters


def test_params_reject_indivisible_block_length():
    with pytest.raises(ValueError, match="divisible"):
        FilterParams(filter_length=100, block_length=7)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(filter_length=0),
        dict(filter_length=8, projection_order=0),
        dict(filter_length=8, block_length=0),
        dict(filter_length=8, step_size=-0.1),
        dict(filter_length=8, proportionate_mix=1.0),
        dict(filter_length=8, proportionate_mix=-1.5),
        dict(filter_length=8, gain_regularizer=-1e-9),
        dict(filter_length=8, update_regularizer=-1e-9),
    ],
)
def test_params_reject_out_of_range(kwargs):
    with pytest.raises(ValueError):
        FilterParams(**kwargs)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["step_size", "gain_regularizer", "update_regularizer"])
def test_params_reject_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        FilterParams(filter_length=8, **{field: value})


def test_params_accept_zero_regularizers_and_zero_step():
    # Degenerate diagnostic modes used by the equivalence checks.
    p = FilterParams(filter_length=8, step_size=0.0, gain_regularizer=0.0, update_regularizer=0.0)
    assert (p.step_size, p.gain_regularizer, p.update_regularizer) == (0.0, 0.0, 0.0)


def test_state_starts_exactly_zero():
    p = FilterParams(filter_length=6, projection_order=3, block_length=2)
    s = FilterState.zeros(p)
    assert not s.weights.any()
    assert not s.memory.any()
    assert not s.regressors.any()
    assert not s.desired.any()
    assert s.memory.shape == (6, 3)
    assert s.regressors.shape == (6, 3)
    assert s.desired.shape == (3,)


# ------------------------------------------------------------------- ip_gains


def test_ip_gains_zero_weights_are_uniform_floor():
    g = ip_gains(np.zeros(4), 0.0, 0.01)
    assert np.array_equal(g, np.full(4, 0.125))


def test_ip_gains_single_active_tap_eps_zero():
    # Scalar oracle: floor 1/8 each, active tap adds 1/(2*1) = 0.5.
    g = ip_gains(np.array([1.0, 0.0, 0.0, 0.0]), 0.0, 0.0)
    assert np.allclose(g, [0.625, 0.125, 0.125, 0.125], rtol=0, atol=1e-15)
    assert g.sum() == pytest.approx(1.0, abs=1e-15)


@given(w=weight_arrays(6))
def test_ip_gains_alpha_minus_one_is_uniform(w):
    g = ip_gains(w, -1.0, 0.01)
    assert np.array_equal(g, np.full(6, 1.0 / 6.0))


@given(w=weight_arrays(8), alpha=st.floats(-1.0, 0.999), eps=st.floats(1e-12, 1.0))
def test_ip_gains_strictly_positive(w, alpha, eps):
    assert np.all(ip_gains(w, alpha, eps) > 0.0)


@given(w=weight_arrays(12), alpha=st.floats(-1.0, 0.999))
def test_ip_gains_sum_to_one_without_regularizer(w, alpha):
    g = ip_gains(w, alpha, 0.0)
    assert g.sum() == pytest.approx(1.0, rel=1e-12)


# ------------------------------------------------------------------- bs_gains


def test_bs_gains_mip_consistent_oracle():
    # Blocks [3,0] and [0,4] have norms 3 and 4; scalar oracle
    # 0.125 + 3/14 and 0.125 + 4/14.
    g = bs_gains(np.array([3.0, 0.0, 0.0, 4.0]), 2, 0.0, 0.0)
    expected = [0.125 + 3 / 14, 0.125 + 3 / 14, 0.125 + 4 / 14, 0.125 + 4 / 14]
    assert np.allclose(g, expected, rtol=1e-15)


def test_bs_gains_as_printed_oracle():
    # Same blocks, denominator scaled by the block count (N=2).
    g = bs_gains(np.array([3.0, 0.0, 0.0, 4.0]), 2, 0.0, 0.0, GainVariant.AS_PRINTED)
    expected = [0.125 + 3 / 28, 0.125 + 3 / 28, 0.125 + 4 / 28, 0.125 + 4 / 28]
    assert np.allclose(g, expected, rtol=1e-15)


@pytest.mark.parametrize("variant", list(GainVariant))
def test_bs_gains_zero_weights_uniform(variant):
    g = bs_gains(np.zeros(4), 2, 0.0, 0.01, variant)
    if variant is GainVariant.BLOCK_BALANCED:
        assert np.array_equal(g, np.full(4, 0.25))
    else:
        assert np.array_equal(g, np.full(4, 0.125))


def test_bs_gains_reject_indivisible():
    with pytest.raises(ValueError, match="divisible"):
        bs_gains(np.zeros(10), 3, 0.0, 0.01)


@pytest.mark.parametrize("variant", [GainVariant.MIP_CONSISTENT, GainVariant.BLOCK_BALANCED])
@given(w=weight_arrays(6), alpha=st.floats(-1.0, 0.999), eps=st.floats(0.0, 1.0))
def test_bs_gains_length_one_blocks_match_ip_gains(variant, w, alpha, eps):
    assert np.array_equal(bs_gains(w, 1, alpha, eps, variant), ip_gains(w, alpha, eps))


@pytest.mark.parametrize("variant", list(GainVariant))
@given(w=weight_arrays(12), alpha=st.floats(-1.0, 0.999), eps=st.floats(1e-12, 1.0))
def test_bs_gains_constant_within_blocks_and_positive(variant, w, alpha, eps):
    g = bs_gains(w, 4, alpha, eps, variant)
    blocks = g.reshape(3, 4)
    assert np.all(blocks == blocks[:, :1])
    assert np.all(g > 0.0)


@given(w=weight_arrays(12), alpha=st.floats(-1.0, 0.999))
def test_bs_gains_sum_identities_without_regularizer(w, alpha):
    P, N = 4, 3
    mc = bs_gains(w, P, alpha, 0.0, GainVariant.MIP_CONSISTENT).sum()
    ap = bs_gains(w, P, alpha, 0.0, GainVariant.AS_PRINTED).sum()
    bb = bs_gains(w, P, alpha, 0.0, GainVariant.BLOCK_BALANCED).sum()
    assert mc == pytest.approx((1 - alpha) / 2 + P * (1 + alpha) / 2, rel=1e-12)
    assert ap == pytest.approx((1 - alpha) / 2 + (P / N) * (1 + alpha) / 2, rel=1e-12)
    assert bb == pytest.approx(P, rel=1e-12)


@pytest.mark.parametrize("variant", list(GainVariant))
@pytest.mark.parametrize("block_length", [1, 4, 12])
@given(w=weight_arrays((3, 12)), alpha=st.floats(-1.0, 0.999), eps=st.sampled_from([0.0, 0.01]))
def test_gains_of_a_weight_slab_match_row_by_row(variant, block_length, w, alpha, eps):
    # The batched engine takes gains of a whole (T, L) slab at once; a zero
    # row with a zero regularizer takes the uniform share, as a 1-D call does.
    w[1] = 0.0
    slab = bs_gains(w, block_length, alpha, eps, variant)
    for row in range(3):
        assert np.array_equal(slab[row], bs_gains(w[row], block_length, alpha, eps, variant))
    if eps == 0.0:
        n_blocks = 12 // block_length
        floor = (1 - alpha) / (2 * (n_blocks if variant is GainVariant.BLOCK_BALANCED else 12))
        scale = 2 * n_blocks if variant is GainVariant.AS_PRINTED else 2
        assert np.allclose(slab[1], floor + (1 + alpha) / (scale * n_blocks), rtol=1e-15)
    assert np.array_equal(ip_gains(w, alpha, eps)[0], ip_gains(w[0], alpha, eps))


def allocating_block_gains(weights, block_length, mix, eps, variant):
    """The gain rule as it was written before it took buffers: a fresh
    array per step and ``np.repeat`` to spread block gains over taps."""
    L = weights.shape[-1]
    n_blocks = L // block_length
    if block_length == 1:
        norms = np.abs(weights)
    else:
        blocks = weights.reshape(*weights.shape[:-1], n_blocks, block_length)
        norms = np.sqrt(np.einsum("...ij,...ij->...i", blocks, blocks))
    total = norms.sum(axis=-1, keepdims=True)
    n = n_blocks if variant is GainVariant.BLOCK_BALANCED else L
    floor = (1.0 - mix) / (2.0 * n)
    scale = 2.0 * n_blocks if variant is GainVariant.AS_PRINTED else 2.0
    denom = scale * total + eps
    zero = denom[..., 0] == 0.0
    denom[zero] = 1.0
    shares = (1.0 + mix) * norms / denom
    shares[zero] = (1.0 + mix) / (scale * n_blocks)
    return np.repeat(floor + shares, block_length, axis=-1)


@pytest.mark.parametrize("variant", list(GainVariant))
@pytest.mark.parametrize("block_length", [1, 2, 4, 12])
@pytest.mark.parametrize("mix", [-0.5, 0.0, 0.5])
@pytest.mark.parametrize("eps", [0.0, 0.01])
def test_block_gains_into_buffers_match_the_allocating_rule(variant, block_length, mix, eps):
    # The engine writes each algorithm's gains into its row of one slab; a
    # slab full of NaN from an earlier call must not leak into the gains.
    # Zero rows take the 0/0 branch when eps is 0.
    rng = np.random.default_rng(block_length)
    for shape in [(12,), (3, 12), (2, 3, 12)]:
        w = rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 1e3], shape[:-1] + (1,))
        if len(shape) > 1:
            w[..., 1, :] = 0.0
        expected = allocating_block_gains(w, block_length, mix, eps, variant)
        allocated = _block_gains(w, block_length, mix, eps, variant)
        slab = np.full((2,) + shape, np.nan)
        returned = _block_gains(w, block_length, mix, eps, variant, slab[1])
        assert np.shares_memory(returned, slab[1])
        assert np.array_equal(allocated, expected)
        assert np.array_equal(slab[1], expected)
        assert np.all(np.isnan(slab[0]))
        if block_length == 1 and variant is GainVariant.MIP_CONSISTENT:
            assert np.array_equal(ip_gains(w, mix, eps, slab[0]), expected)


# ------------------------------------------------- error, sign, memory, update


def test_error_vector_zero_weights_returns_desired():
    p = FilterParams(filter_length=3, projection_order=2, block_length=1)
    s = FilterState.zeros(p)
    s.desired[:] = [2.5, -1.0]
    assert np.array_equal(error_vector(s), [2.5, -1.0])


def test_error_vector_matrix_oracle():
    p = FilterParams(filter_length=2, projection_order=2, block_length=1)
    s = FilterState.zeros(p)
    s.weights[:] = [1.0, 1.0]
    s.regressors[:, 0] = [1.0, 2.0]
    s.regressors[:, 1] = [3.0, 4.0]
    s.desired[:] = [5.0, 9.0]
    assert np.array_equal(error_vector(s), [2.0, 2.0])


def test_error_vector_true_weights_noise_free_is_zero():
    rng = np.random.default_rng(0)
    p = FilterParams(filter_length=4, projection_order=3, block_length=1)
    s = FilterState.zeros(p)
    h = rng.standard_normal(4)
    s.weights[:] = h
    s.regressors[:] = rng.standard_normal((4, 3))
    s.desired[:] = s.regressors.T @ h
    assert np.allclose(error_vector(s), 0.0, atol=1e-15)


def test_sign_vector_examples():
    assert np.array_equal(sign_vector(np.array([0.5, -2.0, 0.0])), [1.0, -1.0, 0.0])
    assert np.array_equal(sign_vector(np.array([3.0, 0.1])), [1.0, 1.0])


# Subnormal entries are left out: scaling one by c < 1 can underflow to 0,
# which changes its sign in any IEEE arithmetic.  Normal entries scaled by
# c >= 1e-6 stay nonzero.
@given(
    e=arrays(np.float64, 5, elements=st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)),
    c=st.floats(1e-6, 1e6),
)
def test_sign_vector_scale_invariant(e, c):
    assert np.array_equal(sign_vector(c * e), sign_vector(e))


def test_shift_memory_pushes_front_drops_back():
    m = np.array([[1.0, 2.0], [10.0, 20.0]])
    out = shift_memory(m, np.array([0.5, 5.0]))
    assert np.array_equal(out, [[0.5, 1.0], [5.0, 10.0]])


def test_shift_memory_single_column():
    out = shift_memory(np.array([[7.0], [8.0]]), np.array([1.0, 2.0]))
    assert np.array_equal(out, [[1.0], [2.0]])


def test_shift_memory_fills_all_columns_after_m_shifts():
    m = np.zeros((3, 4))
    for k in range(4):
        m = shift_memory(m, np.full(3, float(k + 1)))
    assert np.all(np.any(m != 0.0, axis=0))


def test_normalized_update_zero_direction_is_noop():
    w = np.array([1.0, -2.0])
    out = normalized_update(w, np.zeros(2), 0.5, 0.0)
    assert out is w


def test_normalized_update_unit_step_oracle():
    out = normalized_update(np.zeros(2), np.array([3.0, 4.0]), 1.0, 0.0)
    assert np.allclose(out, [0.6, 0.8], rtol=1e-15)
    assert np.linalg.norm(out) == pytest.approx(1.0, rel=1e-15)


@given(
    d=arrays(np.float64, 4, elements=finite),
    mu=st.floats(1e-6, 10.0),
    delta=st.floats(1e-6, 1.0),
)
def test_normalized_update_strictly_bounded(d, mu, delta):
    # Measured from zero weights so rounding of the addition cannot inflate
    # the step; strictness needs delta / |d|^2 above machine epsilon, which
    # the strategy bounds guarantee.
    step = np.linalg.norm(normalized_update(np.zeros(4), d, mu, delta))
    assert step < mu


# -------------------------------------------------------------------- steppers


def _drive(step, params, x, y):
    state = FilterState.zeros(params)
    out = []
    for xn, yn in zip(x, y):
        step(state, params, xn, yn)
        out.append(state.weights.copy())
    return out


def test_apsa_single_step_hand_trace():
    p = FilterParams(
        filter_length=2, projection_order=1, block_length=1,
        step_size=0.1, update_regularizer=0.01,
    )
    s = FilterState.zeros(p)
    STEPPERS["apsa"](s, p, 1.0, 1.0)
    assert np.allclose(s.weights, [0.1 / math.sqrt(1.01), 0.0], rtol=1e-15)


@pytest.mark.parametrize("step", ALL_STEPPERS)
def test_noise_free_converged_filter_stays_put(step):
    # True path = unit impulse at tap 0, so the noiseless desired sample is
    # the newest input verbatim and the error cancels exactly in floating
    # point; a converged filter must then be an exact fixed point.
    rng = np.random.default_rng(1)
    p = FilterParams(filter_length=4, projection_order=2, block_length=2, step_size=0.1)
    h = np.array([1.0, 0.0, 0.0, 0.0])
    s = FilterState.zeros(p)
    s.weights[:] = h
    for _ in range(20):
        xn = rng.standard_normal()
        step(s, p, xn, xn)
        assert np.array_equal(s.weights, h)


def test_mip_first_step_memory_column_is_floor_weighted_regressor():
    p = FilterParams(filter_length=3, projection_order=2, block_length=1,
                     proportionate_mix=0.0, gain_regularizer=0.01)
    s = FilterState.zeros(p)
    STEPPERS["mip-apsa"](s, p, 2.0, 1.0)
    # Zero weights give the uniform floor gain (1 - alpha) / (2L) = 1/6.
    assert np.array_equal(s.memory[:, 0], np.array([2.0, 0.0, 0.0]) / 6.0)
    assert not s.memory[:, 1].any()


def test_mip_uniform_gain_matches_apsa_with_rescaled_regularizer():
    # alpha = -1, M = 1: gains are exactly 1/L, so MIP with delta equals
    # APSA with delta * L^2 (the uniform factor leaves the normalizer).
    rng = np.random.default_rng(5)
    L, n = 8, 300
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    p_mip = FilterParams(filter_length=L, projection_order=1, block_length=1,
                         step_size=0.02, proportionate_mix=-1.0,
                         update_regularizer=1e-4)
    p_apsa = FilterParams(filter_length=L, projection_order=1, block_length=1,
                          step_size=0.02, update_regularizer=1e-4 * L**2)
    w_mip = _drive(STEPPERS["mip-apsa"], p_mip, x, y)
    w_apsa = _drive(STEPPERS["apsa"], p_apsa, x, y)
    for a, b in zip(w_mip, w_apsa):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("variant", [GainVariant.MIP_CONSISTENT, GainVariant.BLOCK_BALANCED])
def test_bs_with_unit_blocks_is_bitwise_mip(variant):
    rng = np.random.default_rng(7)
    n = 250
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    p = FilterParams(filter_length=8, projection_order=3, block_length=1,
                     gain_variant=variant, step_size=0.05)
    for a, b in zip(_drive(STEPPERS["mip-apsa"], p, x, y), _drive(STEPPERS["bs-mip-apsa"], p, x, y)):
        assert np.array_equal(a, b)


def test_bs_full_length_block_matches_apsa_without_regularizers():
    rng = np.random.default_rng(9)
    L, n = 12, 400
    x, y = rng.standard_normal(n), rng.standard_normal(n)
    p = FilterParams(filter_length=L, projection_order=2, block_length=L,
                     step_size=0.05, gain_regularizer=0.0, update_regularizer=0.0)
    for a, b in zip(_drive(STEPPERS["apsa"], p, x, y), _drive(STEPPERS["bs-mip-apsa"], p, x, y)):
        denom = max(np.linalg.norm(a), np.linalg.norm(b))
        if denom > 0:
            assert np.linalg.norm(a - b) / denom <= 1e-12


@pytest.mark.parametrize("step", ALL_STEPPERS)
def test_huge_desired_impulse_cannot_move_weights_beyond_step_size(step):
    rng = np.random.default_rng(11)
    p = FilterParams(filter_length=8, projection_order=2, block_length=4, step_size=0.01)
    s = FilterState.zeros(p)
    for n in range(200):
        before = s.weights.copy()
        y = rng.standard_normal() + (1e6 if n % 7 == 0 else 0.0)
        step(s, p, rng.standard_normal(), y)
        assert np.linalg.norm(s.weights - before) <= p.step_size


@pytest.mark.parametrize(
    "step,uses_block_gains",
    [
        pytest.param(STEPPERS["mip-apsa"], False, id="mip_apsa_step-False"),
        pytest.param(STEPPERS["bs-mip-apsa"], True, id="bs_mip_apsa_step-True"),
        pytest.param(STEPPERS["apsa"], None, id="apsa_step-None"),
    ],
)
def test_memory_matches_bruteforce_reconstruction(step, uses_block_gains):
    # Oracle: after each step, memory column j must equal the gain-weighted
    # regressor recomputed from the logged inputs and pre-update weights.
    # None stands for APSA's unit gains, whose memory holds the regressors.
    rng = np.random.default_rng(13)
    L, M, n = 6, 3, 100
    p = FilterParams(filter_length=L, projection_order=M, block_length=2, step_size=0.05)
    s = FilterState.zeros(p)
    x_log: list[float] = []
    gain_log: list[np.ndarray] = []
    for _ in range(n):
        xn = rng.standard_normal()
        if uses_block_gains is None:
            g = np.ones(L)
        elif uses_block_gains:
            g = bs_gains(s.weights, p.block_length, p.proportionate_mix,
                         p.gain_regularizer, p.gain_variant)
        else:
            g = ip_gains(s.weights, p.proportionate_mix, p.gain_regularizer)
        x_log.append(xn)
        gain_log.append(g)
        step(s, p, xn, rng.standard_normal())
        for j in range(M):
            k = len(x_log) - 1 - j
            if k < 0:
                expected = np.zeros(L)
            else:
                x_vec = np.zeros(L)
                for tap in range(L):
                    if k - tap >= 0:
                        x_vec[tap] = x_log[k - tap]
                expected = gain_log[k] * x_vec
            assert np.array_equal(s.memory[:, j], expected)
