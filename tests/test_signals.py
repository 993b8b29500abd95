import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.signal import lfilter

from apsabench.signals import (
    NoiseModel,
    SeededStream,
    ar1_colored,
    bernoulli_gaussian,
    scale_to_ratio,
    signal_power,
    speech_like,
    white_gaussian,
)


@pytest.mark.parametrize("field", ["seed", "stream_id"])
def test_seeded_stream_rejects_negative_values(field):
    with pytest.raises(ValueError, match=field):
        SeededStream(**{"seed": 1, "stream_id": 0, field: -1})


def test_white_gaussian_empty():
    assert white_gaussian(0, SeededStream(1)).shape == (0,)


def test_white_gaussian_determinism():
    s = SeededStream(42, 3)
    assert np.array_equal(white_gaussian(100, s), white_gaussian(100, s))


def test_white_gaussian_distinct_streams_differ():
    a = white_gaussian(100, SeededStream(42, 0))
    b = white_gaussian(100, SeededStream(42, 1))
    assert not np.array_equal(a, b)


def test_white_gaussian_unit_variance():
    x = white_gaussian(10**6, SeededStream(7))
    assert np.var(x) == pytest.approx(1.0, rel=0.01)


def test_white_gaussian_rejects_negative_count():
    with pytest.raises(ValueError):
        white_gaussian(-1, SeededStream(1))


def test_ar1_zero_pole_is_white_stream():
    s = SeededStream(5, 2)
    assert np.array_equal(ar1_colored(500, 0.0, s), white_gaussian(500, s))


def test_ar1_first_sample_equals_driving_noise():
    s = SeededStream(9)
    colored = ar1_colored(50, 0.8, s)
    white = white_gaussian(50, s)
    assert colored[0] == white[0]


def test_ar1_stationary_variance():
    x = ar1_colored(10**6, 0.8, SeededStream(11))
    assert np.var(x) == pytest.approx(1.0 / (1.0 - 0.64), rel=0.02)


@pytest.mark.parametrize("pole", [1.0, -1.0, 1.5])
def test_ar1_rejects_unstable_pole(pole):
    with pytest.raises(ValueError, match="pole"):
        ar1_colored(10, pole, SeededStream(1))


def test_ar1_recursion_matches_direct_loop():
    s = SeededStream(13)
    x = ar1_colored(200, 0.8, s)
    w = white_gaussian(200, s)
    prev = 0.0
    for n in range(200):
        prev = 0.8 * prev + w[n]
        assert x[n] == pytest.approx(prev, rel=1e-12)


@given(
    pole=st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    count=st.integers(0, 5000),
    seed=st.integers(0, 2**32 - 1),
)
def test_ar1_matches_lfilter_bitwise(pole, count, seed):
    # The all-pole filter [1] / [1, -pole] is the recursion's oracle.
    s = SeededStream(seed, 1)
    expected = lfilter([1.0], [1.0, -pole], white_gaussian(count, s))
    assert np.array_equal(ar1_colored(count, pole, s), expected)


def test_bernoulli_gaussian_p_zero_all_zero():
    assert not bernoulli_gaussian(1000, 0.0, SeededStream(1)).any()


def test_bernoulli_gaussian_p_one_all_active_gaussian():
    x = bernoulli_gaussian(10**5, 1.0, SeededStream(3))
    assert np.all(x != 0.0)
    assert np.var(x) == pytest.approx(1.0, rel=0.05)


def test_bernoulli_gaussian_active_fraction():
    x = bernoulli_gaussian(10**6, 0.1, SeededStream(17))
    fraction = np.count_nonzero(x) / x.size
    assert 0.095 <= fraction <= 0.105


def test_bernoulli_gaussian_rejects_bad_probability():
    with pytest.raises(ValueError):
        bernoulli_gaussian(10, 1.5, SeededStream(1))


def test_scale_to_ratio_equal_power_zero_db_is_identity():
    x = np.array([1.0, -1.0, 1.0, -1.0])
    noise = np.array([-1.0, 1.0, -1.0, 1.0])
    assert np.allclose(scale_to_ratio(x, noise, 0.0), noise, rtol=1e-15)


def test_scale_to_ratio_forty_db():
    rng = np.random.default_rng(0)
    ref = rng.standard_normal(4000)
    noise = rng.standard_normal(4000)
    noise *= np.sqrt(signal_power(ref) / signal_power(noise))  # equalize power
    scaled = scale_to_ratio(ref, noise, 40.0)
    assert signal_power(scaled) == pytest.approx(1e-4 * signal_power(ref), rel=1e-12)


def test_scale_to_ratio_reference_amplitude_scaling():
    rng = np.random.default_rng(1)
    ref = rng.standard_normal(1000)
    noise = rng.standard_normal(1000)
    base = signal_power(scale_to_ratio(ref, noise, 10.0))
    doubled = signal_power(scale_to_ratio(2.0 * ref, noise, 10.0))
    assert doubled == pytest.approx(4.0 * base, rel=1e-12)


@given(target_db=st.floats(-60.0, 60.0), seed=st.integers(0, 2**32 - 1))
def test_scale_to_ratio_realized_ratio_exact(target_db, seed):
    rng = np.random.default_rng(seed)
    ref = rng.standard_normal(256)
    noise = rng.standard_normal(256)
    scaled = scale_to_ratio(ref, noise, target_db)
    realized = 10.0 * np.log10(signal_power(ref) / signal_power(scaled))
    assert realized == pytest.approx(target_db, abs=1e-9)


def test_scale_to_ratio_rejects_zero_power():
    with pytest.raises(ValueError, match="zero power"):
        scale_to_ratio(np.zeros(4), np.ones(4), 0.0)
    with pytest.raises(ValueError, match="zero power"):
        scale_to_ratio(np.ones(4), np.zeros(4), 0.0)


def test_substreams_are_uncorrelated():
    n = 10**6
    a = white_gaussian(n, SeededStream(123, 0))
    b = white_gaussian(n, SeededStream(123, 1))
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 0.01


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(impulse_probability=-0.1)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["snr_db", "sir_db"])
def test_noise_model_rejects_non_finite(field, value):
    with pytest.raises(ValueError, match=field):
        NoiseModel(**{field: value})


def test_speech_like_deterministic_and_bounded():
    s = SeededStream(21)
    x = speech_like(5000, s)
    assert np.array_equal(x, speech_like(5000, s))
    assert x.shape == (5000,)
    assert np.max(np.abs(x)) <= 0.95
    # Nonstationarity: syllabic envelope makes block powers vary a lot.
    powers = np.array([signal_power(c) for c in np.split(x, 10)])
    assert powers.max() > 2.0 * powers.min()


def test_speech_like_empty():
    assert speech_like(0, SeededStream(1)).shape == (0,)
