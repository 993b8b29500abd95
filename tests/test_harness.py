import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.signal import lfilter

from apsabench.audio import save_wav
from apsabench.echo_path import PathSchedule, make_block_sparse
from apsabench.filters import FilterParams, GainVariant
from apsabench.harness import (
    MISALIGNMENT_FLOOR_DB,
    PATH_STREAM,
    ExperimentConfig,
    _clean_echo,
    _phases,
    misalignment_db,
    run_ensemble,
    run_trial,
)
from apsabench.signals import NoiseModel, SeededStream, ar1_colored, speech_like


def small_config(**overrides):
    L = overrides.pop("L", 16)
    params = overrides.pop(
        "params",
        FilterParams(filter_length=L, projection_order=2, block_length=4, step_size=0.01),
    )
    schedule = overrides.pop(
        "schedule",
        PathSchedule(initial=make_block_sparse(L, [(2, 8)], SeededStream(3, PATH_STREAM))),
    )
    defaults = dict(
        params=params,
        schedule=schedule,
        algorithms=("apsa", "mip-apsa", "bs-mip-apsa"),
        input_kind="ar1",
        pole=0.8,
        noise=NoiseModel(snr_db=30.0, sir_db=0.0, impulse_probability=0.1),
        iterations=300,
        trials=2,
        base_seed=3,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ------------------------------------------------------------- misalignment


def test_misalignment_zero_estimate_is_zero_db():
    assert misalignment_db(np.array([1.0, 2.0]), np.zeros(2)) == 0.0


def test_misalignment_exact_estimate_hits_floor():
    h = np.array([0.3, -0.4])
    assert misalignment_db(h, h.copy()) == MISALIGNMENT_FLOOR_DB


def test_misalignment_hand_value():
    assert misalignment_db(np.array([1.0, 0.0]), np.array([0.9, 0.0])) == pytest.approx(-20.0)


def test_misalignment_rejects_zero_true_path():
    with pytest.raises(ValueError, match="zero norm"):
        misalignment_db(np.zeros(3), np.ones(3))


# ------------------------------------------------------- echo and its phases


def lfilter_echo(x, schedule):
    """The clean echo through scipy's FIR filter: the oracle for _clean_echo."""
    clean = lfilter(schedule.initial.taps, [1.0], x)
    k = schedule.switch_iteration
    if k is not None and k < x.shape[0]:
        k = max(k, 0)
        clean[k:] = lfilter(schedule.switched.taps, [1.0], x)[k:]
    return clean


@st.composite
def echo_cases(draw):
    """An input record and a drawn block-sparse schedule; the record may be
    shorter than the path, and the switch may come at 0, mid-run, at or
    beyond the end, or never."""
    L = draw(st.sampled_from([1, 4, 16, 64, 128, 512]))
    n = draw(st.one_of(st.integers(1, L), st.just(L), st.integers(L, 5000)))
    seed = draw(st.integers(0, 2**32 - 1))

    def path(stream_id):
        offset = draw(st.integers(0, L - 1))
        size = draw(st.integers(1, L - offset))
        return make_block_sparse(L, [(offset, size)], SeededStream(seed, stream_id))

    switch = draw(
        st.one_of(
            st.none(), st.just(0), st.integers(1, max(1, n - 1)), st.integers(n, 2 * n)
        )
    )
    switched = None if switch is None else path(PATH_STREAM + 4)
    schedule = PathSchedule(path(PATH_STREAM), switched, switch)
    x = ar1_colored(n, draw(st.sampled_from([0.0, 0.8])), SeededStream(seed, 1))
    return x, schedule


@given(case=echo_cases())
def test_clean_echo_matches_lfilter_bitwise(case):
    x, schedule = case
    assert np.array_equal(_clean_echo(x, schedule), lfilter_echo(x, schedule))


def _switching_config(switch):
    initial = make_block_sparse(16, [(0, 4)], SeededStream(1), label="a")
    switched = make_block_sparse(16, [(8, 4)], SeededStream(2), label="b")
    schedule = PathSchedule(initial=initial, switched=switched, switch_iteration=switch)
    return small_config(schedule=schedule, iterations=200)


def test_phases_without_switch():
    config = small_config()
    [(taps, first, end)] = _phases(config)
    assert taps is config.schedule.initial.taps
    assert (first, end) == (0, config.iterations)


def test_phases_switch_from_iteration_zero():
    config = _switching_config(0)
    [(taps, first, end)] = _phases(config)
    assert taps is config.schedule.switched.taps
    assert (first, end) == (0, 200)


def test_phases_switch_boundary():
    config = _switching_config(100)
    (before, *_), (after, *_) = _phases(config)
    assert before is config.schedule.initial.taps
    assert after is config.schedule.switched.taps
    assert [phase[1:] for phase in _phases(config)] == [(0, 100), (100, 200)]
    # A switch at or beyond the end leaves only the initial path.
    for switch in (200, 10**6):
        late = _switching_config(switch)
        [(taps, first, end)] = _phases(late)
        assert taps is late.schedule.initial.taps
        assert (first, end) == (0, 200)


# ---------------------------------------------------------------- run_trial


def test_trace_starts_at_zero_db():
    trace = run_trial(small_config(iterations=1), 0)
    for t in trace.traces.values():
        assert t.shape == (1,)
        assert t[0] == 0.0


def test_trial_is_bit_deterministic():
    config = small_config()
    a = run_trial(config, 4)
    b = run_trial(config, 4)
    for name in config.algorithms:
        assert np.array_equal(a.traces[name], b.traces[name])


def test_zero_step_size_never_adapts():
    params = FilterParams(filter_length=16, projection_order=2, block_length=4, step_size=0.0)
    trace = run_trial(small_config(params=params, iterations=50), 0)
    for t in trace.traces.values():
        assert np.all(t == 0.0)


def test_algorithms_share_realizations():
    # Removing algorithms from the config must not change the others' traces.
    together = run_trial(small_config(), 1)
    alone = run_trial(small_config(algorithms=("mip-apsa",)), 1)
    assert np.array_equal(together.traces["mip-apsa"], alone.traces["mip-apsa"])


def test_distinct_trials_differ():
    config = small_config()
    a = run_trial(config, 0)
    b = run_trial(config, 1)
    assert not np.array_equal(a.traces["apsa"], b.traces["apsa"])


def test_switch_produces_misalignment_jump():
    L = 16
    initial = make_block_sparse(L, [(2, 4)], SeededStream(3, PATH_STREAM))
    switched = make_block_sparse(L, [(10, 4)], SeededStream(3, PATH_STREAM + 4))
    schedule = PathSchedule(initial=initial, switched=switched, switch_iteration=150)
    trace = run_trial(small_config(schedule=schedule, iterations=200), 0)
    t = trace.traces["apsa"]
    # Entry 150 is measured against the new path with weights adapted to the
    # old one: disjoint unit-norm supports put it near +3 dB.
    assert t[150] > t[149] + 3.0
    assert t[150] > 0.0


def test_update_norm_bounded_along_trajectory():
    from apsabench.filters import STEPPERS, FilterState

    config = small_config(iterations=200)
    params = config.params
    state = FilterState.zeros(params)
    rng = np.random.default_rng(0)
    for _ in range(config.iterations):
        before = state.weights.copy()
        STEPPERS["bs-mip-apsa"](state, params, rng.standard_normal(), rng.standard_normal())
        assert np.linalg.norm(state.weights - before) <= params.step_size


# ------------------------------------------------------------- run_ensemble


def test_single_trial_ensemble_equals_trial_zero():
    config = small_config(trials=1)
    ensemble = run_ensemble(config)
    trial = run_trial(config, 0)
    for name in config.algorithms:
        assert np.array_equal(ensemble.traces[name], trial.traces[name])
    assert ensemble.trials == 1


def test_ensemble_averaging_reduces_variance():
    config = small_config(algorithms=("apsa",), iterations=400, trials=20)
    finals = np.array(
        [run_trial(config, t).traces["apsa"][-1] for t in range(config.trials)]
    )
    group_means = finals.reshape(4, 5).mean(axis=1)
    assert group_means.var() < finals.var()


def test_ensemble_is_order_deterministic():
    config = small_config(trials=3)
    a = run_ensemble(config)
    b = run_ensemble(config)
    for name in config.algorithms:
        assert np.array_equal(a.traces[name], b.traces[name])


# ------------------------------------------------------------------ wav input


def test_wav_input_drives_a_trial(tmp_path):
    wav = tmp_path / "input.wav"
    save_wav(speech_like(2000, SeededStream(5)), wav)
    config = small_config(input_kind="wav", wav_path=str(wav), iterations=1500,
                          algorithms=("apsa",), trials=1)
    trace = run_trial(config, 0)
    t = trace.traces["apsa"]
    assert t.shape == (1500,)
    assert t[-1] < -3.0  # it adapts on speech-like input too


def test_wav_shorter_than_run_is_rejected(tmp_path):
    wav = tmp_path / "short.wav"
    save_wav(speech_like(100, SeededStream(5)), wav)
    config = small_config(input_kind="wav", wav_path=str(wav), iterations=1500)
    with pytest.raises(ValueError, match="samples"):
        run_trial(config, 0)


def test_config_requires_wav_path_for_wav_input():
    with pytest.raises(ValueError, match="wav_path"):
        small_config(input_kind="wav")


def test_config_rejects_mismatched_path_length():
    schedule = PathSchedule(initial=make_block_sparse(32, [(2, 8)], SeededStream(1)))
    with pytest.raises(ValueError, match="filter_length"):
        small_config(schedule=schedule)


def test_config_rejects_unknown_algorithm():
    with pytest.raises(ValueError, match="unknown algorithm"):
        small_config(algorithms=("apsa", "rls"))


# ----------------------------------------------- qualitative behavior (slow)


def test_block_balanced_reproduces_qualitative_ordering():
    # Mid-convergence snapshot of the headline experiment with the
    # block-balanced gain variant: the block-sparse algorithm converges
    # fastest, the per-tap proportionate one second, uniform APSA last.
    L = 128
    params = FilterParams(
        filter_length=L, projection_order=2, block_length=4, step_size=0.001,
        gain_variant=GainVariant.BLOCK_BALANCED,
    )
    schedule = PathSchedule(initial=make_block_sparse(L, [(24, 32)], SeededStream(7, PATH_STREAM)))
    config = ExperimentConfig(
        params=params, schedule=schedule, input_kind="ar1", pole=0.8,
        noise=NoiseModel(), iterations=8000, trials=3, base_seed=7,
    )
    trace = run_ensemble(config)
    apsa = trace.traces["apsa"][-1]
    mip = trace.traces["mip-apsa"][-1]
    bs = trace.traces["bs-mip-apsa"][-1]
    assert bs < mip < apsa
