"""The batched ensemble engine against the per-sample steppers.

The reference below is the per-sample loop the harness ran before the
engine existed: every algorithm's stepper from ``STEPPERS`` advanced one
sample at a time, with ``misalignment_db`` taken against the active path
before each step.  The engine may sum its dot products in another order,
so weights must agree within 1e-12 relative and traces within 1e-9 dB;
row 0 is a cold start and must read exactly 0.0 dB.  The engine returns
trial sums, so per-trial traces are checked through ``run_trial`` and the
batch over trials through the ensemble mean.
"""

import decimal
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

from apsabench import filters, harness
from apsabench.audio import load_wav, save_wav
from apsabench.echo_path import PathSchedule, make_block_sparse, phases
from apsabench.filters import (
    STEPPERS,
    FilterParams,
    FilterState,
    GainVariant,
    _batch_dot,
    _steps,
    normalized_update,
)
from apsabench.harness import (
    MISALIGNMENT_FLOOR_DB,
    PATH_STREAM,
    SWITCHED_PATH_STREAM,
    ExperimentConfig,
    _add_db,
    _run_batch,
    misalignment_db,
    run_ensemble,
    run_trial,
)
from apsabench.signals import NoiseModel, SeededStream, speech_like

L = 16
ALL = ("apsa", "mip-apsa", "bs-mip-apsa")


def reference_trial(config, trial_index):
    """Per-algorithm (dB trace, final weights) from the per-sample steppers."""
    wav = load_wav(config.wav_path)[: config.iterations] if config.input_kind == "wav" else None
    x, y = harness._realization(config, trial_index, wav)
    schedule = config.schedule
    k = schedule.switch_iteration
    out = {}
    for name in config.algorithms:
        stepper = STEPPERS[name]
        state = FilterState.zeros(config.params)
        trace = np.empty(config.iterations)
        for i in range(config.iterations):
            active = schedule.initial if k is None or i < k else schedule.switched
            trace[i] = misalignment_db(active.taps, state.weights)
            stepper(state, config.params, x[i], y[i])
        out[name] = (trace, state.weights)
    return out


def make_config(
    algorithms=ALL,
    trials=3,
    iterations=240,
    switch=120,
    projection_order=2,
    block_length=4,
    variant=GainVariant.MIP_CONSISTENT,
    regularizer=0.01,
    input_kind="ar1",
    wav_path=None,
):
    params = FilterParams(
        filter_length=L,
        projection_order=projection_order,
        block_length=block_length,
        step_size=0.02,
        gain_regularizer=regularizer,
        update_regularizer=regularizer,
        gain_variant=variant,
    )
    initial = make_block_sparse(L, [(2, 6)], SeededStream(5, PATH_STREAM))
    switched = None
    if switch is not None:
        switched = make_block_sparse(L, [(9, 6)], SeededStream(5, SWITCHED_PATH_STREAM))
    return ExperimentConfig(
        params=params,
        schedule=PathSchedule(initial=initial, switched=switched, switch_iteration=switch),
        algorithms=algorithms,
        input_kind=input_kind,
        wav_path=wav_path,
        noise=NoiseModel(snr_db=30.0, sir_db=0.0, impulse_probability=0.1),
        iterations=iterations,
        trials=trials,
        base_seed=5,
    )


def relative_gap(a, b):
    # Divided by the largest magnitude first: the norm of a vector near
    # 1e-163 would underflow to 0, and read as no gap at all.
    c = max(np.max(np.abs(a)), np.max(np.abs(b)))
    if c == 0.0:
        return 0.0
    a, b = a / c, b / c
    return np.linalg.norm(a - b) / max(np.linalg.norm(a), np.linalg.norm(b))


def assert_matches_reference(config):
    A, T = len(config.algorithms), config.trials
    total, weights = _run_batch(config, range(T))
    assert total.shape == (config.iterations, A)
    assert weights.shape == (A, T, L)
    reference = [reference_trial(config, t) for t in range(T)]
    for a, name in enumerate(config.algorithms):
        assert total[0, a] == 0.0 and not np.signbit(total[0, a])
        ref_mean = np.mean([reference[t][name][0] for t in range(T)], axis=0)
        np.testing.assert_allclose(total[:, a] / T, ref_mean, rtol=0.0, atol=1e-9)
        for t in range(T):
            ref_trace, ref_weights = reference[t][name]
            assert relative_gap(weights[a, t], ref_weights) <= 1e-12, (name, t)
            trace = run_trial(config, t).traces[name]
            assert trace[0] == 0.0 and not np.signbit(trace[0])
            np.testing.assert_allclose(trace, ref_trace, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("variant", list(GainVariant))
def test_engine_matches_steppers_for_every_gain_variant(variant):
    assert_matches_reference(make_config(variant=variant))


@pytest.mark.parametrize("projection_order", [1, 2, 3])
def test_engine_matches_steppers_for_projection_order(projection_order):
    assert_matches_reference(make_config(projection_order=projection_order))


@pytest.mark.parametrize("block_length", [1, 4, L])
def test_engine_matches_steppers_for_block_length(block_length):
    assert_matches_reference(make_config(block_length=block_length))


@pytest.mark.parametrize("switch", [0, 120, None])
def test_engine_matches_steppers_across_switches(switch):
    assert_matches_reference(make_config(switch=switch))


@pytest.mark.parametrize("trials", [1, 3])
@pytest.mark.parametrize("algorithm", ALL)
def test_engine_matches_steppers_for_one_algorithm(algorithm, trials):
    # trials=1 is one filter: APSA runs the single-filter loop, MIP-APSA and
    # BS-MIP-APSA a batch of shape (1, 1).
    assert_matches_reference(make_config(algorithms=(algorithm,), trials=trials))


@pytest.mark.parametrize("projection_order", [1, 3])
@pytest.mark.parametrize("algorithm", ALL)
def test_engine_batch_of_one_matches_for_projection_order(algorithm, projection_order):
    # The single-filter loop serves projection order 2 only: at orders 1
    # and 3 every algorithm, APSA too, runs a batch of shape (1, 1).
    config = make_config(algorithms=(algorithm,), trials=1, projection_order=projection_order)
    assert_matches_reference(config)


@pytest.mark.parametrize("trials", [1, 3])
def test_engine_matches_steppers_on_wav_input(tmp_path, trials):
    # Leading silence gives zero regressors, zero directions and, with both
    # regularizers at 0, the zero-denominator gain branch.
    samples = np.concatenate([np.zeros(40), speech_like(400, SeededStream(9))])
    wav = tmp_path / "input.wav"
    save_wav(samples, wav)
    for algorithms in (ALL, ("apsa",)):
        config = make_config(
            algorithms=algorithms, trials=trials, input_kind="wav",
            wav_path=str(wav), regularizer=0.0,
        )
        assert_matches_reference(config)


@pytest.mark.parametrize("regularizer", [0.0, 0.01])
@pytest.mark.parametrize("trials", [1, 3])
def test_engine_steps_through_digital_silence(tmp_path, trials, regularizer):
    # A silent stretch longer than L + M makes every direction of a step
    # exactly zero, in every filter at once since all trials read the same
    # WAV.  At delta = 0.01 such a step is the formula's mu * 0 / sqrt(delta);
    # at delta = 0 its denominator is 0, and _steps gives the zero row no
    # step.  Either way w + 0 is w.
    samples = np.concatenate(
        [speech_like(150, SeededStream(9)), np.zeros(3 * L), speech_like(150, SeededStream(10))]
    )
    wav = tmp_path / "input.wav"
    save_wav(samples, wav)
    config = make_config(
        trials=trials, iterations=len(samples), switch=170, input_kind="wav",
        wav_path=str(wav), regularizer=regularizer,
    )
    assert_matches_reference(config)


@pytest.mark.parametrize("trials", [1, 3])
def test_engine_matches_steppers_without_regularizers(trials):
    assert_matches_reference(make_config(regularizer=0.0, trials=trials))
    assert_matches_reference(make_config(algorithms=("bs-mip-apsa",), regularizer=0.0, trials=1))


@pytest.mark.parametrize("trials", [1, 2, 8, 10, 37])
def test_add_db_adds_trials_one_after_another(trials):
    # The loop below is the reference: one trial at a time, in order.  From
    # 8 trials on, a reduction over the trial axis of a (K, A, T) array
    # would sum pairwise and change the bits.
    rng = np.random.default_rng(trials)
    squared = rng.uniform(1e-9, 10.0, (8, 3, trials))
    squared[2, 1, 0] = 0.0  # reads the floor
    den = np.array([2.5])
    total = rng.uniform(-500.0, 0.0, (8, 3))
    expected = total.copy()
    with np.errstate(divide="ignore"):
        db = np.maximum(10.0 * np.log10(squared / den), MISALIGNMENT_FLOOR_DB)
    for t in range(trials):
        expected += db[..., t]
    _add_db(squared, den, total)
    assert np.array_equal(total, expected)


@pytest.mark.parametrize("projection_order", [1, 2, 3])
def test_a_column_does_not_depend_on_the_other_algorithms(projection_order):
    # Each algorithm owns one row of the gain slab and of the memory, APSA's
    # rows holding unit gains: a run of any subset in the batched loop gives
    # bitwise the columns and weights of the full run.  Over one trial at
    # projection order 2, APSA alone runs the single-filter loop instead and
    # is not compared.
    subsets = [s for r in (1, 2) for s in itertools.combinations(ALL, r)]
    for trials in (2, 1):
        config = make_config(trials=trials, projection_order=projection_order)
        full_total, full_weights = _run_batch(config, range(trials))
        for subset in subsets:
            if trials == 1 and subset == ("apsa",) and projection_order == 2:
                continue
            sub = make_config(algorithms=subset, trials=trials, projection_order=projection_order)
            total, weights = _run_batch(sub, range(trials))
            for a, name in enumerate(subset):
                column = ALL.index(name)
                assert np.array_equal(total[:, a], full_total[:, column]), (subset, trials)
                assert np.array_equal(weights[a], full_weights[column]), (subset, trials)


def test_ensemble_is_the_trial_order_mean_of_trials():
    config = make_config()
    ensemble = run_ensemble(config)
    for name in config.algorithms:
        expected = np.zeros(config.iterations)
        for t in range(config.trials):
            expected += run_trial(config, t).traces[name]
        np.testing.assert_allclose(
            ensemble.traces[name], expected / config.trials, rtol=0.0, atol=1e-12
        )


@pytest.mark.parametrize("trials", [1, 3])
def test_nan_desired_sample_poisons_like_the_stepper(monkeypatch, trials):
    # A NaN must stay NaN through the zero-energy shortcut, as in the stepper.
    clean_realization = harness._realization

    def poisoned(config, trial_index, wav):
        x, y = clean_realization(config, trial_index, wav)
        y = y.copy()
        y[30] = np.nan
        return x, y

    monkeypatch.setattr(harness, "_realization", poisoned)
    config = make_config(algorithms=("apsa",), trials=trials)
    total, weights = _run_batch(config, range(trials))
    reference = [reference_trial(config, t)["apsa"][0] for t in range(trials)]
    assert np.all(np.isnan(reference[0][31:]))
    assert np.all(np.isnan(total[31:]))
    np.testing.assert_allclose(
        total[:31, 0] / trials, np.mean(reference, axis=0)[:31], rtol=0.0, atol=1e-9
    )
    assert np.all(np.isnan(weights))


@pytest.mark.parametrize("trials", [1, 3])
def test_apsa_alone_matches_steppers_at_projection_order_3(trials):
    # APSA alone runs the batched loop at projection order 3, over one
    # trial as over several: its memory rows are the regressors times unit
    # gains.
    assert_matches_reference(make_config(algorithms=("apsa",), trials=trials, projection_order=3))


@pytest.mark.parametrize("algorithm", ["apsa", "mip-apsa"])
def test_single_filter_zero_directions_without_regularizer(tmp_path, algorithm):
    # With delta = 0 a zero direction must leave the weights alone instead
    # of dividing by zero: leading silence gives zero directions.
    samples = np.concatenate([np.zeros(40), speech_like(400, SeededStream(9))])
    wav = tmp_path / "input.wav"
    save_wav(samples, wav)
    config = make_config(
        algorithms=(algorithm,), trials=1, input_kind="wav", wav_path=str(wav), regularizer=0.0
    )
    assert_matches_reference(config)
    trace = run_trial(config, 0).traces[algorithm]
    assert np.all(trace[:41] == 0.0)


def single_loop_reference(config):
    """Totals, final weights and the residual signs seen, for one APSA filter
    over trial 0, by the single-filter statements that formed every step's
    residuals, signs, direction and energy with numpy.  ``_steps`` takes
    the energy itself, by ``_batch_dot``; each step checks that it is
    bitwise the BLAS dot of ``np.dot``."""
    params = config.params
    L, M, N = params.filter_length, params.projection_order, config.iterations
    wav = harness._wav_input(config) if config.input_kind == "wav" else None
    x, y = harness._realization(config, 0, wav)
    xs, ys = np.zeros(N + L + M - 2), np.zeros(N + M - 1)
    xs[N - 1 :: -1], ys[N - 1 :: -1] = x, y
    windows = sliding_window_view(xs, L)
    history = np.zeros((N + 1, L))
    errors, direction = np.empty(M), np.empty(L)
    signs = set()
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(N):
            i = N - 1 - n
            regressors = windows[i : i + M]
            np.matmul(regressors, history[n], errors)
            np.subtract(ys[i : i + M], errors, errors)
            np.sign(errors, errors)
            signs.add(tuple(errors[:2].tolist()))
            np.dot(errors, regressors, direction)
            energy = np.float64(np.dot(direction, direction)).tobytes()
            assert _batch_dot(direction, direction).tobytes() == energy, n
            step = _steps(direction, params.step_size, params.update_regularizer)
            np.add(history[n], step, history[n + 1])
    total = np.zeros((N, 1))
    for taps, first, end in phases(config.schedule, N):
        diffs = taps - history[first:end]
        squared = _batch_dot(diffs, diffs).reshape(-1, 1, 1)
        _add_db(squared, _batch_dot(taps, taps), total[first:end])
    return total, history[N], signs


@pytest.mark.parametrize("regularizer", [0.0, 0.01])
@pytest.mark.parametrize("projection_order", [1, 2, 3])
def test_single_filter_loop_is_bitwise_the_numpy_statements(
    monkeypatch, tmp_path, projection_order, regularizer
):
    # At M = 2 the single-filter loop takes a step's direction and energy
    # from per-chunk tables of regressor rows (x0 + x1 and x0 - x1);
    # with signs in {-1, 0, 1} these are the same doubles as the numpy
    # direction.  A sign 0 takes its step from _steps on that direction.
    # At M = 1 and 3 one APSA filter runs the batched loop, which must give
    # the same bits.  Runs of exact zeros in the input, without noise, give
    # zero residuals: every sign pair, (0, 0) included.  With noise they
    # give zero rows under nonzero signs.  Scaled to 1e-162, a table row's
    # energy is 0, and scaled to 1e160 it is inf: _steps rescales a row
    # whose delta + e is below tiny or inf, as it does the stepper's
    # direction.  A budget of 192 history rows (64 per chunk at M = 2,
    # which keeps two table rows per step) makes 997 iterations end
    # mid-chunk and the switch at 500 fall mid-chunk.
    bursts = [speech_like(80, SeededStream(seed)) for seed in range(12)]
    wav = tmp_path / "silences.wav"
    save_wav(np.concatenate([np.concatenate([np.zeros(L + 9), b]) for b in bursts]), wav)
    monkeypatch.setattr(harness, "_HISTORY_BYTES", 192 * L * 8)
    realization = harness._realization
    for noise, scale in itertools.product((False, True), (1.0, 1e-162, 1e160)):
        config = make_config(
            algorithms=("apsa",), trials=1, iterations=997, switch=500,
            projection_order=projection_order, regularizer=regularizer,
            input_kind="wav", wav_path=str(wav),
        )
        with monkeypatch.context() as mp:
            if not noise:
                mp.setattr(harness, "_noise_record", lambda clean, *args: np.zeros_like(clean))
            mp.setattr(harness, "_realization",
                       lambda *args: tuple(scale * r for r in realization(*args)))
            total, weights = _run_batch(config, range(1))
            ref_total, ref_weights, signs = single_loop_reference(config)
        assert np.array_equal(total, ref_total), (noise, scale)
        assert np.array_equal(weights[0, 0], ref_weights), (noise, scale)
        if not noise:
            expected = set(itertools.product((-1.0, 0.0, 1.0), repeat=min(projection_order, 2)))
            assert signs == expected


@pytest.mark.parametrize("rows", [1, 7])
@pytest.mark.parametrize("algorithms, trials", [(ALL, 3), (("apsa",), 1)])
def test_engine_with_a_small_weight_history(monkeypatch, rows, algorithms, trials):
    # A budget of 7 rows puts the switch at 120 inside a chunk.  A step of
    # the single-filter loop takes a history row and two table rows.
    per_step = 3 if algorithms == ("apsa",) else len(algorithms) * trials
    monkeypatch.setattr(harness, "_HISTORY_BYTES", rows * per_step * L * 8)
    assert_matches_reference(make_config(algorithms=algorithms, trials=trials))


def test_wav_file_is_read_once_per_run(monkeypatch, tmp_path):
    wav = tmp_path / "input.wav"
    save_wav(speech_like(400, SeededStream(9)), wav)
    config = make_config(trials=4, input_kind="wav", wav_path=str(wav))
    reads = []

    def counting_load_wav(path):
        reads.append(path)
        return load_wav(path)

    monkeypatch.setattr(harness, "load_wav", counting_load_wav)
    ensemble = run_ensemble(config)
    assert len(reads) == 1
    reference = [reference_trial(config, t) for t in range(config.trials)]
    for name in config.algorithms:
        expected = np.mean([reference[t][name][0] for t in range(config.trials)], axis=0)
        np.testing.assert_allclose(ensemble.traces[name], expected, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("stage", ["ar1_colored", "_noise_record"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_realization_is_rejected(monkeypatch, stage, bad):
    # make_config's input is AR(1), so ar1_colored draws it.
    original = getattr(harness, stage)

    def poisoned(*args):
        out = original(*args).copy()
        out[17] = bad
        return out

    monkeypatch.setattr(harness, stage, poisoned)
    name = "input" if stage == "ar1_colored" else "desired signal"
    with pytest.raises(ValueError, match=f"trial 0: the {name} has non-finite samples"):
        run_ensemble(make_config())


@settings(max_examples=40, deadline=None)
@given(
    samples=arrays(np.float64, (2, 2, 12), elements=st.floats(-1e300, 1e300)),
    projection_order=st.integers(1, 3),
    regularizer=st.sampled_from([0.0, 0.01]),
)
def test_large_finite_samples_keep_weights_finite_and_steps_bounded(
    samples, projection_order, regularizer
):
    # samples[t] is trial t's (x, y).  The steppers are checked step by
    # step; the engine through the weights after every prefix of the run,
    # batched (3 algorithms x 2 trials) and as a single filter.  A step of
    # mu * d / sqrt(delta + |d|^2) has norm mu itself when delta is 0 or
    # negligible next to |d|^2, so its measured norm may exceed mu by
    # rounding: the bound allows 1e-12 relative.
    n = samples.shape[-1]
    config = make_config(
        trials=2, iterations=n, switch=None,
        projection_order=projection_order, regularizer=regularizer,
    )
    params = config.params
    bound = params.step_size * (1.0 + 1e-12)
    for name in ALL:
        for x, y in samples:
            state = FilterState.zeros(params)
            for i in range(n):
                before = state.weights.copy()
                STEPPERS[name](state, params, x[i], y[i])
                assert np.all(np.isfinite(state.weights)), (name, i)
                assert np.linalg.norm(state.weights - before) <= bound, (name, i)

    def realization(config, trial_index, *wav):
        x, y = samples[trial_index]
        return x[: config.iterations], y[: config.iterations]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "_realization", realization)
        for algorithms, trials in [(ALL, 2)] + [((name,), 1) for name in ALL]:
            before = np.zeros((len(algorithms), trials, L))
            for k in range(1, n + 1):
                prefix = make_config(
                    algorithms=algorithms, trials=trials, iterations=k, switch=None,
                    projection_order=projection_order, regularizer=regularizer,
                )
                total, weights = _run_batch(prefix, range(trials))
                assert np.all(np.isfinite(total)) and np.all(np.isfinite(weights))
                steps = np.linalg.norm(weights - before, axis=-1)
                assert np.all(steps <= bound), (algorithms, k, steps.max())
                before = weights


def decimal_step(d, mu, delta):
    """mu * d / sqrt(delta + d @ d) in 40 decimal digits, whose exponent
    range holds the energy of any finite d."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        exact = [decimal.Decimal(float(x)) for x in d]
        norm = (decimal.Decimal(delta) + sum(x * x for x in exact)).sqrt()
        return np.array([float(decimal.Decimal(mu) * x / norm) for x in exact])


def assert_steps_at_input_scale(monkeypatch, scale, regularizer):
    """The steppers are checked step by step against the decimal step of
    their direction; the batched engine (3 algorithms x 1 trial), the single
    filter and a batch of 3 algorithms x 3 trials against their final
    weights.  That batch's trial 0 is the record at ``scale`` and its trials
    1 and 2 are at scale 1 and 1e-3, so in one step some filters may take
    the rescale and others not."""
    rng = np.random.default_rng(3)
    n = 6
    records = [
        (s * rng.choice([-1.0, 1.0], n) * rng.uniform(0.5, 1.0, n), s * rng.standard_normal(n))
        for s in (scale, 1.0, 1e-3)
    ]
    config = make_config(trials=1, iterations=n, switch=None, regularizer=regularizer)
    mu = config.params.step_size
    directions = []

    def recording_update(weights, direction, *args):
        directions.append(direction)
        return normalized_update(weights, direction, *args)

    reference = {}
    with monkeypatch.context() as mp:
        mp.setattr(filters, "normalized_update", recording_update)
        for name in ALL:
            for t, (x, y) in enumerate(records):
                state = FilterState.zeros(config.params)
                for i in range(n):
                    before = state.weights.copy()
                    STEPPERS[name](state, config.params, x[i], y[i])
                    step = state.weights - before
                    expected = decimal_step(directions[-1], mu, regularizer)
                    assert relative_gap(step, expected) <= 1e-12, (name, t, i)
                    if regularizer == 0.0:
                        assert np.linalg.norm(step) == pytest.approx(mu, rel=1e-12), (name, t, i)
                reference[name, t] = state.weights
    monkeypatch.setattr(harness, "_realization", lambda config, t, wav: records[t])
    _, weights = _run_batch(config, range(1))
    singles = [
        _run_batch(make_config(algorithms=(name,), trials=1, iterations=n, switch=None,
                               regularizer=regularizer), range(1))[1][0, 0]
        for name in ALL
    ]
    _, mixed = _run_batch(
        make_config(trials=3, iterations=n, switch=None, regularizer=regularizer), range(3)
    )
    for a, name in enumerate(ALL):
        assert relative_gap(weights[a, 0], reference[name, 0]) <= 1e-12, name
        assert relative_gap(singles[a], reference[name, 0]) <= 1e-12, name
        for t in range(3):
            assert relative_gap(mixed[a, t], reference[name, t]) <= 1e-12, (name, t)


@pytest.mark.parametrize("scale", [1e-162, 1e-160, 1e160, 1e300])
def test_steps_keep_norm_mu_at_extreme_input_scales(monkeypatch, scale):
    # With no regularizer the normalized step is scale-free: every step has
    # norm mu whatever the input's scale.  At 1e-160 the direction energy
    # d @ d is subnormal, at 1e-162 it is 0 although d is not, and at 1e160
    # and 1e300 it overflows to inf; _steps rescales all of these.  The
    # overflow is handled, so it must not warn either.
    assert_steps_at_input_scale(monkeypatch, scale, 0.0)


@pytest.mark.parametrize("scale", [1e-162, 1e-160])
def test_steps_move_at_tiny_input_scales_with_a_regularizer(monkeypatch, scale):
    # At delta = 0.01, delta + d @ d is delta to rounding, so every step is
    # about mu * d / sqrt(delta): small, but not 0.  No row is rescaled.
    assert_steps_at_input_scale(monkeypatch, scale, 0.01)
