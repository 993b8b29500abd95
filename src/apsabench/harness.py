"""Single trials and seeded ensembles of the system-identification benchmark.

A trial generates one input/noise realization, synthesizes the desired signal
through the (possibly switching) true path, and advances every selected
algorithm over the identical sample stream, recording normalized misalignment
per iteration.  An ensemble averages the per-iteration dB traces over trials.
Every trial and algorithm of a run advances in one batched engine, one Python
iteration per sample; the per-sample steppers of ``filters`` are its reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
# Bare names for the per-sample loop: it runs once per sample, and a module
# attribute lookup per call is a measurable share of a small step.
from numpy import add, divide, einsum, matmul, multiply, sign, sqrt, subtract
from numpy.lib.stride_tricks import sliding_window_view

from apsabench.audio import load_wav
from apsabench.echo_path import PathSchedule
from apsabench.filters import _TINY, STEPPERS, FilterParams, _step_scale, gain_rule
from apsabench.signals import (
    NoiseModel,
    SeededStream,
    ar1_colored,
    bernoulli_gaussian,
    scale_to_ratio,
    signal_power,
    white_gaussian,
)

# Substream layout: the echo path draws from stream 0 (shared by all trials,
# so every trial identifies the same system); per-trial streams use
# 4*trial + role, which never collides with 0.
PATH_STREAM = 0
_INPUT_ROLE = 1
_BACKGROUND_ROLE = 2
_IMPULSE_ROLE = 3

MISALIGNMENT_FLOOR_DB = -300.0

# The engine copies the weights entering each iteration into a history of
# at most _CHUNK rows and at most _HISTORY_BYTES, then turns the whole
# history into |h - w|^2, dB and trial sums at once.  The byte budget is
# about what 1024 iterations of per-trial misalignment took at 30 filters,
# so that many filters do not raise the peak memory.
_CHUNK = 1024
_HISTORY_BYTES = 256 * 1024

INPUT_KINDS = ("white", "ar1", "wav")


def trial_stream(base_seed: int, trial_index: int, role: int) -> SeededStream:
    return SeededStream(base_seed, 4 * trial_index + role)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; algorithms share one realization per trial."""

    params: FilterParams
    schedule: PathSchedule
    algorithms: tuple[str, ...] = ("apsa", "mip-apsa", "bs-mip-apsa")
    input_kind: str = "ar1"
    pole: float = 0.8
    wav_path: str | None = None
    noise: NoiseModel = field(default_factory=NoiseModel)
    iterations: int = 100_000
    trials: int = 10
    base_seed: int = 1
    normalize_path: bool = True  # how the schedule's taps were drawn, for the manifest echo

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not self.algorithms:
            raise ValueError("at least one algorithm must be selected")
        for name in self.algorithms:
            if name not in STEPPERS:
                raise ValueError(
                    f"unknown algorithm '{name}'; choose from {sorted(STEPPERS)}"
                )
        if len(set(self.algorithms)) != len(self.algorithms):
            raise ValueError("algorithm list contains duplicates")
        if self.input_kind not in INPUT_KINDS:
            raise ValueError(
                f"unknown input kind '{self.input_kind}'; choose from {INPUT_KINDS}"
            )
        if self.input_kind == "wav" and not self.wav_path:
            raise ValueError("input kind 'wav' requires wav_path")
        if self.schedule.initial.length != self.params.filter_length:
            raise ValueError(
                f"echo path length ({self.schedule.initial.length}) must equal "
                f"filter_length ({self.params.filter_length})"
            )


@dataclass
class MisalignmentTrace:
    """Per-algorithm misalignment in dB, one entry per iteration.

    Entry n is the misalignment of the weights entering iteration n, measured
    against the true path active at n; entry 0 is therefore always 0 dB for a
    zero-initialized filter.
    """

    traces: dict[str, np.ndarray]
    iterations: int
    trials: int


def misalignment_db(true_taps: np.ndarray, estimated: np.ndarray) -> float:
    """Normalized misalignment 10*log10(|h - h_est|^2 / |h|^2), floored.

    The floor (-300 dB) stands in for minus infinity when the estimate is
    exact, keeping traces finite and serializable.
    """
    diff = true_taps - estimated
    num = float(diff @ diff)
    den = float(true_taps @ true_taps)
    if den == 0.0:
        raise ValueError("true path has zero norm; misalignment is undefined")
    if num == 0.0:
        return MISALIGNMENT_FLOOR_DB
    return max(10.0 * math.log10(num / den), MISALIGNMENT_FLOOR_DB)


def _wav_input(config: ExperimentConfig) -> np.ndarray:
    """The first ``iterations`` samples of the run's WAV file."""
    n = config.iterations
    samples = load_wav(config.wav_path)
    if samples.shape[0] < n:
        raise ValueError(
            f"{config.wav_path}: {samples.shape[0]} samples, but the run needs "
            f"{n}; shorten the run or supply a longer file"
        )
    return samples[:n]


def _input_signal(
    config: ExperimentConfig, stream: SeededStream, wav: np.ndarray | None
) -> np.ndarray:
    n = config.iterations
    if config.input_kind == "white":
        return white_gaussian(n, 1.0, stream)
    if config.input_kind == "ar1":
        return ar1_colored(n, config.pole, stream)
    return _wav_input(config) if wav is None else wav


def _clean_echo(x: np.ndarray, schedule: PathSchedule) -> np.ndarray:
    """Noiseless echo x * h(n), honoring the path switch mid-record.

    The taps are the first operand, as in scipy's FIR ``lfilter``: for
    operands of equal length numpy's summation order follows the operand
    order, so only this order gives ``lfilter(taps, [1], x)`` bit for bit
    at every record length.
    """
    n = x.shape[0]
    clean = np.convolve(schedule.initial.taps, x)[:n]
    k = schedule.switch_iteration
    if k is not None and k < n:
        k = max(k, 0)
        clean[k:] = np.convolve(schedule.switched.taps, x)[k:n]
    return clean


def _noise_record(
    clean: np.ndarray, noise: NoiseModel, base_seed: int, trial_index: int
) -> np.ndarray:
    # Components with zero empirical power are added as-is (zeros), and a
    # zero-power clean record (possible in runs shorter than the bulk delay)
    # leaves the raw sigmas uncalibrated: both make the target ratio undefined.
    n = clean.shape[0]
    clean_power = signal_power(clean)
    v = np.zeros(n)
    background = white_gaussian(
        n, noise.background_sigma, trial_stream(base_seed, trial_index, _BACKGROUND_ROLE)
    )
    if signal_power(background) > 0.0:
        if noise.snr_db is not None and clean_power > 0.0:
            background = scale_to_ratio(clean, background, noise.snr_db)
        v += background
    impulses = bernoulli_gaussian(
        n,
        noise.impulse_probability,
        noise.impulse_sigma,
        trial_stream(base_seed, trial_index, _IMPULSE_ROLE),
    )
    if signal_power(impulses) > 0.0:
        if noise.sir_db is not None and clean_power > 0.0:
            impulses = scale_to_ratio(clean, impulses, noise.sir_db)
        v += impulses
    return v


def _realization(
    config: ExperimentConfig, trial_index: int, wav: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Input x and desired signal y of one trial; every algorithm sees both.

    ``wav`` is the run's WAV input when the caller has already read it;
    otherwise a WAV run reads the file here.  Non-finite samples raise
    ValueError, since one NaN or inf would poison the weights for good.
    """
    stream = trial_stream(config.base_seed, trial_index, _INPUT_ROLE)
    x = _input_signal(config, stream, wav)
    clean = _clean_echo(x, config.schedule)
    y = clean + _noise_record(clean, config.noise, config.base_seed, trial_index)
    for name, signal in (("input", x), ("desired signal", y)):
        if not np.all(np.isfinite(signal)):
            raise ValueError(f"trial {trial_index}: the {name} has non-finite samples")
    return x, y


def _phases(config: ExperimentConfig) -> list[tuple[np.ndarray, int, int]]:
    """(active taps, first iteration, end) for each nonempty stretch of the run."""
    schedule, n = config.schedule, config.iterations
    k = schedule.switch_iteration
    if k is None:
        return [(schedule.initial.taps, 0, n)]
    k = min(max(k, 0), n)
    phases = [(schedule.initial.taps, 0, k), (schedule.switched.taps, k, n)]
    return [phase for phase in phases if phase[1] < phase[2]]


def _batch_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Row-wise dot products over the last axis, kept as a length-1 axis.
    return (a[..., None, :] @ b[..., :, None])[..., 0]


def _add_db(squared_errors: np.ndarray, den, total: np.ndarray) -> None:
    """Turn rows of |h - w|^2, shape (K, A, T), into dB in place and add
    them to ``total`` (K, A) one trial after another."""
    squared_errors /= den
    with np.errstate(divide="ignore"):
        np.log10(squared_errors, out=squared_errors)
    squared_errors *= 10.0
    np.maximum(squared_errors, MISALIGNMENT_FLOOR_DB, out=squared_errors)
    # Trials first and outermost in memory, so that the reduction adds them
    # in order; over the last axis numpy would sum pairwise.
    by_trial = np.ascontiguousarray(squared_errors.transpose(2, 0, 1))
    by_trial[0] += total
    np.add.reduce(by_trial, axis=0, out=total)


def _run_batch(
    config: ExperimentConfig, trial_indices: range
) -> tuple[np.ndarray, np.ndarray]:
    """Sum over the trials of the dB misalignment traces, shape (N, A), and
    the final weights, shape (A, T, L).

    All A x T filters advance together, one Python iteration per sample.
    Each filter follows its per-sample stepper in ``filters.STEPPERS``; only
    the summation order of the dot products may differ.  The algorithms
    differ only in their gains: one (A, T, L) slab holds them, all ones for
    APSA, and the newest row of the memory of gain-weighted regressors is
    that slab times the newest regressors.  A run of APSA alone takes its
    direction from the regressors and keeps no memory.  With a single
    filter the batch axes are dropped, and the loop runs on 1-D and 2-D
    arrays with plain matrix products and a step size in Python floats.
    """
    params = config.params
    L, M, N = params.filter_length, params.projection_order, config.iterations
    A, T = len(config.algorithms), len(trial_indices)
    # Row t of xs is trial t's input reversed in time, followed by the
    # L + M - 2 zeros that stand for the samples before time 0; likewise ys
    # with M - 1 zeros.  Every trial reads the same WAV samples, so the file
    # is read once.
    xs = np.zeros((T, N + L + M - 2))
    ys = np.zeros((T, N + M - 1))
    wav = (_wav_input(config),) if config.input_kind == "wav" else ()
    for row, t in enumerate(trial_indices):
        x, y = _realization(config, t, *wav)
        xs[row, N - 1 :: -1] = x
        ys[row, N - 1 :: -1] = y
    # At iteration n, with i = N - 1 - n, windows[i + j] is the regressor of
    # j samples ago (newest tap first) and ys[i + j] its desired sample.
    # Time runs along the first axis, so one plain slice serves every trial.
    windows = sliding_window_view(xs, L, axis=1).transpose(1, 0, 2)
    batch = (A, T) if A * T > 1 else ()
    # The history holds the weights entering each iteration of a chunk: the
    # step of row k writes row k + 1.  At most _CHUNK rows and
    # _HISTORY_BYTES, plus the row that carries into the next chunk.
    chunk = max(1, min(_CHUNK, _HISTORY_BYTES // (A * T * L * 8)))
    rows = min(N, chunk)
    history = np.zeros((rows + 1,) + batch + (L,))
    rules = [(a, gain_rule(name, params)) for a, name in enumerate(config.algorithms)]
    rules = [((a,) if batch else (), rule) for a, rule in rules if rule is not None]
    if rules:
        # Gain-weighted regressors, newest first like xs: iteration k of a
        # chunk of K writes row p = K - 1 - k and reads rows p to p + M - 1,
        # and each chunk starts by carrying the newest M - 1 rows behind its
        # own.  The gain slab's APSA rows stay 1.0, and 1.0 * x is x.
        memory = np.zeros(batch + (rows + M - 1, L))
        gains = np.ones(batch + (L,))
        scratch = (np.empty(batch[1:] + (1,)), np.empty(batch[1:] + (1,)))
        # Each rule writes its algorithm's row of the slab.
        rules = [(a, fn, (*args, gains[a], scratch)) for a, (fn, args) in rules]
    else:
        # APSA alone has A = 1 and takes its direction from the regressors.
        memory = windows.transpose(1, 0, 2)[None] if batch else windows[:, 0]
    if batch:
        ys = ys.T[:, None, :]
        errors = np.empty((M,) + batch)
        direction = np.empty(batch + (L,))
        # Signs times memory rows, and the energies d @ d by _batch_dot's
        # kernel, as (A, T) stacks of matrix products.
        signs_rows = errors.transpose(1, 2, 0)[..., None, :]
        direction_row, direction_col = direction[..., None, :], direction[..., None]
        energy = np.empty(batch + (1, 1))
        energy_col, energy_flat = energy[..., 0], energy.reshape(-1)
        scale = np.empty(batch + (1,))
    else:
        windows, ys = windows[:, 0], ys[0]
        errors, direction = np.empty(M), np.empty(L)
        signs_rows, direction_row = errors, direction
    mu, delta = params.step_size, params.update_regularizer

    total = np.zeros((N, A))
    for taps, first, end in _phases(config):
        # The kernel of the numerator, so that a zero estimate reads exactly
        # |h|^2 / |h|^2 = 1, i.e. 0 dB and not -0 dB.
        taps_energy = _batch_dot(taps, taps)
        if not np.all(taps_energy):
            raise ValueError("true path has zero norm; misalignment is undefined")
        for start in range(first, end, chunk):
            K = min(start + chunk, end) - start
            if rules:
                memory[..., K : K + M - 1, :] = memory[..., : M - 1, :]
            for k in range(K):
                i = N - 1 - start - k
                weights = history[k]
                regressors = windows[i : i + M]
                if batch:
                    einsum("mtl,atl->mat", regressors, weights, out=errors)
                else:
                    matmul(regressors, weights, errors)
                subtract(ys[i : i + M], errors, errors)
                sign(errors, errors)
                if rules:
                    for a, fn, args in rules:
                        fn(weights[a], *args)
                    p = K - 1 - k
                    multiply(gains, regressors[0], memory[..., p, :])
                else:
                    p = i
                matmul(signs_rows, memory[..., p : p + M, :], direction_row)
                if batch:
                    matmul(direction_row, direction_col, energy)
                    # The stepper's scale mu / sqrt(delta + e), unless some
                    # energy e is 0, inf or below the smallest normal float;
                    # NaN stays NaN either way.
                    energies = energy_flat.tolist()
                    if _TINY <= min(energies) and max(energies) < math.inf:
                        add(energy_col, delta, scale)
                        sqrt(scale, scale)
                        divide(mu, scale, scale)
                    else:
                        _rescale_steps(direction, energies, mu, delta, scale)
                    multiply(direction, scale, direction)
                else:
                    # The same for one filter; the first branch is
                    # _step_scale's common case, inlined.
                    e = float(direction @ direction)
                    if _TINY <= e < math.inf:
                        step = mu / math.sqrt(delta + e)
                    else:
                        step, direction[:] = _step_scale(direction, e, mu, delta)
                    multiply(direction, step, direction)
                add(weights, direction, history[k + 1])
            diffs = history[:K]
            np.subtract(taps, diffs, diffs)
            squared = _batch_dot(diffs, diffs).reshape(K, A, T)
            _add_db(squared, taps_energy, total[start : start + K])
            history[0] = history[K]
    return total, history[0].reshape(A, T, L).copy()


def _rescale_steps(
    direction: np.ndarray, energies: list[float], mu: float, delta: float, scale: np.ndarray
) -> None:
    """Step scales of every filter by the stepper's rule, one at a time, for
    a step where some energy is 0, inf or below the smallest normal float;
    the directions that the rule rescales are replaced."""
    rows = direction.reshape(-1, direction.shape[-1])
    for r, e in enumerate(energies):
        scale.flat[r], rows[r] = _step_scale(rows[r], e, mu, delta)


def run_trial(config: ExperimentConfig, trial_index: int) -> MisalignmentTrace:
    """One realization: every selected algorithm sees the same x and y."""
    total, _ = _run_batch(config, range(trial_index, trial_index + 1))
    traces = {name: total[:, a] for a, name in enumerate(config.algorithms)}
    return MisalignmentTrace(traces=traces, iterations=config.iterations, trials=1)


def run_ensemble(config: ExperimentConfig) -> MisalignmentTrace:
    """Mean over trials of the per-iteration dB traces, in trial order."""
    total, _ = _run_batch(config, range(config.trials))
    traces = {name: total[:, a] / config.trials for a, name in enumerate(config.algorithms)}
    return MisalignmentTrace(
        traces=traces, iterations=config.iterations, trials=config.trials
    )
