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
from functools import partial

import numpy as np
# Bare names for the per-sample loop: it runs once per sample, and a module
# attribute lookup per call is a measurable share of a small step.
from numpy import add, dot, matmul, multiply, sign, subtract
from numpy.lib.stride_tricks import sliding_window_view

from apsabench.audio import load_wav
from apsabench.echo_path import PathSchedule, phases
from apsabench.filters import STEPPERS, FilterParams, _batch_dot, _steps, gain_rule
from apsabench.signals import (
    NoiseModel,
    SeededStream,
    ar1_colored,
    bernoulli_gaussian,
    scale_to_ratio,
    signal_power,
    white_gaussian,
)

# Substream layout: the initial and the switched echo path draw from streams
# 0 and 4, shared by all trials so that every trial identifies the same
# system; trial t draws from 4*t + role, roles 1 to 3, never a multiple of 4.
PATH_STREAM = 0
SWITCHED_PATH_STREAM = 4
_INPUT_ROLE = 1
_BACKGROUND_ROLE = 2
_IMPULSE_ROLE = 3

MISALIGNMENT_FLOOR_DB = -300.0

# The engine keeps the weights entering each iteration of a chunk, newest
# first like its regressors, in a history of at most _HISTORY_BYTES, and
# turns the chunk into |h - w|^2, dB and trial sums at once.  The budget is
# about what 1024 iterations of per-trial misalignment took at 30 filters,
# so that many filters do not raise the peak memory; it sets the chunk of
# every shipped config and workload, from 2 rows (colored_input_tracking)
# to 170 (single_wav, whose single filter at projection order 2 shares it
# with two table rows per step).  The regressor copy is left out of it.
_HISTORY_BYTES = 256 * 1024

INPUT_KINDS = ("white", "ar1", "wav")


def trial_stream(base_seed: int, trial_index: int, role: int) -> SeededStream:
    return SeededStream(base_seed, 4 * trial_index + role)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a run needs; algorithms share one realization per trial."""

    params: FilterParams
    schedule: PathSchedule
    algorithms: tuple[str, ...] = tuple(STEPPERS)
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
        if self.input_kind == "ar1" and not -1.0 < self.pole < 1.0:
            raise ValueError(f"pole must satisfy |pole| < 1 for input 'ar1', got {self.pole}")
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


def _clean_echo(x: np.ndarray, schedule: PathSchedule) -> np.ndarray:
    """Noiseless echo x * h(n), honoring the path switch mid-record.

    The taps are the first operand, as in scipy's FIR ``lfilter``: for
    operands of equal length numpy's summation order follows the operand
    order, so only this order gives ``lfilter(taps, [1], x)`` bit for bit
    at every record length.
    """
    n = x.shape[0]
    clean = np.empty(n)
    for taps, first, end in phases(schedule, n):
        clean[first:end] = np.convolve(taps, x)[first:end]
    return clean


def _noise_record(
    clean: np.ndarray, noise: NoiseModel, base_seed: int, trial_index: int
) -> np.ndarray:
    # Each component is drawn at unit scale.  One with zero empirical power
    # is added as-is (zeros), and a zero-power clean record (possible in runs
    # shorter than the bulk delay) leaves them unscaled: both make the target
    # ratio undefined.
    n = clean.shape[0]
    clean_power = signal_power(clean)
    background = white_gaussian(n, trial_stream(base_seed, trial_index, _BACKGROUND_ROLE))
    impulses = bernoulli_gaussian(
        n, noise.impulse_probability, trial_stream(base_seed, trial_index, _IMPULSE_ROLE)
    )
    v = np.zeros(n)
    for component, target_db in ((background, noise.snr_db), (impulses, noise.sir_db)):
        if signal_power(component) > 0.0:
            if target_db is not None and clean_power > 0.0:
                component = scale_to_ratio(clean, component, target_db)
            v += component
    return v


def _realization(
    config: ExperimentConfig, trial_index: int, wav: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Input x and desired signal y of one trial; every algorithm sees both.

    ``wav`` is a WAV run's input, which the caller reads once per run; other
    runs synthesize theirs here.  Non-finite samples raise ValueError, since
    one NaN or inf would poison the weights for good.
    """
    stream = trial_stream(config.base_seed, trial_index, _INPUT_ROLE)
    if config.input_kind == "white":
        x = white_gaussian(config.iterations, stream)
    elif config.input_kind == "ar1":
        x = ar1_colored(config.iterations, config.pole, stream)
    else:
        x = wav
    clean = _clean_echo(x, config.schedule)
    y = clean + _noise_record(clean, config.noise, config.base_seed, trial_index)
    for name, signal in (("input", x), ("desired signal", y)):
        if not np.all(np.isfinite(signal)):
            raise ValueError(f"trial {trial_index}: the {name} has non-finite samples")
    return x, y


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
    the summation order of the dot products may differ.  Every step is
    w + ``filters._steps(d, mu, delta, d)``, the steppers' own rule.  Time
    runs in chunks, and a chunk runs newest first: its regressor copy, its
    history of weights and its memory share one order, so a chunk of K
    iterations takes steps p = K - 1 down to 0, and step p reads regressor
    rows p to p + M - 1 and history row p + 1 and writes history row p.
    The error product reads the contiguous regressor copy, which BLAS takes
    directly.  Its order is free: the error reaches the update only through
    the signs of the residuals, so its rounding can move a step only where
    a residual lies within rounding of zero, and zero regressors give exact
    zeros in any order.

    The run's shape picks one of two loops.  One filter without a gain rule
    (APSA) over one trial at projection order M = 2 runs without batch
    axes, gains or memory.  Its direction is x0 + x1 or x0 - x1 times +-1,
    rows fixed by the input, so per chunk one ``_steps`` call turns every
    such row r into its step s * r.  A step whose two residual signs s0 and
    s1 are nonzero makes two numpy calls: the error product, then w + v
    (s0 = 1) or w - v (s0 = -1), v its row of the x0 + x1 table if s0 = s1
    and of the x0 - x1 table if not.  A step with a residual sign 0 (a zero
    residual, or a NaN one, which reads as neither sign) signs its Python
    residuals, which are np.subtract's bits, and takes its step from
    ``_steps`` on the numpy direction.  These are the stepper's bits: with
    signs in {-1, 0, 1} the direction is one rounded sum of exact products,
    the same double as x0 +- x1 but for the sign of a zero; a rescaled row
    is r / m, m its largest magnitude or sqrt(delta) if larger, and
    (-r) / m is -(r / m); w + (-v) is w - v; and the weights are never
    -0.0, so w + 0.0 is w.  Every other run takes the batched loop, where
    the algorithms differ only in their gains: one (A, T, L) slab holds
    them, all ones for APSA, and the newest memory row is that slab times
    the newest regressors.  The A x T directions of a step become their
    steps in one ``_steps`` call; a zero direction, as in digital silence,
    is a zero step, and w + 0 is w.
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
    wav = _wav_input(config) if config.input_kind == "wav" else None
    for row, t in enumerate(trial_indices):
        x, y = _realization(config, t, wav)
        xs[row, N - 1 :: -1] = x
        ys[row, N - 1 :: -1] = y
    # At iteration n, windows[N - 1 - n + j] is the regressor of j samples
    # ago (newest tap first), and ys likewise its desired sample.  Time runs
    # along the first axis, so one plain slice serves every trial.
    windows = sliding_window_view(xs, L, axis=1).transpose(1, 0, 2)
    rules = [gain_rule(name, params) for name in config.algorithms]
    mu, delta = params.step_size, params.update_regularizer
    single = rules == [None] and T == 1 and M == 2
    # Row p + 1 of the history holds the weights entering step p, so row K
    # carries a chunk's weights in and row 0 out.  At most _HISTORY_BYTES
    # plus that carry row; the single filter shares the budget with its two
    # table rows per step.  Counting the regressor copy, T rows per step,
    # would cut colored_input_tracking's chunk from 2 rows to 1, whose
    # per-chunk work ran ~6% slower, to save the copy's ~0.1 MiB.
    chunk = max(1, _HISTORY_BYTES // ((A * T + 2 * single) * L * 8))
    rows = min(N, chunk)
    history = np.zeros((rows + 1, A, T, L))
    # A chunk's regressors, newest first as in windows.
    regs = np.empty((rows + M - 1, T, L))
    if single:
        errors = np.empty(M)
        # Row p of the tables holds x0 + x1 and x0 - x1 of step p.
        pairs = np.zeros((2, rows, L))
        # The single filter reads its weights, regressors and table rows
        # from views made once, not by indexing an array per step.
        weight_rows = list(history.reshape(rows + 1, L))
        regressor_rows = [regs[p : p + 2, 0] for p in range(rows)]
        tables = (list(pairs[0]), list(pairs[1]))
    else:
        # Gain-weighted regressors in the order of regs: step p writes row p
        # and reads rows p to p + M - 1, so each chunk carries the newest
        # M - 1 rows in behind its own.  The gain slab's APSA rows stay 1.0,
        # and 1.0 * x is x.
        memory = np.zeros((rows + M - 1, A, T, L))
        gains = np.ones((A, T, L))
        # Each rule writes its algorithm's row of the slab.
        rules = [(a, partial(rule, out=gains[a])) for a, rule in enumerate(rules) if rule]
        # The error product, and the direction from the signs and the
        # memory, as stacks of matrix products: one per trial, one per filter.
        regs_by_trial = regs.transpose(1, 2, 0)
        weights_by_trial = history.transpose(0, 2, 1, 3)
        memory_by_filter = memory.transpose(1, 2, 0, 3)
        errors = np.empty((T, A, M))
        direction = np.empty((A, T, L))
        signs_rows = errors.transpose(1, 0, 2)[..., None, :]
        direction_row = direction[..., None, :]

    total = np.zeros((N, A))
    # An energy d @ d that overflows is handled by _steps, and a
    # weight that has overflowed gives NaN gains: the run's finite check
    # reports that divergence, so numpy need not warn about either.
    with np.errstate(over="ignore", invalid="ignore"):
        for taps, first, end in phases(config.schedule, N):
            # The kernel of the numerator, so that a zero estimate reads
            # exactly |h|^2 / |h|^2 = 1, i.e. 0 dB and not -0 dB.
            taps_energy = _batch_dot(taps, taps)
            if not np.all(taps_energy):
                raise ValueError("true path has zero norm; misalignment is undefined")
            for start in range(first, end, chunk):
                K = min(start + chunk, end) - start
                lo, hi = N - start - K, N - start + M - 1
                regs[: K + M - 1] = windows[lo:hi]
                history[K] = history[0]
                if single:
                    desired = ys[0, lo:hi].tolist()
                    x0, x1, table = regs[:K, 0], regs[1 : K + 1, 0], pairs[:, :K]
                    add(x0, x1, table[0]), subtract(x0, x1, table[1])
                    # Each row becomes the step it makes.
                    _steps(table, mu, delta, table)
                    for p in range(K - 1, -1, -1):
                        weights = weight_rows[p + 1]
                        regressors = regressor_rows[p]
                        # Residuals in Python floats: the same IEEE
                        # results as np.subtract.
                        e0, e1 = dot(regressors, weights, errors).tolist()
                        r0, r1 = desired[p] - e0, desired[p + 1] - e1
                        s0, s1 = (r0 > 0.0) - (r0 < 0.0), (r1 > 0.0) - (r1 < 0.0)
                        if s0 and s1:
                            # s0 (x0 + x1) when the signs agree, else s0 (x0 - x1).
                            step = add if s0 == 1 else subtract
                            step(weights, tables[s0 != s1][p], weight_rows[p])
                            continue
                        sign((r0, r1), errors)
                        direction = dot(errors, regressors)
                        add(weights, _steps(direction, mu, delta, direction), weight_rows[p])
                else:
                    memory[K : K + M - 1] = memory[: M - 1]
                    desired = ys[:, None, lo:hi]
                    for p in range(K - 1, -1, -1):
                        weights = history[p + 1]
                        matmul(weights_by_trial[p + 1], regs_by_trial[..., p : p + M], errors)
                        subtract(desired[..., p : p + M], errors, errors)
                        sign(errors, errors)
                        for a, rule in rules:
                            rule(weights[a])
                        multiply(gains, regs[p], memory[p])
                        matmul(signs_rows, memory_by_filter[..., p : p + M, :], direction_row)
                        add(weights, _steps(direction, mu, delta, direction), history[p])
                diffs = history[1 : K + 1]
                np.subtract(taps, diffs, diffs)
                squared = _batch_dot(diffs, diffs).reshape(K, A, T)
                _add_db(squared, taps_energy, total[start : start + K][::-1])
    return total, history[0].reshape(A, T, L).copy()


def run_trial(config: ExperimentConfig, trial_index: int) -> MisalignmentTrace:
    """One realization: every selected algorithm sees the same x and y."""
    total, _ = _run_batch(config, range(trial_index, trial_index + 1))
    traces = {name: total[:, a] for a, name in enumerate(config.algorithms)}
    return MisalignmentTrace(traces=traces, trials=1)


def run_ensemble(config: ExperimentConfig) -> MisalignmentTrace:
    """Mean over trials of the per-iteration dB traces, in trial order."""
    total, _ = _run_batch(config, range(config.trials))
    traces = {name: total[:, a] / config.trials for a, name in enumerate(config.algorithms)}
    return MisalignmentTrace(traces=traces, trials=config.trials)
