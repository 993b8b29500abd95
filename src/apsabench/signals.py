"""Seeded generators for the benchmark's input and noise processes.

Every generator is a pure function of its (seed, stream_id) pair, so trials
are reproducible and independent substreams (input, background noise,
impulses, echo path) never interact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SeededStream:
    """Handle for one deterministic substream of a base seed.

    Each call to :meth:`generator` returns a fresh generator that replays the
    same sample sequence, so a stream can be consumed repeatedly.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("seed", "stream_id"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    def generator(self) -> np.random.Generator:
        return np.random.default_rng([self.seed, self.stream_id])


@dataclass(frozen=True)
class NoiseModel:
    """Background Gaussian plus Bernoulli-Gaussian impulses.

    Both components are drawn at unit scale; when an SNR/SIR target (dB) is
    set the harness rescales each one against the clean echo signal with
    :func:`scale_to_ratio`, making the realized ratio exact per run.  A target
    of None keeps the unit scale.  Targets must be finite.
    """

    snr_db: float | None = 40.0
    sir_db: float | None = 0.0
    impulse_probability: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 <= self.impulse_probability <= 1.0:
            raise ValueError(
                f"impulse_probability must lie in [0, 1], got {self.impulse_probability}"
            )
        for name in ("snr_db", "sir_db"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")


def white_gaussian(count: int, stream: SeededStream) -> np.ndarray:
    """i.i.d. zero-mean, unit-variance Gaussian samples."""
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    return stream.generator().standard_normal(count)


def ar1_colored(count: int, pole: float, stream: SeededStream) -> np.ndarray:
    """First-order autoregression driven by unit-variance white Gaussian noise.

    x[n] = pole * x[n-1] + w[n] with x[-1] = 0, so the first output sample
    equals the first driving sample.
    """
    if not -1.0 < pole < 1.0:
        raise ValueError(f"pole must satisfy |pole| < 1 for stability, got {pole}")
    white = white_gaussian(count, stream)
    # The recursion in Python floats: the same arithmetic, sample by sample,
    # as a direct-form IIR filter with coefficients [1] / [1, -pole].
    pole, y = float(pole), 0.0
    return np.array([y := pole * y + v for v in white.tolist()])


def bernoulli_gaussian(count: int, p: float, stream: SeededStream) -> np.ndarray:
    """Product of a Bernoulli(p) on/off process and a unit Gaussian.

    Models rare large impulses; p = 0 gives all zeros, p = 1 is white
    Gaussian in law.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    rng = stream.generator()
    # Draw both processes unconditionally so the stream layout is stable.
    mask = rng.random(count) < p
    return np.where(mask, rng.standard_normal(count), 0.0)


def signal_power(x: np.ndarray) -> float:
    """Empirical power: mean of squares."""
    if x.size == 0:
        return 0.0
    return float(np.mean(np.square(x)))


def scale_to_ratio(
    reference: np.ndarray, noise: np.ndarray, target_db: float
) -> np.ndarray:
    """Rescale ``noise`` so the reference-to-noise power ratio hits target_db.

    Uses empirical power over the given finite vectors, so recomputing the
    ratio on the result returns target_db exactly (up to rounding).  A
    target too far out for double precision, where the power ratio or the
    scale factor is not a finite positive float, raises ValueError naming
    the target.
    """
    p_ref = signal_power(reference)
    p_noise = signal_power(noise)
    if p_ref == 0.0:
        raise ValueError("reference signal has zero power; ratio is undefined")
    if p_noise == 0.0:
        raise ValueError("noise signal has zero power; cannot scale to a target ratio")
    try:
        factor = math.sqrt(p_ref / (p_noise * 10.0 ** (target_db / 10.0)))
    except (OverflowError, ZeroDivisionError):  # 10**(dB/10) overflows or underflows
        factor = math.inf
    if not 0.0 < factor < math.inf:
        raise ValueError(
            f"a target ratio of {target_db} dB is out of range: the noise "
            f"cannot be scaled to it in double precision"
        )
    return noise * factor


def speech_like(count: int, stream: SeededStream) -> np.ndarray:
    """Amplitude-modulated Gaussian noise with a syllabic-rate envelope.

    Not speech, but nonstationary in the way speech is; used to exercise the
    WAV ingestion path in tests without shipping recorded audio.  The output
    is normalized to peak magnitude slightly below 1 so it quantizes to
    16-bit PCM without clipping.
    """
    if count <= 0:
        return np.zeros(0)
    rng = stream.generator()
    carrier = rng.standard_normal(count)
    # One envelope knot per 400 samples (a syllabic rate at 8 kHz), each
    # drawn in [0.05, 1).
    n_knots = count // 400 + 2
    knots = 0.05 + 0.95 * rng.random(n_knots)
    envelope = np.interp(
        np.arange(count), np.linspace(0, count - 1, n_knots), knots
    )
    x = carrier * envelope
    peak = np.max(np.abs(x))
    if peak > 0:
        x *= 0.95 / peak
    return x
