"""Per-sample update rules for the affine projection sign algorithm family.

Three steppers share one pipeline: APSA (uniform step sizes), MIP-APSA
(per-tap proportionate step sizes with a memory of past gain-weighted
regressors), and BS-MIP-APSA (per-block proportionate step sizes, same
memory). All of them bound the weight change per step by the step size,
which is what makes them robust to impulsive noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class GainVariant(str, Enum):
    """How the per-block proportionate gain is normalized.

    MIP_CONSISTENT keeps the per-tap uniform floor ``(1 - mix) / (2L)`` and
    uses denominator ``2 * sum(block norms) + eps``, so block length 1
    reproduces the per-tap gains exactly.  AS_PRINTED uses denominator
    ``2 * n_blocks * sum(block norms) + eps`` with the same floor, which
    shrinks the proportionate term by the block count.  BLOCK_BALANCED is the
    per-tap rule transcribed to blocks wholesale (floor ``(1 - mix) / (2N)``,
    denominator ``2 * sum(block norms) + eps``); it also reduces to the
    per-tap gains at block length 1 and keeps the uniform/proportionate mass
    balance of the per-tap rule at every block length, which the other two do
    not.  MIP_CONSISTENT is the default.
    """

    MIP_CONSISTENT = "mip_consistent"
    AS_PRINTED = "as_printed"
    BLOCK_BALANCED = "block_balanced"


@dataclass(frozen=True)
class FilterParams:
    """Scalar tuning knobs shared by all steppers.

    block_length only matters for the block-sparse stepper; filter_length
    must be divisible by it.  gain_regularizer and update_regularizer are
    normally small positive constants; zero is accepted to support exact
    degenerate-case checks (the steppers guard the resulting divisions).
    Non-finite step sizes and regularizers are rejected, since they would
    turn every weight into NaN.
    """

    filter_length: int
    projection_order: int = 2
    block_length: int = 4
    step_size: float = 0.001
    proportionate_mix: float = 0.0
    gain_regularizer: float = 0.01
    update_regularizer: float = 0.01
    gain_variant: GainVariant = GainVariant.MIP_CONSISTENT

    def __post_init__(self) -> None:
        if self.filter_length < 1:
            raise ValueError(f"filter_length must be >= 1, got {self.filter_length}")
        if self.projection_order < 1:
            raise ValueError(f"projection_order must be >= 1, got {self.projection_order}")
        if self.block_length < 1:
            raise ValueError(f"block_length must be >= 1, got {self.block_length}")
        if self.filter_length % self.block_length != 0:
            raise ValueError(
                f"filter_length ({self.filter_length}) must be divisible by "
                f"block_length ({self.block_length})"
            )
        for name in ("step_size", "gain_regularizer", "update_regularizer"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.step_size < 0:
            raise ValueError(f"step_size must be >= 0, got {self.step_size}")
        if not -1.0 <= self.proportionate_mix < 1.0:
            raise ValueError(
                f"proportionate_mix must lie in [-1, 1), got {self.proportionate_mix}"
            )
        if self.gain_regularizer < 0:
            raise ValueError(f"gain_regularizer must be >= 0, got {self.gain_regularizer}")
        if self.update_regularizer < 0:
            raise ValueError(f"update_regularizer must be >= 0, got {self.update_regularizer}")

    @property
    def n_blocks(self) -> int:
        return self.filter_length // self.block_length


@dataclass
class FilterState:
    """Mutable per-algorithm state: weights plus the rolling histories.

    ``regressors`` column j is the input vector from j steps ago (newest
    first); ``memory`` column j is the gain-weighted input vector recorded j
    steps ago; ``desired`` holds the matching desired samples.  Everything
    starts at exactly zero.
    """

    weights: np.ndarray
    memory: np.ndarray
    regressors: np.ndarray
    desired: np.ndarray

    @classmethod
    def zeros(cls, params: FilterParams) -> "FilterState":
        L, M = params.filter_length, params.projection_order
        return cls(
            weights=np.zeros(L),
            memory=np.zeros((L, M)),
            regressors=np.zeros((L, M)),
            desired=np.zeros(M),
        )


# Smallest normal float: an energy below it has lost precision.
_TINY = np.finfo(np.float64).tiny


def _block_gains(
    weights: np.ndarray,
    block_length: int,
    proportionate_mix: float,
    gain_regularizer: float,
    variant: GainVariant,
    out: np.ndarray | None = None,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Gains of ``(..., L)`` weights, written into ``out`` (C-contiguous).

    ``scratch`` is a pair of arrays of shape ``weights.shape[:-1] + (1,)``
    for the sums of the block norms and the denominators.  Either buffer is
    allocated when not given; the gains are the same bit for bit, since each
    step is the same ufunc call either way.
    """
    L = weights.shape[-1]
    n_blocks = L // block_length
    lead = weights.shape[:-1]
    if out is None:
        out = np.empty(weights.shape)
    total, denom = scratch or (np.empty(lead + (1,)), np.empty(lead + (1,)))
    if block_length == 1:
        # A length-1 block norm is |h| exactly; sqrt(h*h) would be a detour.
        norms = np.abs(weights, out)
    else:
        blocks = weights.reshape(lead + (n_blocks, block_length))
        norms = np.einsum("...ij,...ij->...i", blocks, blocks)
        np.sqrt(norms, norms)
    np.add.reduce(norms, -1, None, total, True)
    if variant is GainVariant.BLOCK_BALANCED:
        floor = (1.0 - proportionate_mix) / (2.0 * n_blocks)
    else:
        floor = (1.0 - proportionate_mix) / (2.0 * L)
    scale = 2.0 * n_blocks if variant is GainVariant.AS_PRINTED else 2.0
    np.multiply(total, scale, denom)
    np.add(denom, gain_regularizer, denom)
    zero = None
    if gain_regularizer == 0.0 and not denom.all():
        # All-zero weights with a zero regularizer: the proportionate share is
        # 0/0.  Use the uniform share (every block norm equal), which keeps
        # the gain-sum identities and the degenerate-case reductions exact.
        zero = denom[..., 0] == 0.0
        denom[zero] = 1.0
    if proportionate_mix != 0.0:  # 1.0 * x is x
        np.multiply(norms, 1.0 + proportionate_mix, norms)
    shares = np.divide(norms, denom, norms)
    if zero is not None:
        shares[zero] = (1.0 + proportionate_mix) / (scale * n_blocks)
    if block_length == 1:
        return np.add(shares, floor, out)
    # Each tap of a block gets the block's gain.
    np.add(shares[..., None], floor, out.reshape(lead + (n_blocks, block_length)))
    return out


def ip_gains(
    weights: np.ndarray,
    proportionate_mix: float,
    gain_regularizer: float,
    out: np.ndarray | None = None,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Per-tap proportionate gains.

    Each tap gets a uniform floor ``(1 - mix) / (2L)`` plus a share of
    ``(1 + mix) / 2`` proportional to ``|h_l| / sum|h_i|`` (regularized).
    With a positive regularizer every gain is strictly positive, and with a
    zero regularizer the gains sum to exactly 1.  ``weights`` may carry
    leading batch axes, shape ``(..., L)``; each row gets its own gains.
    ``out`` and ``scratch`` are optional buffers (see :func:`_block_gains`).
    """
    return _block_gains(
        weights, 1, proportionate_mix, gain_regularizer, GainVariant.MIP_CONSISTENT,
        out, scratch,
    )


def bs_gains(
    weights: np.ndarray,
    block_length: int,
    proportionate_mix: float,
    gain_regularizer: float,
    variant: GainVariant = GainVariant.MIP_CONSISTENT,
    out: np.ndarray | None = None,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
) -> np.ndarray:
    """Per-block proportionate gains, constant within each block.

    The share of block k is proportional to its Euclidean norm.  With
    ``block_length == 1`` and the MIP_CONSISTENT variant this is exactly
    :func:`ip_gains`.  Like :func:`ip_gains`, it takes ``(..., L)`` weights
    and optional buffers.
    """
    L = weights.shape[-1]
    if block_length < 1 or L % block_length != 0:
        raise ValueError(
            f"weight length ({L}) must be divisible by block_length ({block_length})"
        )
    return _block_gains(
        weights, block_length, proportionate_mix, gain_regularizer, variant, out, scratch
    )


def error_vector(state: FilterState) -> np.ndarray:
    """Stacked a-priori errors, newest first: desired minus filter output."""
    return state.desired - state.regressors.T @ state.weights


def sign_vector(e: np.ndarray) -> np.ndarray:
    """Elementwise sign with sign(0) = 0, so a zero error stays a fixed point."""
    return np.sign(e)


def shift_memory(memory: np.ndarray, new_column: np.ndarray) -> np.ndarray:
    """Push ``new_column`` in front, dropping the oldest column."""
    out = np.empty_like(memory)
    out[:, 0] = new_column
    out[:, 1:] = memory[:, :-1]
    return out


def normalized_update(
    weights: np.ndarray, direction: np.ndarray, step_size: float, update_regularizer: float
) -> np.ndarray:
    """One normalized step along ``direction``.

    The step norm is bounded by ``step_size`` (strictly, when the regularizer
    is positive), which is the impulsive-noise robustness guarantee.  An
    exactly zero direction is a no-op; that guard also covers running with a
    zero regularizer.  Directions whose energy ``d @ d`` overflows or
    underflows keep the step of norm ``step_size`` (see :func:`_step_scale`).
    """
    energy = float(direction @ direction)
    scale, direction = _step_scale(direction, energy, step_size, update_regularizer)
    return weights if scale == 0.0 else weights + scale * direction


def _step_scale(
    direction: np.ndarray, energy: float, step_size: float, update_regularizer: float
) -> tuple[float, np.ndarray]:
    """Scale s and direction d whose product s * d is the normalized step.

    ``energy`` is ``direction @ direction``.  Where it is inf, or below the
    smallest normal float while the direction is not zero, d is the
    direction divided by its largest magnitude c, and the regularizer is
    divided by c**2: the step is the same, but its norm is computed from
    normal floats.  An exactly zero direction gives s = 0.
    """
    if _TINY <= energy < math.inf:
        return step_size / math.sqrt(update_regularizer + energy), direction
    if energy == 0.0 and not direction.any():
        return 0.0, direction
    c = float(np.max(np.abs(direction)))
    direction = direction / c
    den = update_regularizer / c / c + float(direction @ direction)
    return step_size / math.sqrt(den), direction


def _push_sample(state: FilterState, x_new: float, y_new: float) -> None:
    # The newest regressor is the previous one delayed by one tap with the
    # fresh sample on top; histories shift one column right.
    x_vec = np.empty_like(state.weights)
    x_vec[0] = x_new
    x_vec[1:] = state.regressors[:-1, 0]
    state.regressors[:, 1:] = state.regressors[:, :-1]
    state.regressors[:, 0] = x_vec
    state.desired[1:] = state.desired[:-1]
    state.desired[0] = y_new


def apsa_step(
    state: FilterState, params: FilterParams, x_new: float, y_new: float
) -> FilterState:
    """Advance APSA by one sample (state is updated in place and returned).

    The direction is the regressor matrix times the error signs, with no
    proportionate weighting and no memory of past gains.
    """
    _push_sample(state, x_new, y_new)
    direction = state.regressors @ sign_vector(error_vector(state))
    state.weights = normalized_update(
        state.weights, direction, params.step_size, params.update_regularizer
    )
    return state


def _memory_sign_step(
    state: FilterState, params: FilterParams, gains: np.ndarray
) -> FilterState:
    state.memory = shift_memory(state.memory, gains * state.regressors[:, 0])
    direction = state.memory @ sign_vector(error_vector(state))
    state.weights = normalized_update(
        state.weights, direction, params.step_size, params.update_regularizer
    )
    return state


def mip_apsa_step(
    state: FilterState, params: FilterParams, x_new: float, y_new: float
) -> FilterState:
    """Advance MIP-APSA by one sample (state is updated in place and returned).

    Per-tap gains come from the weights before the update; only the newest
    gain-weighted regressor is computed, older ones are reused from memory.
    """
    _push_sample(state, x_new, y_new)
    gains = ip_gains(state.weights, params.proportionate_mix, params.gain_regularizer)
    return _memory_sign_step(state, params, gains)


def bs_mip_apsa_step(
    state: FilterState, params: FilterParams, x_new: float, y_new: float
) -> FilterState:
    """Advance BS-MIP-APSA by one sample (state is updated in place, returned).

    Identical pipeline to :func:`mip_apsa_step` with per-block gains instead
    of per-tap gains.  block_length 1 with the MIP_CONSISTENT variant matches
    MIP-APSA bit for bit; block_length equal to the filter length makes the
    gain uniform, which cancels in the normalized update and recovers APSA
    exactly when both regularizers are zero.
    """
    _push_sample(state, x_new, y_new)
    gains = bs_gains(
        state.weights,
        params.block_length,
        params.proportionate_mix,
        params.gain_regularizer,
        params.gain_variant,
    )
    return _memory_sign_step(state, params, gains)


def gain_rule(algorithm: str, params: FilterParams):
    """The gain rule of ``algorithm``: (function, arguments after the weights).

    None stands for APSA's unit gains; MIP-APSA's rule is per tap and
    BS-MIP-APSA's per block.  These are the rules the steppers apply one
    filter at a time; the batched engine calls them on a slab of filters,
    as ``function(weights, *arguments, out=..., scratch=...)``.
    """
    if algorithm == "apsa":
        return None
    if algorithm == "mip-apsa":
        return ip_gains, (params.proportionate_mix, params.gain_regularizer)
    if algorithm == "bs-mip-apsa":
        return bs_gains, (
            params.block_length,
            params.proportionate_mix,
            params.gain_regularizer,
            params.gain_variant,
        )
    raise ValueError(f"unknown algorithm '{algorithm}'; choose from {sorted(STEPPERS)}")


STEPPERS = {
    "apsa": apsa_step,
    "mip-apsa": mip_apsa_step,
    "bs-mip-apsa": bs_mip_apsa_step,
}
