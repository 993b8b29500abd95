"""Per-sample update rules for the affine projection sign algorithm family.

The three steppers of ``STEPPERS`` are one pipeline, a memory of past
gain-weighted regressors, and differ only in the gains that
:func:`gain_rule` gives: APSA (unit gains, so its memory holds the
regressors), MIP-APSA (per-tap proportionate gains) and BS-MIP-APSA
(per-block proportionate gains).  All of them bound the weight change per
step by the step size, which is what makes them robust to impulsive noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial

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


@dataclass
class FilterState:
    """Mutable per-algorithm state: weights plus the rolling histories.

    ``regressors`` column j is the input vector from j steps ago (newest
    first); ``memory`` column j is the gain-weighted input vector recorded j
    steps ago, which for APSA's unit gains is the input vector itself;
    ``desired`` holds the matching desired samples.  Everything starts at
    exactly zero.
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


# Smallest normal float: a step denominator below it may have lost
# precision.
_TINY = float(np.finfo(np.float64).tiny)


def _block_gains(
    weights: np.ndarray,
    block_length: int,
    proportionate_mix: float,
    gain_regularizer: float,
    variant: GainVariant,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Gains of ``(..., L)`` weights, written into ``out`` (C-contiguous),
    which is allocated when not given.

    One pass per block: each block norm becomes its share with one divide
    and its gain with the floor added once per block; at block length > 1
    the block's gain is then copied to its taps.  A row of all-zero weights with a zero regularizer, whose
    share would be 0/0, counts every block norm as 1 and its denominator as
    ``scale * n_blocks`` before the divide, so it takes the uniform share.
    That keeps the gain-sum identities and the degenerate-case reductions
    exact.
    """
    L = weights.shape[-1]
    n_blocks = L // block_length
    lead = weights.shape[:-1]
    if out is None:
        out = np.empty(weights.shape)
    # gains holds the block norms, then their shares, then the block gains.
    if block_length == 1:
        # A length-1 block norm is |h| exactly; sqrt(h*h) would be a detour.
        gains = np.abs(weights, out)
    else:
        blocks = weights.reshape(lead + (n_blocks, block_length))
        gains = np.einsum("...ij,...ij->...i", blocks, blocks)
        np.sqrt(gains, gains)
    denom = np.add.reduce(gains, -1, keepdims=True)
    if variant is GainVariant.BLOCK_BALANCED:
        floor = (1.0 - proportionate_mix) / (2.0 * n_blocks)
    else:
        floor = (1.0 - proportionate_mix) / (2.0 * L)
    scale = 2.0 * n_blocks if variant is GainVariant.AS_PRINTED else 2.0
    np.multiply(denom, scale, denom)
    np.add(denom, gain_regularizer, denom)
    if gain_regularizer == 0.0 and not denom.all():
        zero = denom[..., 0] == 0.0
        gains[zero] = 1.0
        denom[zero] = scale * n_blocks
    if proportionate_mix != 0.0:  # 1.0 * x is x
        np.multiply(gains, 1.0 + proportionate_mix, gains)
    np.divide(gains, denom, gains)
    np.add(gains, floor, gains)
    if block_length > 1:
        out.reshape(lead + (n_blocks, block_length))[...] = gains[..., None]
    return out


def ip_gains(
    weights: np.ndarray,
    proportionate_mix: float,
    gain_regularizer: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-tap proportionate gains.

    Each tap gets a uniform floor ``(1 - mix) / (2L)`` plus a share of
    ``(1 + mix) / 2`` proportional to ``|h_l| / sum|h_i|`` (regularized).
    With a positive regularizer every gain is strictly positive, and with a
    zero regularizer the gains sum to exactly 1.  ``weights`` may carry
    leading batch axes, shape ``(..., L)``; each row gets its own gains.
    ``out`` is an optional buffer for the gains.
    """
    return _block_gains(
        weights, 1, proportionate_mix, gain_regularizer, GainVariant.MIP_CONSISTENT, out
    )


def bs_gains(
    weights: np.ndarray,
    block_length: int,
    proportionate_mix: float,
    gain_regularizer: float,
    variant: GainVariant = GainVariant.MIP_CONSISTENT,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Per-block proportionate gains, constant within each block.

    The share of block k is proportional to its Euclidean norm; the floor is
    added to it once per block, and the block's gain is then copied to its
    taps.  All-zero weights with a zero regularizer take the uniform share,
    as if every block norm were equal.  With ``block_length == 1`` and the
    MIP_CONSISTENT variant this is exactly :func:`ip_gains`.  Like
    :func:`ip_gains`, it takes ``(..., L)`` weights and an optional ``out``.
    """
    L = weights.shape[-1]
    if block_length < 1 or L % block_length != 0:
        raise ValueError(
            f"weight length ({L}) must be divisible by block_length ({block_length})"
        )
    return _block_gains(
        weights, block_length, proportionate_mix, gain_regularizer, variant, out
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
    """One normalized step along ``direction``, row by row.

    ``weights`` and ``direction`` are ``(..., L)``; each row steps by
    ``step_size * d / sqrt(update_regularizer + d @ d)`` along its own
    direction d.  The step norm is bounded by ``step_size`` (strictly, when
    the regularizer is positive), which is the impulsive-noise robustness
    guarantee.  An exactly zero direction is no step; that guard also covers
    running with a zero regularizer, and when every direction is zero
    ``weights`` itself is returned.  Directions whose energy ``d @ d``
    overflows or underflows still take this step (see :func:`_steps`).
    """
    if not direction.any():
        return weights
    # An energy that overflows to inf is handled by _steps.
    with np.errstate(over="ignore"):
        return weights + _steps(direction, step_size, update_regularizer)


def _batch_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Row-wise dot products over the last axis, kept as a length-1 axis.
    return (a[..., None, :] @ b[..., :, None])[..., 0]


def _steps(
    direction: np.ndarray,
    step_size: float,
    update_regularizer: float,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """The normalized step s * d of each row d of ``direction``, shape
    ``(..., L)``, written into ``out`` (which may be ``direction``).

    This is the one step rule of the package.  A row whose denominator
    update_regularizer + e, e = d @ d, lies in [tiny, inf), tiny the
    smallest normal float, has s = step_size / sqrt(update_regularizer + e),
    worked out with ``np.add``, ``np.sqrt`` and ``np.divide``, which round
    like Python floats.  At a regularizer of at least tiny that is every
    finite row, zero rows included.  Otherwise an exactly zero row is no
    step, and every other row (its energy inf or NaN, or its denominator
    below tiny) is divided by m = max(c, sqrt(update_regularizer)), c its
    largest magnitude, and the regularizer by m**2, which cannot overflow:
    the step is the same, but its norm is computed from normal floats.
    An energy that overflows warns unless the caller ignores overflow.
    """
    scale = _batch_dot(direction, direction)
    np.add(update_regularizer, scale, scale)
    denominators = scale.reshape(-1).tolist()
    # A NaN denominator that min and max pass over gives a NaN step, as the
    # rescaling below would.
    if not (_TINY <= min(denominators) and max(denominators) < math.inf):
        # Out of range, a zero row takes the scale 0 (step_size / inf), and
        # every other row is rescaled.
        bad = ~((_TINY <= scale) & (scale < math.inf))
        scale[bad] = math.inf
        rescale = bad[..., 0] & direction.any(-1)
        if rescale.any():
            with np.errstate(over="ignore", invalid="ignore"):
                rows = direction[rescale]
                # With c at least sqrt(delta), delta / c / c cannot overflow.
                c = np.max(np.abs(rows), -1, keepdims=True)
                np.maximum(c, math.sqrt(update_regularizer), out=c)
                rows /= c
                scale[rescale] = update_regularizer / c / c + _batch_dot(rows, rows)
            direction = direction.copy()
            direction[rescale] = rows
    np.sqrt(scale, scale)
    np.divide(step_size, scale, scale)
    return np.multiply(direction, scale, out)


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


def _memory_sign_step(
    algorithm: str, state: FilterState, params: FilterParams, x_new: float, y_new: float
) -> FilterState:
    # The one pipeline: gains from the weights before the update (1.0 for
    # APSA), the newest gain-weighted regressor pushed into the memory, and
    # a normalized step along the memory times the error signs.
    _push_sample(state, x_new, y_new)
    rule = gain_rule(algorithm, params)
    gains = 1.0 if rule is None else rule(state.weights)
    state.memory = shift_memory(state.memory, gains * state.regressors[:, 0])
    direction = state.memory @ sign_vector(error_vector(state))
    state.weights = normalized_update(
        state.weights, direction, params.step_size, params.update_regularizer
    )
    return state


# The family: each algorithm's gain rule, made from its FilterParams.  None
# stands for APSA's unit gains, so its memory holds the regressors; MIP-APSA's
# gains are per tap and BS-MIP-APSA's per block.  BS-MIP-APSA at block length
# 1 with the MIP_CONSISTENT or BLOCK_BALANCED variant is MIP-APSA bit for
# bit; at block length L the gain is uniform, which cancels in the normalized
# update and recovers APSA exactly when both regularizers are zero.  The
# makers read ip_gains and bs_gains as module globals when a rule is made, so
# a rule calls whatever they are bound to then (perfbench's spans wrap them).
_GAIN_RULES = {
    "apsa": None,
    "mip-apsa": lambda p: partial(
        ip_gains, proportionate_mix=p.proportionate_mix, gain_regularizer=p.gain_regularizer
    ),
    "bs-mip-apsa": lambda p: partial(
        bs_gains,
        block_length=p.block_length,
        proportionate_mix=p.proportionate_mix,
        gain_regularizer=p.gain_regularizer,
        variant=p.gain_variant,
    ),
}


def gain_rule(algorithm: str, params: FilterParams):
    """The gain rule of ``algorithm`` as ``rule(weights, out=None)``, or None
    for APSA's unit gains.

    The steppers apply the rule to one filter's weights, and the batched
    engine to a slab of filters with ``out`` bound to the slab's rows.
    """
    if algorithm not in _GAIN_RULES:
        raise ValueError(f"unknown algorithm '{algorithm}'; choose from {sorted(_GAIN_RULES)}")
    make = _GAIN_RULES[algorithm]
    return None if make is None else make(params)


STEPPERS = {name: partial(_memory_sign_step, name) for name in _GAIN_RULES}
"""Per-sample stepper of each algorithm: ``step(state, params, x_new, y_new)``
advances the state by one sample in place and returns it."""
