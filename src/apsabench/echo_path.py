"""Block-sparse true systems and path switching.

An echo path here is an FIR impulse response whose energy sits in one or a
few contiguous tap clusters (bulk delay plus short dispersive regions, as in
network echo).  A schedule pairs two such paths with an optional switch
iteration for tracking experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from apsabench.signals import SeededStream

Cluster = tuple[int, int]  # (offset, length) in taps


def _check_clusters(length: int, clusters: tuple[Cluster, ...]) -> None:
    if not clusters:
        raise ValueError("cluster list must not be empty")
    spans = []
    for offset, size in clusters:
        if size < 1:
            raise ValueError(f"cluster length must be >= 1, got {size}")
        if offset < 0 or offset + size > length:
            raise ValueError(
                f"cluster ({offset}, {size}) falls outside [0, {length})"
            )
        spans.append((offset, offset + size))
    spans.sort()
    for (_, end_a), (start_b, _) in zip(spans, spans[1:]):
        if start_b < end_a:
            raise ValueError("clusters overlap")


@dataclass(frozen=True, eq=False)
class EchoPath:
    """Immutable true system: taps plus the cluster layout that generated them.

    Taps outside the clusters are exactly zero, not merely small.
    """

    taps: np.ndarray
    clusters: tuple[Cluster, ...]
    label: str = ""

    def __post_init__(self) -> None:
        _check_clusters(self.taps.shape[0], self.clusters)
        support = np.zeros(self.taps.shape[0], dtype=bool)
        for offset, size in self.clusters:
            support[offset : offset + size] = True
        if np.any(self.taps[~support] != 0.0):
            raise ValueError("taps outside the listed clusters must be exactly zero")
        if not np.any(self.taps != 0.0):
            raise ValueError("echo path must have nonzero norm")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EchoPath):
            return NotImplemented
        return (
            self.clusters == other.clusters
            and self.label == other.label
            and np.array_equal(self.taps, other.taps)
        )

    @property
    def length(self) -> int:
        return self.taps.shape[0]


@dataclass(frozen=True)
class PathSchedule:
    """An initial path, an optional replacement, and when to swap them."""

    initial: EchoPath
    switched: EchoPath | None = None
    switch_iteration: int | None = None

    def __post_init__(self) -> None:
        if (self.switched is None) != (self.switch_iteration is None):
            raise ValueError("switched path and switch_iteration must be set together")
        if self.switched is not None and self.switched.length != self.initial.length:
            raise ValueError("both paths in a schedule must share the same length")


def make_block_sparse(
    length: int,
    clusters: list[Cluster] | tuple[Cluster, ...],
    stream: SeededStream,
    normalize: bool = True,
    label: str = "",
) -> EchoPath:
    """Draw a block-sparse path: Gaussian taps inside clusters, zeros outside.

    With ``normalize`` the taps are scaled to unit Euclidean norm.
    """
    clusters = tuple((int(o), int(s)) for o, s in clusters)
    _check_clusters(length, clusters)
    rng = stream.generator()
    taps = np.zeros(length)
    for offset, size in clusters:
        taps[offset : offset + size] = rng.standard_normal(size)
    if normalize:
        norm = np.linalg.norm(taps)
        if norm == 0.0:
            raise ValueError("drawn taps are all zero; cannot normalize")
        taps /= norm
    return EchoPath(taps=taps, clusters=clusters, label=label)


def path_at(schedule: PathSchedule, iteration: int) -> EchoPath:
    """The path active at ``iteration``: switched from switch_iteration on."""
    if iteration < 0:
        raise ValueError(f"iteration must be >= 0, got {iteration}")
    if schedule.switch_iteration is not None and iteration >= schedule.switch_iteration:
        return schedule.switched
    return schedule.initial
