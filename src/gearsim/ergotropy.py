"""Extractable work from the driven gear's momentum distribution.

Tracing out gear 1 leaves gear 2 diagonal in its momentum basis (each grid
point of a fixed-mu_c state maps to a distinct m2), so the reduced state is
just a probability distribution over integer m2.  Its ergotropy has a closed
form: reorder the probabilities passively (largest onto m=0, next two onto
m=+1, m=-1, ...) and take the kinetic-energy difference.

Every stage works on whole arrays, one row per state: `reduced_gear2` gives
gear 2's distributions as a `MomentumDistribution`, `passive_state` reorders
every row at once, and `ergotropy` returns an `ErgotropySeries` of columns.
`ergotropy_time_series` is the three stages over every sample of a series.
Every sum runs left to right over ascending momentum, so a row gives the
same bits whether it is reduced alone or with the rest of its series.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InternalInconsistency
from .dynamics import KickProtocol, _amplitudes, run_protocol
from .model import DerivedGeometry
from .relative import RotorState

# tolerance on |sum of probabilities - 1| of a gear-2 distribution
_NORM_TOL = 1e-10

__all__ = [
    "MomentumDistribution",
    "ErgotropySeries",
    "reduced_gear2",
    "passive_state",
    "ergotropy",
    "ergotropy_time_series",
]


def _last_of_running_sum(x: np.ndarray) -> np.ndarray:
    """Row sums of x added left to right, one term after another."""
    return np.add.accumulate(x, axis=1)[:, -1]


@dataclass(frozen=True)
class MomentumDistribution:
    """Diagonal states of one rotor: row i of `probs` is the probability of
    each momentum of `m` in state i.  Momenta that are not distinct and
    ascending, or a row that does not sum to 1, are a ConfigError."""

    m: np.ndarray  # (d,) int64 momenta, distinct and ascending
    probs: np.ndarray  # (T, d), every row normalised
    inertia: float

    def __post_init__(self):
        if np.any(self.m[1:] <= self.m[:-1]):
            raise ConfigError("momenta not distinct and ascending")
        total = _last_of_running_sum(self.probs)
        bad = ~(np.abs(total - 1.0) <= _NORM_TOL)  # NaN fails too
        if bad.any():
            raise ConfigError(
                f"probabilities sum to {float(total[bad][0])!r}, expected 1")


@dataclass(frozen=True)
class ErgotropySeries:
    """Extractable work and its companions, one entry per state.

    The ratio columns are object arrays holding None where the kinetic
    energy is below 1e-12, too small to divide by.
    """

    kinetic: np.ndarray
    net_kinetic: np.ndarray
    ergotropy: np.ndarray
    ratio_ergotropy: np.ndarray
    ratio_net: np.ndarray


def reduced_gear2(state: RotorState, C: np.ndarray | None = None) -> MomentumDistribution:
    """Gear 2's reduced (diagonal) state of `state`, or of every row of C,
    amplitudes on `state`'s window; each row is normalised by its own sum
    in grid order."""
    if C is None:
        C = state.amplitudes[None, :]
    _, m2 = state.momentum_pairs()
    P = np.abs(C) ** 2
    order = np.argsort(m2, kind="stable")
    probs = (P / P.sum(axis=1, keepdims=True))[:, order]
    try:
        return MomentumDistribution(m2[order], probs, state.geom.config.I2)
    except ConfigError as err:
        # the check refusing a state's own amplitudes is a bug, not bad input
        raise InternalInconsistency(str(err)) from err


def _levels(size: int) -> np.ndarray:
    """Passive momentum level of each rank: 0, +1, -1, +2, -2, ..."""
    rank = np.arange(size)
    return np.where(rank % 2 == 1, (rank + 1) // 2, -(rank // 2))


def passive_state(dist: MomentumDistribution) -> MomentumDistribution:
    """Probabilities reordered to make no work extractable by momentum
    shifts: in every row the largest onto m=0, the next two onto m=1 and
    m=-1, and so on.  Swapping equal probabilities between levels changes
    no sum."""
    levels = _levels(len(dist.m))
    up = np.argsort(levels, kind="stable")
    descending = np.sort(dist.probs, axis=1)[:, ::-1]
    return MomentumDistribution(levels[up], descending[:, up], dist.inertia)


def _kinetic(dist: MomentumDistribution) -> np.ndarray:
    """Kinetic energy of every state of `dist`."""
    return _last_of_running_sum((dist.m * dist.m).astype(float) * dist.probs) \
        / (2.0 * dist.inertia)


def ergotropy(dist: MomentumDistribution) -> ErgotropySeries:
    """Work extractable by unitaries from every state of `dist`."""
    kinetic = _kinetic(dist)
    mean = _last_of_running_sum(dist.m.astype(float) * dist.probs)
    net = mean * mean / (2.0 * dist.inertia)
    erg = kinetic - _kinetic(passive_state(dist))
    small = kinetic < 1e-12
    divisor = np.where(small, 1.0, kinetic)
    return ErgotropySeries(kinetic, net, erg, np.where(small, None, erg / divisor),
                           np.where(small, None, net / divisor))


def ergotropy_time_series(
    geom: DerivedGeometry, protocol: KickProtocol, times
) -> ErgotropySeries:
    """Ergotropy of gear 2 at each time after a kick protocol."""
    state, _, C = _amplitudes(run_protocol(geom, protocol), times)
    # every sample shares one window, so the momentum map is made once
    return ergotropy(reduced_gear2(state, C))
