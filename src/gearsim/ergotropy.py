"""Extractable work from the driven gear's momentum distribution.

Tracing out gear 1 leaves gear 2 diagonal in its momentum basis (each grid
point of a fixed-mu_c state maps to a distinct m2), so the reduced state is
just a probability distribution over integer m2.  Its ergotropy has a closed
form: reorder the probabilities passively (largest onto m=0, next two onto
m=+1, m=-1, ...) and take the kinetic-energy difference.

One array kernel computes that for a whole (time, momentum) matrix of
probabilities at once: `ergotropy` runs it on one distribution and
`ergotropy_time_series` on every time sample together, with no per-sample
Python objects.  Its sums run term by term in ascending momentum, so each
sample gives the same bits as reducing that state on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InternalInconsistency
from .dynamics import KickProtocol, _amplitudes, run_protocol
from .model import DerivedGeometry, _real, _whole
from .relative import RotorState

# tolerance on |sum of probabilities - 1| of a gear-2 distribution
_NORM_TOL = 1e-10

__all__ = [
    "MomentumDistribution",
    "ErgotropyReport",
    "reduced_gear2",
    "passive_state",
    "ergotropy",
    "ergotropy_time_series",
]


@dataclass(frozen=True)
class MomentumDistribution:
    """Diagonal state of a single rotor: probabilities over integer m."""

    probs: tuple[tuple[int, float], ...]  # (m, p), ascending in m, p > 0
    inertia: float

    def __post_init__(self):
        inertia = _real(self.inertia, "inertia")
        if not 0 < inertia < np.inf:
            raise ConfigError(f"inertia must be positive and finite, got {inertia!r}")
        object.__setattr__(self, "inertia", inertia)
        total = 0.0
        seen = set()
        clean = []
        for m, p in self.probs:
            m = _whole(m, "momentum")
            p = _real(p, f"probability at m={m}")
            if m in seen:
                raise ConfigError(f"duplicate momentum {m}")
            if not p >= -1e-15:
                raise ConfigError(f"negative or NaN probability {p} at m={m}")
            seen.add(m)
            if p > 0.0:
                clean.append((m, p))
                total += p
        if abs(total - 1.0) > _NORM_TOL:
            raise ConfigError(f"probabilities sum to {total}, expected 1")
        object.__setattr__(self, "probs", tuple(sorted(clean)))


def reduced_gear2(state: RotorState) -> MomentumDistribution:
    """Gear 2's reduced (diagonal) state."""
    _, m2 = state.momentum_pairs()
    p = np.abs(state.amplitudes) ** 2
    probs: dict[int, float] = {}
    for m, pi in zip(m2.tolist(), p.tolist()):
        if m in probs:
            raise InternalInconsistency(
                f"two grid points map to the same m2={m}; reduction not diagonal"
            )
        probs[m] = pi
    n = p.sum()
    items = tuple((m, pi / n) for m, pi in probs.items() if pi > 0.0)
    return MomentumDistribution(items, inertia=state.geom.config.I2)


def _levels(size: int) -> np.ndarray:
    """Passive momentum level of each rank: 0, +1, -1, +2, -2, ..."""
    rank = np.arange(size)
    return np.where(rank % 2 == 1, (rank + 1) // 2, -(rank // 2))


def passive_state(dist: MomentumDistribution) -> MomentumDistribution:
    """Probabilities reordered to make no work extractable by momentum
    shifts: the largest onto m=0, the next two onto m=1 and m=-1, and so on.

    Ties are broken deterministically (equal probabilities placed on the
    lower-|m| level, positive before negative); any tie-breaking gives the
    same energy.
    """
    ranked = sorted(dist.probs, key=lambda mp: (-mp[1], abs(mp[0]), mp[0] < 0))
    levels = _levels(len(ranked)).tolist()
    return MomentumDistribution(
        tuple((level, p) for level, (_, p) in zip(levels, ranked)), dist.inertia)


@dataclass(frozen=True)
class ErgotropyReport:
    """Extractable work and its companions for one distribution.

    ratio_* are None when the kinetic energy is too small to divide by.
    """

    ergotropy: float
    kinetic: float
    net_kinetic: float
    ratio_ergotropy: float | None
    ratio_net: float | None


def _last_of_running_sum(x: np.ndarray) -> np.ndarray:
    """Row sums of x added left to right, one term after another."""
    return np.add.accumulate(x, axis=1)[:, -1]


def _reports(m: np.ndarray, Q: np.ndarray, inertia: float) -> list[ErgotropyReport]:
    """ErgotropyReport of every row of Q, a (T, d) matrix of normalised
    probabilities over the d distinct integer momenta m (in any order).

    Every sum runs left to right over ascending m, or over ascending
    passive level, as a term-by-term sum of the nonzero entries would; zero
    entries add nothing.  The passive state of a row is the row sorted in
    descending order and placed on the levels of `_levels`; swapping equal
    values between levels changes no sum.
    """
    order = np.argsort(m, kind="stable")
    m = m[order]
    if np.any(m[1:] == m[:-1]):
        raise InternalInconsistency("two grid points map to the same momentum; "
                                    "reduction not diagonal")
    total = _last_of_running_sum(Q)
    bad = ~(np.abs(total - 1.0) <= _NORM_TOL)  # NaN fails too
    if bad.any():
        raise InternalInconsistency(
            f"probabilities sum to {total[bad][0]!r}, expected 1")
    Q = Q[:, order]
    two_I = 2.0 * inertia
    kinetic = _last_of_running_sum((m * m).astype(float) * Q) / two_I
    mean = _last_of_running_sum(m.astype(float) * Q)
    net = mean * mean / two_I
    levels = _levels(Q.shape[1])
    up = np.argsort(levels, kind="stable")
    descending = np.sort(Q, axis=1)[:, ::-1]
    passive = _last_of_running_sum(
        (levels[up] ** 2).astype(float) * descending[:, up]) / two_I
    reports = []
    for kin, pas, n in zip(kinetic.tolist(), passive.tolist(), net.tolist()):
        erg = kin - pas
        if kin < 1e-12:
            reports.append(ErgotropyReport(erg, kin, n, None, None))
        else:
            reports.append(ErgotropyReport(erg, kin, n, erg / kin, n / kin))
    return reports


def ergotropy(dist: MomentumDistribution) -> ErgotropyReport:
    """Work extractable from a diagonal rotor state by unitaries."""
    m, p = zip(*dist.probs)
    return _reports(np.array(m, dtype=np.int64), np.array([p]), dist.inertia)[0]


def ergotropy_time_series(
    geom: DerivedGeometry, protocol: KickProtocol, times
) -> list[ErgotropyReport]:
    """Ergotropy of gear 2 at each time after a kick protocol."""
    state, C = _amplitudes(run_protocol(geom, protocol), times)
    # every sample shares one window, so the momentum map is made once and
    # all samples go through the kernel together, each row normalised by
    # its own sum in grid order
    _, m2 = state.momentum_pairs()
    P = np.abs(C) ** 2
    return _reports(m2, P / P.sum(axis=1, keepdims=True), geom.config.I2)
