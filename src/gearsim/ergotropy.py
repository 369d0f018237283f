"""Extractable work from the driven gear's momentum distribution.

Tracing out gear 1 leaves gear 2 diagonal in its momentum basis (each grid
point of a fixed-mu_c state maps to a distinct m2), so the reduced state is
just a probability distribution over integer m2.  Its ergotropy has a closed
form: reorder the probabilities passively (largest onto m=0, next two onto
m=+1, m=-1, ...) and take the kinetic-energy difference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InternalInconsistency
from .dynamics import KickProtocol, evolved_states, run_protocol
from .model import GearConfig, derive_geometry
from .relative import RotorState

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
        if self.inertia <= 0:
            raise ValueError("inertia must be positive")
        total = 0.0
        seen = set()
        clean = []
        for m, p in self.probs:
            m = int(m)
            p = float(p)
            if m in seen:
                raise ValueError(f"duplicate momentum {m}")
            if p < -1e-15:
                raise ValueError(f"negative probability {p} at m={m}")
            seen.add(m)
            if p > 0.0:
                clean.append((m, p))
                total += p
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        object.__setattr__(self, "probs", tuple(sorted(clean)))

    def as_dict(self) -> dict[int, float]:
        return dict(self.probs)

    def kinetic(self) -> float:
        """<L^2>/(2 I)."""
        return sum(m * m * p for m, p in self.probs) / (2.0 * self.inertia)

    def mean(self) -> float:
        """<L>."""
        return sum(m * p for m, p in self.probs)

    def net_kinetic(self) -> float:
        """<L>^2/(2 I): the directional part of the kinetic energy."""
        mean = self.mean()
        return mean * mean / (2.0 * self.inertia)


def _distribution(m2: np.ndarray, p: np.ndarray, inertia: float) -> MomentumDistribution:
    """Gear 2's distribution from the m2 of each grid point and the
    (unnormalised) probability there."""
    probs: dict[int, float] = {}
    for m, pi in zip(m2.tolist(), p.tolist()):
        if m in probs:
            raise InternalInconsistency(
                f"two grid points map to the same m2={m}; reduction not diagonal"
            )
        probs[m] = pi
    n = p.sum()
    items = tuple((m, pi / n) for m, pi in probs.items() if pi > 0.0)
    return MomentumDistribution(items, inertia=inertia)


def reduced_gear2(state: RotorState) -> MomentumDistribution:
    """Gear 2's reduced (diagonal) state."""
    _, m2 = state.momentum_pairs()
    return _distribution(m2, np.abs(state.amplitudes) ** 2, state.geom.config.I2)


def passive_state(dist: MomentumDistribution) -> MomentumDistribution:
    """Probabilities reordered to make no work extractable by momentum
    shifts: the largest onto m=0, the next two onto m=1 and m=-1, and so on.

    Ties are broken deterministically (equal probabilities placed on the
    lower-|m| level, positive before negative); any tie-breaking gives the
    same energy.
    """
    ranked = sorted(dist.probs, key=lambda mp: (-mp[1], abs(mp[0]), mp[0] < 0))
    out = []
    for i, (_, p) in enumerate(ranked):
        level = 0 if i == 0 else ((i + 1) // 2 if i % 2 else -(i // 2))
        out.append((level, p))
    return MomentumDistribution(tuple(out), dist.inertia)


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


def ergotropy(dist: MomentumDistribution) -> ErgotropyReport:
    """Work extractable from a diagonal rotor state by unitaries."""
    kinetic = dist.kinetic()
    passive_kinetic = passive_state(dist).kinetic()
    erg = kinetic - passive_kinetic
    net = dist.net_kinetic()
    if kinetic < 1e-12:
        ratios = (None, None)
    else:
        ratios = (erg / kinetic, net / kinetic)
    return ErgotropyReport(erg, kinetic, net, ratios[0], ratios[1])


def ergotropy_time_series(
    config: GearConfig, protocol: KickProtocol, times
) -> list[ErgotropyReport]:
    """Ergotropy of gear 2 at each time after a kick protocol."""
    geom = derive_geometry(config)
    states = evolved_states(run_protocol(geom, protocol), times)
    if not states:
        return []
    # every state shares one window, so the momentum map is made once
    _, m2 = states[0].momentum_pairs()
    return [ergotropy(_distribution(m2, np.abs(st.amplitudes) ** 2, config.I2))
            for st in states]
