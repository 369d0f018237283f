"""Kick protocols, spectral time evolution, and long-time averages.

Evolution is exact within the truncated window: states are expanded in the
eigenbasis of the banded relative Hamiltonian and phases applied in closed
form.  Every returned state is checked against the tail-occupation bound and
the window is regrown, up to MAX_HALF_WIDTH, when a kick or long evolution
pushes probability toward an edge.  `relative._ensure_window` fits the
window and projects the state onto its eigenstates once; the propagation
kernel `_amplitudes` turns that into the amplitudes at all T sample times as
one (T, dim) matrix, by two real products with the eigenvectors.  `evolve`,
`evolved_states`, `time_series` and `ergotropy_time_series` read its rows;
`time_series` checks every sample's L1 and L2 two independent ways.

The infinite-time average of any observable is its diagonal-ensemble value,
taken in the symmetry-resolved eigenbasis of `relative.eigendecompose`:
sector-pure everywhere, and even or odd under mu_r -> -mu_r in the sectors
the reflection maps onto themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, InternalInconsistency
from .model import (
    DerivedGeometry,
    GridSpec,
    _centred_divmod,
    _exact_float,
    _integer_A,
    _lattice_point,
    _real,
    _sample_times,
    angular_momentum_split,
)
from .relative import (
    MARGIN_STEPS,
    MIN_HALF_WIDTH,
    SUPPORT_EPS,
    EigenSystem,
    RotorState,
    _ensure_window,
    _start_half_width,
    build_hamiltonian,
    ground_state,
)

__all__ = [
    "KickProtocol",
    "TimeSeries",
    "TransmissionResult",
    "apply_kick",
    "evolve",
    "evolved_states",
    "time_series",
    "long_time_average",
    "run_protocol",
    "transmission_ratio",
    "revival_phase_defect",
]


@dataclass(frozen=True)
class KickProtocol:
    """A total angular-momentum transfer ell delivered as a train of equal
    kicks separated by free evolution delta_t.

    num_kicks=None means |ell| unit kicks (the multi-kick default); the
    total must divide evenly among the kicks.  target_gear selects which
    rotor is struck.
    """

    ell: int
    num_kicks: int | None = None
    delta_t: float = 0.0
    target_gear: int = 1

    def __post_init__(self):
        if not isinstance(self.ell, int) or isinstance(self.ell, bool):
            raise ConfigError(f"ell must be an integer, got {self.ell!r}")
        if self.num_kicks is not None:
            if (not isinstance(self.num_kicks, int) or isinstance(self.num_kicks, bool)
                    or self.num_kicks < 1):
                raise ConfigError(
                    f"num_kicks must be a positive integer, got {self.num_kicks!r}")
            if self.ell % self.num_kicks != 0:
                raise ConfigError(
                    f"ell={self.ell} does not divide into {self.num_kicks} equal kicks"
                )
        delta_t = _real(self.delta_t, "delta_t")
        if not (delta_t >= 0 and math.isfinite(delta_t)):
            raise ConfigError(f"delta_t={delta_t!r} must be finite and >= 0")
        object.__setattr__(self, "delta_t", delta_t)
        if isinstance(self.target_gear, bool) or self.target_gear not in (1, 2):
            raise ConfigError(f"target_gear must be 1 or 2, got {self.target_gear!r}")

    def resolved_num_kicks(self) -> int:
        if self.num_kicks is not None:
            return self.num_kicks
        return max(1, abs(self.ell))

    def per_kick(self) -> int:
        return self.ell // self.resolved_num_kicks()

    def kick_momenta(self) -> tuple[int, int]:
        """(l1, l2) of a single kick in the train."""
        per = self.per_kick()
        return (per, 0) if self.target_gear == 1 else (0, per)


def _refit_grid(state: RotorState, dA: int, db: int) -> RotorState:
    """The state moved by a kick's lattice shift (dA, d mu_r/u), on the
    window built on the canonical offset and sized to the occupied support
    plus margin, but no narrower than a new window starts.  Drops only
    amplitudes below SUPPORT_EPS."""
    grid = state.grid
    k, offset = _centred_divmod(grid.offset + db, grid.spacing)

    occupied = np.flatnonzero(np.abs(state.amplitudes) ** 2 > SUPPORT_EPS)
    if occupied.size == 0:
        occupied = np.array([-grid.lo])
    # signed index of each occupied point on the new offset
    j = occupied + grid.lo + k
    new_J = max(_start_half_width(state.geom, grid.spacing, MIN_HALF_WIDTH),
                int(np.max(np.abs(j))) + MARGIN_STEPS)
    new_grid = GridSpec(offset, grid.spacing, new_J, grid.unit)
    amps = np.zeros(new_grid.size, dtype=complex)
    amps[j - new_grid.lo] = state.amplitudes[occupied]
    return RotorState(state.geom, state.A + dA, new_grid, amps)


def apply_kick(state: RotorState, l1: int = 0, l2: int = 0) -> RotorState:
    """Instantaneous momentum kick: every basis state (m1, m2) shifts to
    (m1 + l1, m2 + l2).  The relative window is rebuilt around the kicked
    support afterwards, and mirror-symmetric, so that it always covers the
    parity partner of the occupied support.
    """
    for name, l in (("l1", l1), ("l2", l2)):
        if not isinstance(l, int) or isinstance(l, bool):
            raise ConfigError(f"{name} must be an integer, got {l!r}")
    return _refit_grid(state, *_lattice_point(state.geom, l1, l2))


def evolve(state: RotorState, t: float) -> RotorState:
    """Free evolution for time t under the relative Hamiltonian."""
    return evolved_states(state, [t])[0]


def _amplitudes(state: RotorState, times
                ) -> tuple[RotorState, np.ndarray, np.ndarray]:
    """The propagation kernel: the state on its adequate window, the times
    as `model._sample_times` checked them, and the (T, dim) matrix C whose
    row i holds the amplitudes at times[i], C = X V^T with X = e^{-iEt} * a
    for every time at once."""
    times = _sample_times(times)
    state, es, a = _ensure_window(state)
    X = np.exp(np.outer(times, -1j * es.energies)) * a
    VT = es.vectors.T
    return state, times, X.real @ VT + 1j * (X.imag @ VT)


def evolved_states(state: RotorState, times) -> list[RotorState]:
    """The state at each requested time, sharing one eigendecomposition."""
    state, _, C = _amplitudes(state, times)
    return [RotorState(state.geom, state.A, state.grid, c) for c in C]


@dataclass(frozen=True)
class TimeSeries:
    """Expectation values sampled on a time grid."""

    times: np.ndarray
    L1: np.ndarray
    L2: np.ndarray
    L2_sq: np.ndarray
    energy_r: np.ndarray
    norm: np.ndarray


def time_series(state: RotorState, times) -> TimeSeries:
    """Evolve and record observables at each time, all samples at once.
    The energy is measured on every evolved sample, <c|H c>, so its spread
    tests the propagation rather than restating it.  L1 and L2 come from the
    exact integer (m1, m2) behind each grid point and, independently, from
    the collective split formula; the two must agree to 1e-12 at every
    sample or the state bookkeeping is corrupt."""
    state, times, C = _amplitudes(state, times)
    m1, m2 = state.momentum_pairs()
    m2 = m2.astype(float)
    P = np.abs(C) ** 2
    L1, L2, norm = P @ m1.astype(float), P @ m2, P.sum(axis=1)
    mu_c = _exact_float(state.A, state.geom._mu_c_factor)
    split = angular_momentum_split(state.geom, norm * mu_c,
                                   P @ state.grid.values())
    for exact, other in zip((L1, L2), split):
        bad = np.abs(exact - other) > 1e-12 * np.maximum(1.0, np.abs(exact))
        if bad.any():
            i = int(np.argmax(bad))
            raise InternalInconsistency(
                f"momentum split mismatch at t={float(times[i])!r}: "
                f"{float(exact[i])!r} vs {float(other[i])!r}")
    HC = build_hamiltonian(state.geom, state.grid).matvec(C)
    energy = np.einsum("ij,ij->i", C.conj(), HC).real
    return TimeSeries(times, L1, L2, P @ (m2 * m2), energy, norm)


def eigen_occupations(state: RotorState) -> tuple[EigenSystem, np.ndarray]:
    """Eigensystem of the state's (adequately sized) window and the state's
    probability in each eigenstate."""
    _, es, a = _ensure_window(state)
    return es, np.abs(a) ** 2


@dataclass(frozen=True)
class TransmissionResult:
    """Infinite-time averages after a kick protocol.

    r is the transmission ratio <L2>_bar / ell, or None when ell == 0.
    period_estimate is 2*pi over the gap between the two most occupied
    eigenstates (the dominant beat in the transient); the occupations
    themselves come from `eigen_occupations`.
    """

    r: float | None
    L1_bar: float
    L2_bar: float
    L_r_bar: float
    period_estimate: float


def long_time_average(state: RotorState, ell: int | None = None) -> TransmissionResult:
    """Diagonal-ensemble averages of the per-gear momenta.

    <L_r>_bar = sum_i p_i <v_i|L_r|v_i> over the eigenbasis.  Any nonzero
    splitting dephases at infinite time, so levels are never merged.  The
    eigenbasis is symmetry-resolved: every vector is sector-pure, and in a
    sector that mu_r -> -mu_r maps onto itself it is even or odd, whatever
    the splitting of a tunnelling pair.  Exactly degenerate pairs live in
    different index sectors, with disjoint support, where L_r has no cross
    matrix elements, so they contribute the same in any basis.
    """
    es, occ = eigen_occupations(state)
    mu = es.grid.values()
    per_state = (np.abs(es.vectors) ** 2 * mu[:, None]).sum(axis=0)
    L_r_bar = float(occ @ per_state)
    mu_c = _exact_float(state.A, state.geom._mu_c_factor)
    L1_bar, L2_bar = angular_momentum_split(state.geom, mu_c, L_r_bar)

    order = np.lexsort((es.energies, -occ))
    top, second = order[0], order[1] if len(order) > 1 else order[0]
    gap = abs(es.energies[top] - es.energies[second])
    if occ[second] < 1e-14 or gap == 0.0:
        period = math.inf
    else:
        period = 2.0 * math.pi / gap

    r = None
    if ell:
        r = L2_bar / ell
    return TransmissionResult(r, L1_bar, L2_bar, L_r_bar, period)


def run_protocol(geom: DerivedGeometry, protocol: KickProtocol) -> RotorState:
    """Ground state, then the kick train with free evolution between kicks.
    Time is measured from the final kick."""
    state = ground_state(geom)
    l1, l2 = protocol.kick_momenta()
    num = protocol.resolved_num_kicks()
    for i in range(num):
        state = apply_kick(state, l1, l2)
        if i < num - 1 and protocol.delta_t > 0:
            state = evolve(state, protocol.delta_t)
    return state


def transmission_ratio(geom: DerivedGeometry, protocol: KickProtocol) -> TransmissionResult:
    """Long-time transmission after a kick protocol from the ground state."""
    return long_time_average(run_protocol(geom, protocol), ell=protocol.ell)


def revival_phase_defect(geom: DerivedGeometry, mu_c) -> float:
    """Distance of the center-of-mass phase at t = tau_c from a multiple of
    2*pi, in radians.  Evaluated with exact rationals: the phase over 2*pi
    equals (mu_c * nu)^2, which is an exact integer for physical mu_c."""
    _integer_A(geom, mu_c)   # NonPhysicalError unless physical
    winding = (Fraction(mu_c) * geom.nu) ** 2
    frac = winding - round(winding)
    return abs(float(frac)) * 2.0 * math.pi

