"""Classical limit: RK4 relative dynamics, interlock threshold, drift averages."""

import math

import numpy as np
import pytest

from gearsim import classical
from gearsim.classical import (
    ClassicalState,
    classical_kick,
    classical_transmission,
    mean_relative_momentum,
    simulate_relative,
)
from gearsim.dynamics import KickProtocol
from gearsim.errors import ConvergenceFailure, StepTooLarge
from gearsim.model import GearConfig, PotentialSpec, derive_geometry


def test_rest_state_stays_at_rest(geom22):
    traj = simulate_relative(geom22, ClassicalState(0.0, 0.0), 2.0)
    assert np.max(np.abs(traj.theta)) == 0.0
    assert np.max(np.abs(traj.L)) == 0.0


def test_energy_conservation_bound_orbit(geom22):
    traj = simulate_relative(geom22, ClassicalState(0.9, 0.0), 10.0)
    cfg = geom22.config
    energies = [L * L / (2.0 * geom22.I_r) - cfg.V0 * cfg.potential.value(geom22.n * th)
                for th, L in zip(traj.theta.tolist(), traj.L.tolist())]
    assert np.ptp(energies) < 1e-9


def test_small_oscillation_period(geom22):
    traj = simulate_relative(geom22, ClassicalState(1e-3, 0.0), 3.0)
    th = traj.theta
    crossings = traj.times[1:][(th[:-1] > 0) & (th[1:] <= 0)]
    periods = np.diff(crossings)
    assert periods.size >= 2
    expected = 2.0 * math.pi / geom22.omega0_harmonic
    assert np.mean(periods) == pytest.approx(expected, rel=2e-3)


def test_step_size_guard(geom22):
    with pytest.raises(StepTooLarge):
        simulate_relative(geom22, ClassicalState(0.0, 1.0), 1.0, dt=1.0)


def test_kick_maps_to_collective_momenta(geom22, geom42):
    st = classical_kick(geom22, ClassicalState(0.0, 0.0), l1=6)
    assert st.L_r == pytest.approx(6.0, abs=1e-14)
    assert st.L_c == pytest.approx(6.0, abs=1e-14)
    # second-gear kick drives the relative momentum the other way
    st2 = classical_kick(geom22, ClassicalState(0.0, 0.0), l2=6)
    assert st2.L_r == pytest.approx(-6.0, abs=1e-14)
    assert st2.L_c == pytest.approx(6.0, abs=1e-14)
    st42 = classical_kick(geom42, ClassicalState(0.0, 0.0), l1=5)
    assert st42.L_r == pytest.approx(6.0, abs=1e-14)


def test_interlock_threshold_matches_energy_balance(geom22, geom42):
    L_star, ell_star = geom22.L_r_threshold, geom22.ell_threshold
    assert L_star == pytest.approx(math.sqrt(40.0), rel=1e-12)
    assert ell_star == pytest.approx(math.sqrt(40.0), rel=1e-12)
    assert (geom42.L_r_threshold, geom42.ell_threshold) == \
        (pytest.approx(6.0), pytest.approx(5.0))


def test_bounded_orbit_has_zero_mean_momentum(geom22):
    assert mean_relative_momentum(geom22, ClassicalState(0.3, 0.0)) == \
        pytest.approx(0.0, abs=1e-9)


def test_separatrix_launch_is_rejected(geom22):
    with pytest.raises(ConvergenceFailure):
        mean_relative_momentum(geom22, ClassicalState(0.0, geom22.L_r_threshold))


def test_below_threshold_gears_interlock(geom22, geom42):
    res = classical_transmission(geom22, KickProtocol(ell=6, num_kicks=1))
    assert not res.above_threshold
    assert res.r == 0.5
    assert res.r_measured == pytest.approx(0.5, abs=1e-6)
    res42 = classical_transmission(geom42, KickProtocol(ell=4, num_kicks=1))
    assert not res42.above_threshold
    assert res42.r_measured == pytest.approx(0.4, abs=1e-6)


def test_above_threshold_gears_slip(geom22):
    res = classical_transmission(geom22, KickProtocol(ell=7, num_kicks=1))
    assert res.above_threshold
    assert res.r < 0.5
    res20 = classical_transmission(geom22, KickProtocol(ell=20, num_kicks=1))
    assert res20.above_threshold
    assert res20.r < 0.05  # fast kicks barely transmit
    # quadrature drift average agrees with the integrated trajectory
    assert res20.L_r_bar_measured == pytest.approx(res20.L_r_bar, rel=1e-6)


def test_threshold_bisection_against_transmission(cfg22, geom22):
    """The advertised kick threshold separates interlocked from slipping
    protocols when probed empirically."""
    lo, hi = 1.0, 12.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        st = classical_kick(geom22, ClassicalState(0.0, 0.0), l1=mid)
        try:
            drifting = abs(mean_relative_momentum(geom22, st)) > 1e-6
        except ConvergenceFailure:
            break
        if drifting:
            hi = mid
        else:
            lo = mid
    assert 0.5 * (lo + hi) == pytest.approx(geom22.ell_threshold, abs=1e-3)


def _walk_cases():
    """Interlocked and drifting kicks, kicks within 1 % of the threshold on
    either side, a 2nd-harmonic profile and kick trains with free evolution
    between the kicks."""
    cfg22 = GearConfig(2, 2, V0=10.0)
    # 2:2 has ell_threshold = sqrt(4 V0): ell = 6 sits 1 % below / above it
    near_below = GearConfig(2, 2, V0=(6.0 / 0.99) ** 2 / 4.0)
    near_above = GearConfig(2, 2, V0=(6.0 / 1.01) ** 2 / 4.0)
    assert derive_geometry(near_below).ell_threshold == pytest.approx(6.0 / 0.99)
    harmonic2 = GearConfig(1, 3, V0=20.0,
                           potential=PotentialSpec(((0, .5), (1, .4), (2, .1))))
    return [
        (cfg22, KickProtocol(ell=6, num_kicks=1)),
        (cfg22, KickProtocol(ell=7, num_kicks=1)),
        (cfg22, KickProtocol(ell=20, num_kicks=1)),
        (near_below, KickProtocol(ell=6, num_kicks=1)),
        (near_above, KickProtocol(ell=6, num_kicks=1)),
        (GearConfig(4, 2, V0=10.0), KickProtocol(ell=4, num_kicks=1)),
        (harmonic2, KickProtocol(ell=3, num_kicks=1)),
        (harmonic2, KickProtocol(ell=9, num_kicks=1, target_gear=2)),
        (cfg22, KickProtocol(ell=8, num_kicks=4, delta_t=0.7)),
        (cfg22, KickProtocol(ell=12, num_kicks=4, delta_t=0.3)),
    ]


@pytest.mark.parametrize("chunk_steps", [classical._CHUNK_STEPS, 300])
def test_block_walk_is_bit_identical(monkeypatch, chunk_steps):
    """Stopping at the first block in which the event fires gives exactly
    the floats of scanning whole chunks, for any block size."""
    monkeypatch.setattr(classical, "_CHUNK_STEPS", chunk_steps)
    rk4_steps = []
    rk4 = classical._rk4

    def counted(geom, th, l, dt, n_steps):
        rk4_steps.append(n_steps)
        return rk4(geom, th, l, dt, n_steps)

    monkeypatch.setattr(classical, "_rk4", counted)
    cases = [(derive_geometry(cfg), proto) for cfg, proto in _walk_cases()]
    results = {}
    for block in (1, 7, chunk_steps):
        monkeypatch.setattr(classical, "_BLOCK_STEPS", block)
        rk4_steps.clear()
        results[block] = [classical_transmission(geom, proto) for geom, proto in cases]
    assert results[1] == results[chunk_steps]
    assert results[7] == results[chunk_steps]
    assert [res.above_threshold for res in results[1]] == \
        [False, True, True, False, True, False, False, True, False, False]
    if chunk_steps == 300:
        # one event search per case, each a whole chunk per call when the
        # block is the chunk: more calls than cases means events past a
        # chunk boundary were reached
        assert rk4_steps.count(300) > len(cases)
