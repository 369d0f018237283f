"""Extractable work of the driven gear's momentum distribution."""

import importlib

import numpy as np
import pytest

from gearsim.dynamics import (
    KickProtocol,
    apply_kick,
    evolve,
    evolved_states,
    run_protocol,
    time_series,
)
from gearsim.errors import InternalInconsistency
from gearsim.ergotropy import (
    ErgotropyReport,
    MomentumDistribution,
    ergotropy,
    ergotropy_time_series,
    passive_state,
    reduced_gear2,
)
from gearsim.model import GearConfig, PotentialSpec, derive_geometry
from gearsim.relative import ground_state


def dist(pairs, inertia=1.0):
    return MomentumDistribution(tuple(pairs), inertia)


def test_symmetric_pair_yields_quarter():
    d = dist([(1, 0.5), (-1, 0.5)])
    rep = ergotropy(d)
    assert rep.kinetic == pytest.approx(0.5)
    # passive order fills m = 0 first, then |m| = 1: half the energy is work
    assert rep.ergotropy == pytest.approx(0.25, abs=1e-15)
    assert rep.ratio_ergotropy == pytest.approx(0.5)


def test_passive_reordering_worked_example():
    d = dist([(2, 0.5), (0, 0.3), (-1, 0.2)])
    p = passive_state(d)
    assert dict(p.probs) == pytest.approx({0: 0.5, 1: 0.3, -1: 0.2})


def test_passive_state_is_passive():
    d = dist([(3, 0.4), (-2, 0.35), (5, 0.25)])
    p = passive_state(d)
    assert ergotropy(p).ergotropy == pytest.approx(0.0, abs=1e-15)
    # idempotent
    assert passive_state(p).probs == p.probs


def test_passive_insensitive_to_input_order():
    pairs = [(4, 0.1), (-1, 0.3), (0, 0.25), (2, 0.2), (-3, 0.15)]
    a = passive_state(dist(pairs))
    b = passive_state(dist(reversed(pairs)))
    assert a.probs == b.probs


def test_ergotropy_bounds_random_distributions():
    rng = np.random.default_rng(7)
    for _ in range(50):
        ms = rng.choice(np.arange(-8, 9), size=5, replace=False)
        ps = rng.dirichlet(np.ones(5))
        rep = ergotropy(dist(zip(ms.tolist(), ps.tolist())))
        assert -1e-12 <= rep.ergotropy <= rep.kinetic + 1e-12
        if rep.ratio_ergotropy is not None:
            assert 0.0 <= rep.ratio_ergotropy <= 1.0 + 1e-12


def test_distribution_validation():
    with pytest.raises(ValueError):
        dist([(0, 0.5), (1, 0.4)])  # does not sum to one
    with pytest.raises(ValueError):
        dist([(0, -0.1), (1, 1.1)])


def test_resting_gear_has_no_work_content():
    geom = derive_geometry(GearConfig(2, 2, V0=0.0))
    rep = ergotropy(reduced_gear2(ground_state(geom)))
    assert rep.kinetic == pytest.approx(0.0, abs=1e-15)
    assert rep.ergotropy == pytest.approx(0.0, abs=1e-15)
    assert rep.ratio_ergotropy is None
    assert rep.ratio_net is None


def test_reduced_distribution_matches_observables(geom22):
    kicked = apply_kick(ground_state(geom22), l1=3)
    d = reduced_gear2(evolve(kicked, 2.5))
    rep = ergotropy(d)
    ts = time_series(kicked, [2.5])
    two_I2 = 2.0 * geom22.config.I2
    assert sum(p for _, p in d.probs) == pytest.approx(1.0, abs=1e-12)
    assert rep.kinetic == pytest.approx(ts.L2_sq[0] / two_I2, abs=1e-10)
    assert rep.net_kinetic == pytest.approx(ts.L2[0] ** 2 / two_I2, abs=1e-10)


def test_ergotropy_exceeds_directed_energy_after_kick(cfg22, geom22):
    state = evolve(run_protocol(geom22, KickProtocol(ell=6, num_kicks=1)), 5.0)
    rep = ergotropy(reduced_gear2(state))
    assert rep.ergotropy >= rep.net_kinetic - 1e-12
    assert rep.ergotropy <= rep.kinetic + 1e-12


def test_ergotropy_time_series_shape(geom22):
    times = np.linspace(0.0, 3.0, 4)
    reports = ergotropy_time_series(geom22, KickProtocol(ell=2, num_kicks=1), times)
    assert len(reports) == len(times)
    for rep in reports:
        assert rep.kinetic >= 0.0
        assert 0.0 - 1e-12 <= rep.ergotropy <= rep.kinetic + 1e-12


@pytest.mark.parametrize("config,protocol", [
    pytest.param(GearConfig(2, 2, V0=10.0), KickProtocol(ell=6, num_kicks=1),
                 id="22-kick6"),
    pytest.param(GearConfig(1, 3, V0=6.0,
                            potential=PotentialSpec(((0, 0.5), (1, 0.45), (3, 0.05)))),
                 KickProtocol(ell=3, num_kicks=3, delta_t=0.4, target_gear=2),
                 id="13-third-train3"),
    pytest.param(GearConfig(2, 3, I1=0.7, I2=1.3, V0=8.0),
                 KickProtocol(ell=3, num_kicks=1, target_gear=2), id="23-I2"),
])
def test_time_series_is_the_per_state_reduction(config, protocol):
    # the series maps momenta once per window; each sample must still be
    # exactly what reducing that state on its own gives, with its own I2
    times = np.linspace(0.0, 12.0, 25)
    geom = derive_geometry(config)
    state = run_protocol(geom, protocol)
    expected = [ergotropy(reduced_gear2(st)) for st in evolved_states(state, times)]
    assert ergotropy_time_series(geom, protocol, times) == expected
    assert ergotropy_time_series(geom, protocol, []) == []


def per_entry_report(dist):
    """The ergotropy formula entry by entry: left-to-right sums over
    ascending m and over ascending passive level."""
    two_I = 2.0 * dist.inertia
    kinetic = sum(m * m * p for m, p in dist.probs) / two_I
    mean = sum(m * p for m, p in dist.probs)
    ranked = sorted(dist.probs, key=lambda mp: (-mp[1], abs(mp[0]), mp[0] < 0))
    levels = [0 if i == 0 else ((i + 1) // 2 if i % 2 else -(i // 2))
              for i in range(len(ranked))]
    passive = sorted(zip(levels, (p for _, p in ranked)))
    erg = kinetic - sum(m * m * p for m, p in passive) / two_I
    net = mean * mean / two_I
    if kinetic < 1e-12:
        return ErgotropyReport(erg, kinetic, net, None, None)
    return ErgotropyReport(erg, kinetic, net, erg / kinetic, net / kinetic)


def test_ergotropy_is_the_per_entry_formula_bit_for_bit():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        size = int(rng.integers(1, 40))
        ms = rng.choice(np.arange(-60, 61), size=size, replace=False)
        ps = rng.dirichlet(np.full(size, 0.5))
        tiny = rng.random(size) < 0.15
        ps[tiny] = 10.0 ** rng.uniform(-300, -20, size=tiny.sum())
        for _ in range(int(rng.integers(0, 4))):  # ties
            i, j = rng.integers(0, size, size=2)
            ps[i] = ps[j]
        ps = ps / ps.sum()
        inertia = float(rng.choice([1.0, 0.5, 2.7, 1 / 3]))
        d = dist(zip(ms.tolist(), ps.tolist()), inertia)
        assert ergotropy(d) == per_entry_report(d)


@pytest.mark.parametrize("value", [np.nan, 0.0])
def test_time_series_rejects_a_sample_that_is_no_distribution(
        monkeypatch, geom22, value):
    # the package exports the function `ergotropy` under the module's name
    module = importlib.import_module("gearsim.ergotropy")
    kernel = module._amplitudes

    def broken(state, times):
        window, times, C = kernel(state, times)
        C[-1] = 0.0
        C[-1, 0] = value
        return window, times, C

    monkeypatch.setattr(module, "_amplitudes", broken)
    with np.errstate(invalid="ignore"), \
            pytest.raises(InternalInconsistency, match="sum to"):
        ergotropy_time_series(geom22, KickProtocol(ell=2, num_kicks=1), [0.0, 1.0])
