"""Classical limit: RK4 relative dynamics, interlock threshold, drift averages."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gearsim import _ckernel, classical, cli
from gearsim.classical import (
    ClassicalState,
    classical_kick,
    classical_transmission,
    mean_relative_momentum,
    simulate_relative,
)
from gearsim.dynamics import KickProtocol
from gearsim.errors import ConvergenceFailure
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


# 1:1, u = .4 cos x + .3 cos 2x: the minimum of u is -11/30 at cos x = -1/3,
# between any two points of a uniform sample, and at this depth an ell = 3
# kick lands 4e-9 inside the exact separatrix, which puts it within the
# separatrix guard's round-off band; a sampled minimum (8,192 points) put the
# ceiling below the kick and called the orbit drifting
PROFILE = PotentialSpec(((1, 0.4), (2, 0.3)))
SEPARATRIX = {"gears": {"n1": 1, "n2": 1, "V0": 2.1093750019},
              "potential": {"fourier": [[1, 0.4], [2, 0.3]]},
              "sweep": {"ell": [3]}}


def test_drift_quadrature_inside_the_separatrix_is_a_typed_error():
    geom = derive_geometry(GearConfig(1, 1, V0=SEPARATRIX["gears"]["V0"], potential=PROFILE))
    E = classical._energy(geom, 0.0, 3.0)
    assert E < classical._potential_ceiling(geom)
    with pytest.raises(ConvergenceFailure, match="does not clear the potential"):
        classical._drift_average_quadrature(geom, E, 1.0)


def test_classical_inside_the_separatrix_is_one_error_line(tmp_path, capsys):
    geom = derive_geometry(GearConfig(1, 1, V0=SEPARATRIX["gears"]["V0"], potential=PROFILE))
    assert geom.ell_threshold > 3.0
    path = tmp_path / "separatrix.json"
    path.write_text(json.dumps(SEPARATRIX), encoding="utf-8")
    out = tmp_path / "out"
    assert cli.main(["classical", "--config", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: energy indistinguishable from the separatrix\n"
    assert not out.exists()


def test_kick_just_inside_the_exact_separatrix_interlocks():
    """4e-9 inside the separatrix, just outside the guard's band: a sampled
    minimum called this orbit drifting and its quadrature failed."""
    geom = derive_geometry(GearConfig(1, 1, V0=2.10937500373125, potential=PROFILE))
    res = classical_transmission(geom, KickProtocol(ell=3, num_kicks=1))
    assert not res.above_threshold
    assert res.r == 0.5
    assert res.r_measured == pytest.approx(0.5, abs=1e-6)


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


def _count_steps(monkeypatch) -> list[int]:
    """The step count of every RK4 call the classical limit makes from now
    on, compiled kernel or Python loop, in order."""
    steps = []
    stepper = classical._stepper

    def counted_stepper(geom):
        step = stepper(geom)

        def counted(th, l, dt, n_steps):
            steps.append(n_steps)
            return step(th, l, dt, n_steps)

        return counted

    monkeypatch.setattr(classical, "_stepper", counted_stepper)
    return steps


@pytest.mark.parametrize("chunk_steps", [classical._CHUNK_STEPS, 300])
def test_block_walk_is_bit_identical(monkeypatch, chunk_steps):
    """Stopping at the first block in which the event fires gives exactly
    the floats of scanning whole chunks, for any block size."""
    monkeypatch.setattr(classical, "_CHUNK_STEPS", chunk_steps)
    rk4_steps = _count_steps(monkeypatch)
    cases = [(derive_geometry(cfg), proto) for cfg, proto in _walk_cases()]
    results = {}
    for block in (1, 7, classical._BLOCK_STEPS, chunk_steps):
        monkeypatch.setattr(classical, "_BLOCK_STEPS", block)
        rk4_steps.clear()
        results[block] = [classical_transmission(geom, proto) for geom, proto in cases]
    for block in results:
        assert results[block] == results[chunk_steps]
    assert [res.above_threshold for res in results[1]] == \
        [False, True, True, False, True, False, False, True, False, False]
    if chunk_steps == 300:
        # one event search per case, each a whole chunk per call when the
        # block is the chunk: more calls than cases means events past a
        # chunk boundary were reached
        assert rk4_steps.count(300) > len(cases)


def _rk4_reference(geom, th, l, dt, n_steps):
    """The RK4 loop with the force as a closure, as it was before the stages
    were inlined: the new loop must give exactly these floats."""
    I_r = geom.I_r
    n = geom.n
    nV0 = n * geom.config.V0
    terms = tuple((p, p * a) for p, a in geom.config.potential.harmonics())

    def force(x: float) -> float:
        # n V0 u'(x), summed in the order of PotentialSpec.derivative
        du = 0.0
        for p, pa in terms:
            du -= pa * math.sin(p * x)
        return nV0 * du

    theta = np.empty(n_steps + 1)
    L = np.empty(n_steps + 1)
    theta[0], L[0] = th, l
    for i in range(1, n_steps + 1):
        k1t, k1l = l / I_r, force(n * th)
        th2, l2 = th + 0.5 * dt * k1t, l + 0.5 * dt * k1l
        k2t, k2l = l2 / I_r, force(n * th2)
        th3, l3 = th + 0.5 * dt * k2t, l + 0.5 * dt * k2l
        k3t, k3l = l3 / I_r, force(n * th3)
        th4, l4 = th + dt * k3t, l + dt * k3l
        k4t, k4l = l4 / I_r, force(n * th4)
        th += dt * (k1t + 2 * k2t + 2 * k3t + k4t) / 6.0
        l += dt * (k1l + 2 * k2l + 2 * k3l + k4l) / 6.0
        theta[i], L[i] = th, l
    return theta, L


@pytest.mark.parametrize("config", [
    GearConfig(2, 2, V0=10.0, potential=PotentialSpec(((0, 1.0),))),
    GearConfig(2, 2, V0=10.0),
    GearConfig(1, 3, V0=20.0, potential=PotentialSpec(((0, .5), (1, .4), (2, .1)))),
    GearConfig(3, 2, V0=7.5, I1=0.7, I2=1.3,
               potential=PotentialSpec(((0, .4), (1, .3), (2, .2), (3, .1)))),
    GearConfig(2, 3, V0=0.0),
], ids=["0-harmonics", "1-harmonic", "2-harmonics", "3-harmonics", "V0=0"])
@pytest.mark.parametrize("th, l, n_steps", [
    (0.0, 0.0, 2000),
    (0.0, 3.0, 2000),
    (0.4, -2.0, 2000),
    (-1.1, 0.0, 2000),
    (-0.3, -7.0, 1),
    (2.0, 5.0, 1),
])
def test_rk4_matches_the_closure_loop_bit_for_bit(config, th, l, n_steps):
    geom = derive_geometry(config)
    dt = 1e-3 * 2.0 * math.pi / max(geom.omega0, geom.omega0_harmonic, 1.0)
    got = classical._rk4(geom, th, l, dt, n_steps)
    want = _rk4_reference(geom, th, l, dt, n_steps)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape == (n_steps + 1,)
        assert np.array_equal(g, w)
        assert np.array_equal(np.signbit(g), np.signbit(w))


_HARMONICS = st.lists(
    st.tuples(st.integers(1, 8), st.floats(-1.0, 1.0).filter(lambda a: a != 0.0)),
    max_size=3, unique_by=lambda term: term[0])


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(n=st.tuples(st.integers(1, 5), st.integers(1, 5)),
       inertia=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
       V0=st.one_of(st.just(0.0), st.floats(0.0, 60.0)),
       harmonics=_HARMONICS,
       th=st.one_of(st.floats(-10.0, 10.0), st.floats(-1e9, 1e9)),
       l=st.floats(-60.0, 60.0),
       dt_scale=st.floats(0.1, 100.0),
       n_steps=st.integers(1, 400))
@example(n=(2, 3), inertia=(1.0, 1.0), V0=0.0, harmonics=[(1, 0.5)], th=0.0, l=3.0,
         dt_scale=1.0, n_steps=1)
@example(n=(3, 2), inertia=(0.7, 1.3), V0=7.5, harmonics=[(1, .3), (2, .2), (3, .1)],
         th=-0.0, l=-0.0, dt_scale=1.0, n_steps=1)
@example(n=(5, 4), inertia=(2.0, 0.3), V0=60.0, harmonics=[(8, 0.9), (1, -0.4)],
         th=-7.5e8, l=-60.0, dt_scale=30.0, n_steps=400)
@example(n=(1, 1), inertia=(1.0, 1.0), V0=25.0, harmonics=[], th=2.0, l=-5.0,
         dt_scale=1.0, n_steps=50)
def test_compiled_kernel_matches_the_closure_loop_bit_for_bit(
        n, inertia, V0, harmonics, th, l, dt_scale, n_steps):
    """The C kernel gives exactly the closure loop's floats, signs of zero
    included, for 0 to 3 harmonics, V0 = 0, single steps and large |theta|.

    The bits depend on libm's `sin` (the kernel calls the one `math.sin`
    calls) and on the kernel being compiled without FMA contraction or fast
    math (`_ckernel`'s -ffp-contract=off), as tests/test_golden.py's bytes
    depend on the BLAS build.  With another libm, or a compiler that fuses
    multiply-adds regardless, this test is where the difference shows."""
    if _ckernel.rk4() is None:
        pytest.skip("no C compiler: the classical limit runs the Python loop")
    curvature = sum(p * p * a for p, a in harmonics)
    if curvature < 0:  # keep x = 0 a well, as derive_geometry requires
        harmonics = [(p, -a) for p, a in harmonics]
    geom = derive_geometry(GearConfig(*n, *inertia, V0=V0,
                                      potential=PotentialSpec(((0, 0.5), *harmonics))))
    dt = dt_scale * 1e-3 * 2.0 * math.pi / max(geom.omega0, geom.omega0_harmonic, 1.0)
    got = classical._stepper(geom)(th, l, dt, n_steps)
    want = _rk4_reference(geom, th, l, dt, n_steps)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape == (n_steps + 1,)
        assert np.array_equal(g, w, equal_nan=True)
        assert np.array_equal(np.signbit(g), np.signbit(w))


def test_event_search_stops_within_a_block_of_the_event(monkeypatch, tmp_path):
    """`gearsim classical` on configs/classical_22.json: 512-step blocks
    integrate 17,920 RK4 steps over its 12 points, where 128-step blocks
    integrated 16,384 and 1024-step blocks 20,480."""
    steps = _count_steps(monkeypatch)
    config = Path(__file__).resolve().parents[1] / "configs" / "classical_22.json"
    assert len(json.loads(config.read_text())["sweep"]["ell"]) == 12
    assert cli.main(["classical", "--config", str(config),
                     "--out", str(tmp_path)]) == 0
    assert classical._BLOCK_STEPS == 512
    assert sum(steps) == 17_920
