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
    """The number of RK4 steps of every integration the classical limit
    makes from now on, fixed runs and event searches, compiled kernel or
    Python loop, in order."""
    steps = []
    integrator = classical._integrator

    def counted_integrator(geom):
        run = integrator(geom)

        def counted(th, l, dt, n_steps, *event):
            fired = run(th, l, dt, n_steps, *event)
            steps.append(fired or n_steps)
            return fired

        return counted

    monkeypatch.setattr(classical, "_integrator", counted_integrator)
    return steps


def _fixed_run(geom, th, l, dt, n_steps):
    """The n_steps + 1 samples (theta, L) of a `_rk4` run with no event."""
    out = np.empty((2, n_steps + 1))
    assert classical._rk4(geom, th, l, dt, n_steps, classical._NONE, 0.0, 0.0, *out) == 0
    return out[0], out[1]


def _whole_chunk_mean_relative_momentum(geom, state):
    """`mean_relative_momentum` as it was before the event search moved
    into the kernel: the Python loop over each whole chunk of _CHUNK_STEPS steps,
    then numpy scans of the chunk for the event.  The reference the event
    search must match float for float."""
    cfg = geom.config
    dt = classical._default_dt(geom, math.inf)
    if math.isinf(dt):
        return state.L_r
    E = classical._energy(geom, state.theta_r, state.L_r)
    scale = cfg.V0 + abs(E) + 1.0
    if abs(E - classical._potential_ceiling(geom)) < 1e-9 * scale:
        raise ConvergenceFailure("energy indistinguishable from the separatrix")
    hermite, root = classical._hermite, classical._root

    def simulate_until(event):
        n_steps, h = classical._step_grid(classical._CHUNK_STEPS * dt, dt)
        t0, th, l = state.time, state.theta_r, state.L_r
        for _ in range(classical._MAX_CHUNKS):
            theta, L = _fixed_run(geom, th, l, h, n_steps)
            times = t0 + h * np.arange(n_steps + 1)
            hit = event(times, theta, L)
            if hit is not None:
                return hit
            t0, th, l = float(times[-1]), float(theta[-1]), float(L[-1])
        raise ConvergenceFailure("classical event not found within time budget")

    if E > classical._potential_ceiling(geom):
        span = 2.0 * math.pi / geom.n
        direction = 1.0 if state.L_r > 0 else -1.0
        target = state.theta_r + direction * span

        def crossed(times, th, L):
            idx = np.flatnonzero((th - target) * direction >= 0)
            if idx.size == 0:
                return None
            i = int(idx[0])
            if i == 0:
                return float(times[0])
            h = float(times[i] - times[i - 1])
            f = hermite(float(th[i - 1] - target), float(L[i - 1] / geom.I_r),
                        float(th[i] - target), float(L[i] / geom.I_r), h)
            return float(times[i - 1]) + root(f, h)

        return geom.I_r * direction * span / (simulate_until(crossed) - state.time)

    turnings = []
    tiny = 1e-13 * (abs(state.L_r) + math.sqrt(2.0 * geom.I_r * scale))

    def third_turning(times, th, L):
        for i in np.flatnonzero(np.sign(L[1:]) * np.sign(L[:-1]) < 0):
            i = int(i)
            h = float(times[i + 1] - times[i])
            fL = hermite(float(L[i]), float(geom.n * cfg.V0
                         * cfg.potential.derivative(geom.n * th[i])),
                         float(L[i + 1]), float(geom.n * cfg.V0
                         * cfg.potential.derivative(geom.n * th[i + 1])), h)
            s = root(fL, h)
            t_turn = float(times[i]) + s
            if turnings and t_turn <= turnings[-1][0] + 10 * dt:
                continue
            fth = hermite(float(th[i]), float(L[i] / geom.I_r),
                          float(th[i + 1]), float(L[i + 1] / geom.I_r), h)
            turnings.append((t_turn, fth(s)))
            if len(turnings) == 3:
                return t_turn
        return None

    if abs(state.L_r) < tiny and abs(cfg.potential.derivative(geom.n * state.theta_r)) < 1e-15:
        return 0.0
    simulate_until(third_turning)
    (t1, th1), _, (t3, th3) = turnings[:3]
    return geom.I_r * (th3 - th1) / (t3 - t1)


def _on_path(request, path):
    """Run the test on the compiled kernel or, with `no_compiler`, on the
    Python loop."""
    if path == "python":
        request.getfixturevalue("no_compiler")
    elif _ckernel.library() is None:
        pytest.skip("no C compiler: the classical limit runs the Python loop")


@pytest.mark.parametrize("path", ["compiled", "python"])
@pytest.mark.parametrize("chunk_steps", [classical._CHUNK_STEPS, 300, 37])
def test_event_search_matches_the_whole_chunk_scan(request, monkeypatch, chunk_steps, path):
    """Stopping at the step that fires the event gives exactly the floats of
    scanning whole chunks, for any chunk size, on either path.  A step is a
    thousandth of the well period and an interlocked search spans about a
    period, so at 300 and 37 steps every search crosses chunk boundaries."""
    _on_path(request, path)
    monkeypatch.setattr(classical, "_CHUNK_STEPS", chunk_steps)
    cases = [(derive_geometry(cfg), proto) for cfg, proto in _walk_cases()]
    got = [classical_transmission(geom, proto) for geom, proto in cases]
    monkeypatch.setattr(classical, "mean_relative_momentum",
                        _whole_chunk_mean_relative_momentum)
    want = [classical_transmission(geom, proto) for geom, proto in cases]
    assert got == want
    assert [res.above_threshold for res in got] == \
        [False, True, True, False, True, False, False, True, False, False]


@pytest.mark.parametrize("path", ["compiled", "python"])
def test_a_nan_start_exhausts_the_time_budget(request, monkeypatch, geom22, path):
    """NaN never fires an event, so the search runs every chunk and fails."""
    _on_path(request, path)
    monkeypatch.setattr(classical, "_CHUNK_STEPS", 37)
    steps = _count_steps(monkeypatch)
    with pytest.raises(ConvergenceFailure, match="^classical event not found within time budget$"):
        mean_relative_momentum(geom22, ClassicalState(0.0, math.nan))
    assert steps == [37] * classical._MAX_CHUNKS


def test_a_start_already_past_its_target_takes_no_step(monkeypatch, geom22):
    """Far out, theta_r + 2 pi / n rounds back to theta_r, so a drifting
    start is already at its own target and its drift cannot be timed: that
    is a ConvergenceFailure, raised before any step."""
    steps = _count_steps(monkeypatch)
    with pytest.raises(ConvergenceFailure, match="cannot be timed"):
        mean_relative_momentum(geom22, ClassicalState(1e17, 20.0))
    assert steps == []


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
    got = _fixed_run(geom, th, l, dt, n_steps)
    want = _rk4_reference(geom, th, l, dt, n_steps)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape == (n_steps + 1,)
        assert np.array_equal(g, w)
        assert np.array_equal(np.signbit(g), np.signbit(w))


def _random_geometry(n, inertia, V0, harmonics, dt_scale):
    """The pair with u = 0.5 + the harmonics, sign-flipped if need be to keep
    x = 0 a well, as derive_geometry requires, and a step of dt_scale
    thousandths of its period."""
    curvature = sum(p * p * a for p, a in harmonics)
    if curvature < 0:
        harmonics = [(p, -a) for p, a in harmonics]
    geom = derive_geometry(GearConfig(*n, *inertia, V0=V0,
                                      potential=PotentialSpec(((0, 0.5), *harmonics))))
    return geom, dt_scale * 1e-3 * 2.0 * math.pi / max(geom.omega0, geom.omega0_harmonic, 1.0)


_HARMONICS = st.lists(
    st.tuples(st.integers(1, 8), st.floats(-1.0, 1.0).filter(lambda a: a != 0.0)),
    max_size=3, unique_by=lambda term: term[0])


def _runs(test):
    """Hypothesis cases for `_rk4` in each mode: random geometries with 0 to
    3 harmonics and V0 = 0, starts with L = 0.0, -0.0 and NaN and with
    large |theta|, targets on either side of the start, single steps, no
    step, and searches that fire and searches that run out of steps."""
    one = dict(n=(2, 2), inertia=(1.0, 1.0), V0=10.0, harmonics=[(1, 0.5)], th=0.4,
               dt_scale=1.0, n_steps=2000, offset=0.5, direction=1.0)
    fixed = dict(one, mode=classical._NONE)
    for l in (0.0, -0.0, math.nan, 3.0):
        for mode in (classical._TURNING, classical._CROSSING, classical._NONE):
            test = example(**{**one, "l": l, "mode": mode})(test)
    test = example(**{**one, "l": 3.0, "mode": classical._CROSSING,
                      "direction": -1.0})(test)
    test = example(**{**one, "l": -2.0, "mode": classical._TURNING, "n_steps": 0})(test)
    # at rest with no force theta stays on the target: fires on step 1
    test = example(**{**one, "V0": 0.0, "l": 0.0, "mode": classical._CROSSING,
                      "offset": 0.0})(test)
    test = example(**{**fixed, "n": (2, 3), "V0": 0.0, "th": 0.0, "l": 3.0,
                      "n_steps": 1})(test)
    test = example(**{**fixed, "n": (3, 2), "inertia": (0.7, 1.3), "V0": 7.5,
                      "harmonics": [(1, .3), (2, .2), (3, .1)], "th": -0.0, "l": -0.0,
                      "n_steps": 1})(test)
    test = example(**{**fixed, "n": (5, 4), "inertia": (2.0, 0.3), "V0": 60.0,
                      "harmonics": [(8, 0.9), (1, -0.4)], "th": -7.5e8, "l": -60.0,
                      "dt_scale": 30.0, "n_steps": 400})(test)
    test = example(**{**fixed, "n": (1, 1), "V0": 25.0, "harmonics": [], "th": 2.0,
                      "l": -5.0, "n_steps": 50})(test)
    return settings(max_examples=200, derandomize=True, database=None, deadline=None)(
        given(n=st.tuples(st.integers(1, 5), st.integers(1, 5)),
              inertia=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
              V0=st.one_of(st.just(0.0), st.floats(0.0, 60.0)),
              harmonics=_HARMONICS,
              th=st.one_of(st.floats(-10.0, 10.0), st.floats(-1e9, 1e9)),
              l=st.one_of(st.floats(-60.0, 60.0), st.sampled_from([0.0, -0.0, math.nan])),
              dt_scale=st.floats(0.1, 100.0),
              n_steps=st.integers(0, 2000),
              mode=st.sampled_from([classical._TURNING, classical._CROSSING,
                                    classical._NONE]),
              offset=st.floats(-3.0, 3.0),
              direction=st.sampled_from([1.0, -1.0]))(test))


def _assert_same_run(got, want):
    """The same step index and bitwise the same samples, signs of zero and
    NaNs included."""
    assert type(got[0]) is int and got[0] == want[0]
    for g, w in zip(got[1:], want[1:]):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert np.array_equal(g, w, equal_nan=True)
        assert np.array_equal(np.signbit(g), np.signbit(w))


def _python_loop(geom):
    """The Python loop `_rk4` as an `_integrator` callable, compiler or not."""
    def integrate(*run):
        *args, out = run
        return classical._rk4(geom, *args, out[0], out[1])
    return integrate


def _written(integrate, th, l, dt, n_steps, mode, target, direction):
    """(step index, theta, L) of one run of `integrate`, an `_integrator`
    callable, cut to the samples it wrote."""
    out = np.empty((2, n_steps + 1))
    fired = integrate(th, l, dt, n_steps, mode, target, direction, out)
    last = (fired or n_steps) + 1
    return fired, out[0, :last], out[1, :last]


@_runs
def test_rk4_stops_where_the_numpy_scan_finds_the_event(
        n, inertia, V0, harmonics, th, l, dt_scale, n_steps, mode, offset, direction):
    """`_rk4` writes the closure loop's samples up to the first step the
    whole-run numpy scan flags, sign(L[i+1]) * sign(L[i]) < 0 or (theta -
    target) * direction >= 0, and returns that step; with no event, or none
    in n_steps, it writes every sample and returns 0."""
    geom, dt = _random_geometry(n, inertia, V0, harmonics, dt_scale)
    target = th + offset
    theta, L = _rk4_reference(geom, th, l, dt, n_steps)
    if mode == classical._TURNING:
        fires = np.flatnonzero(np.sign(L[1:]) * np.sign(L[:-1]) < 0) + 1
    elif mode == classical._CROSSING:
        fires = np.flatnonzero((theta[1:] - target) * direction >= 0) + 1
    else:
        fires = np.array([], dtype=int)
    k = int(fires[0]) if fires.size else 0
    last = (k or n_steps) + 1
    _assert_same_run(
        _written(_python_loop(geom), th, l, dt, n_steps, mode, target, direction),
        (k, theta[:last], L[:last]))


@_runs
def test_compiled_kernel_matches_the_python_twin_bit_for_bit(
        n, inertia, V0, harmonics, th, l, dt_scale, n_steps, mode, offset, direction):
    """`gearsim_rk4` returns `_rk4`'s step index and writes its samples, bit
    for bit, signs of zero included, in each mode.

    The bits depend on libm's `sin` (the kernel calls the one `math.sin`
    calls) and on the kernel being compiled without FMA contraction or fast
    math (`_ckernel`'s -ffp-contract=off), as tests/test_golden.py's bytes
    depend on the BLAS build.  With another libm, or a compiler that fuses
    multiply-adds regardless, this test is where the difference shows."""
    if _ckernel.library() is None:
        pytest.skip("no C compiler: the classical limit runs the Python loop")
    geom, dt = _random_geometry(n, inertia, V0, harmonics, dt_scale)
    run = (th, l, dt, n_steps, mode, th + offset, direction)
    _assert_same_run(_written(classical._integrator(geom), *run),
                     _written(_python_loop(geom), *run))


def test_event_search_stops_at_the_event_step(monkeypatch, tmp_path):
    """`gearsim classical` on configs/classical_22.json integrates 15,677
    RK4 steps over its 12 points: each search stops at the step of its
    event, where 512-step blocks integrated 17,920 and 128-step blocks
    16,384."""
    steps = _count_steps(monkeypatch)
    config = Path(__file__).resolve().parents[1] / "configs" / "classical_22.json"
    assert len(json.loads(config.read_text())["sweep"]["ell"]) == 12
    assert cli.main(["classical", "--config", str(config),
                     "--out", str(tmp_path)]) == 0
    assert sum(steps) == 15_677
