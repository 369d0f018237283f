"""Classical limit of the gear pair: one relative degree of freedom.

The relative coordinate obeys theta_r' = L_r/I_r, L_r' = n V0 u'(n theta_r);
the center-of-mass momentum is a spectator that kicks simply add to.  A kick
leaves the pair interlocked (librating, so the time-averaged L_r vanishes)
or spinning past the teeth (drifting), depending on whether the energy
clears the potential ceiling.  Time averages are taken over exactly one
period in either case, with event times refined by cubic Hermite
interpolation so the O(dt^4) integrator accuracy survives into the average.

The RK4 steps run in a C kernel (`_rk4.c`, built on first use by
`_ckernel`) that evaluates the Python loop `_rk4`'s expressions in the same
order, so it gives the same floats; where the kernel cannot be built, `_rk4`
itself runs.  Either way the integration stops at the first block of
_BLOCK_STEPS steps in which the event fires.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass, replace

import numpy as np

from . import _ckernel, _lapack
from .errors import ConfigError, ConvergenceFailure
from .model import (
    DerivedGeometry,
    angular_momentum_split,
    momenta_to_collective,
)

__all__ = [
    "ClassicalState",
    "Trajectory",
    "ClassicalTransmissionResult",
    "simulate_relative",
    "classical_kick",
    "mean_relative_momentum",
    "classical_transmission",
]

# fraction of the natural period used as the integrator step
_DT_FRACTION = 1e-3
# event searches integrate at most _MAX_CHUNKS chunks of _CHUNK_STEPS steps,
# looking for the event after every _BLOCK_STEPS steps: on average a search
# runs half a block past its event.  With the compiled kernel a step costs
# about 0.1 us and the Python side of a block (the call, the time grid and
# the event check) about 13 us (2-vCPU x86-64): on single-kick ell sweeps
# of a 2:2 and a 3:2 pair, 512-step blocks took 11.7 ms where 128 took
# 16.6, 256 took 13.5, 1024 took 11.3 and 2048 took 12.7
_CHUNK_STEPS = 20000
_MAX_CHUNKS = 200
_BLOCK_STEPS = 512
# scipy.optimize.brentq's defaults for rtol and maxiter
_BRENT_RTOL = 4 * np.finfo(float).eps
_BRENT_MAXITER = 100
# scipy.integrate.quad's defaults for epsabs and epsrel
_QUAD_TOL = 1.49e-8


@dataclass(frozen=True)
class ClassicalState:
    """Phase-space point of the classical pair (relative + spectator L_c)."""

    theta_r: float
    L_r: float
    L_c: float = 0.0
    time: float = 0.0


@dataclass(frozen=True)
class Trajectory:
    """Fixed-step integration record of the relative motion."""

    geom: DerivedGeometry
    times: np.ndarray
    theta: np.ndarray
    L: np.ndarray
    L_c: float

    def final(self) -> ClassicalState:
        return ClassicalState(
            float(self.theta[-1]), float(self.L[-1]), self.L_c, float(self.times[-1])
        )


def _natural_period(geom: DerivedGeometry) -> float:
    """Shortest oscillation timescale of the well, or inf for a free rotor."""
    omega = max(geom.omega0, geom.omega0_harmonic)
    return 2.0 * math.pi / omega if omega > 0 else math.inf


def _default_dt(geom: DerivedGeometry, t_final: float) -> float:
    period = _natural_period(geom)
    if math.isinf(period):
        return max(t_final, 1.0) / 1000.0
    return _DT_FRACTION * period


def _energy(geom: DerivedGeometry, theta: float, L: float) -> float:
    cfg = geom.config
    return L * L / (2.0 * geom.I_r) - cfg.V0 * cfg.potential.value(geom.n * theta)


def _step_grid(t_final: float, dt: float) -> tuple[int, float]:
    """(number of steps, step) of a fixed-step run that lands on t_final:
    dt shrunk to an integer divisor of t_final."""
    if not t_final > 0:
        raise ConfigError(f"t_final must be > 0, got {t_final!r}")
    n_steps = max(1, math.ceil(t_final / dt - 1e-12))
    return n_steps, t_final / n_steps


def _rk4(geom: DerivedGeometry, th: float, l: float, dt: float,
         n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """n_steps RK4 steps of size dt from (th, l): the (theta, L) samples,
    starting point included.  Each stage sums the force n V0 u'(x) inline,
    in the order of PotentialSpec.derivative.  `_rk4.c` evaluates the same
    expressions in the same order; this loop runs where it cannot be
    built."""
    I_r = geom.I_r
    n = geom.n
    nV0 = n * geom.config.V0
    terms = tuple((p, p * a) for p, a in geom.config.potential.harmonics())
    sin = math.sin
    half = 0.5 * dt  # th + 0.5 * dt * k already groups as th + (0.5 * dt) * k
    theta, L = [th], [l]
    for _ in range(n_steps):
        x, du = n * th, 0.0
        for p, pa in terms:
            du -= pa * sin(p * x)
        k1t, k1l = l / I_r, nV0 * du
        th2, l2 = th + half * k1t, l + half * k1l
        x, du = n * th2, 0.0
        for p, pa in terms:
            du -= pa * sin(p * x)
        k2t, k2l = l2 / I_r, nV0 * du
        th3, l3 = th + half * k2t, l + half * k2l
        x, du = n * th3, 0.0
        for p, pa in terms:
            du -= pa * sin(p * x)
        k3t, k3l = l3 / I_r, nV0 * du
        th4, l4 = th + dt * k3t, l + dt * k3l
        x, du = n * th4, 0.0
        for p, pa in terms:
            du -= pa * sin(p * x)
        k4t, k4l = l4 / I_r, nV0 * du
        th += dt * (k1t + 2 * k2t + 2 * k3t + k4t) / 6.0
        l += dt * (k1l + 2 * k2l + 2 * k3l + k4l) / 6.0
        theta.append(th)
        L.append(l)
    return np.array(theta), np.array(L)


def _stepper(geom: DerivedGeometry):
    """`_rk4` for this geometry, as (th, l, dt, n_steps) -> (theta, L): the
    compiled kernel (`_ckernel`) with the force's terms converted once, or
    the Python loop when the kernel cannot be built.  Both give the same
    floats."""
    kernel = _ckernel.rk4()
    if kernel is None:
        return lambda th, l, dt, n_steps: _rk4(geom, th, l, dt, n_steps)
    harmonics = geom.config.potential.harmonics()
    terms = ctypes.c_double * len(harmonics)
    args = (geom.n, geom.I_r, geom.n * geom.config.V0, len(harmonics),
            terms(*(p for p, _ in harmonics)), terms(*(p * a for p, a in harmonics)))

    def step(th: float, l: float, dt: float, n_steps: int):
        out = np.empty((2, n_steps + 1))
        theta = out.ctypes.data
        kernel(*args, th, l, dt, n_steps, theta, theta + out.strides[0])
        return out[0], out[1]

    return step


def simulate_relative(
    geom: DerivedGeometry,
    initial: ClassicalState,
    t_final: float,
) -> Trajectory:
    """Classical RK4 integration of the relative motion for time t_final.

    The step is fixed, a thousandth of the well period (of max(t_final, 1)
    for a free rotor), shrunk so that t_final is landed on exactly.
    """
    n_steps, dt = _step_grid(t_final, _default_dt(geom, t_final))
    times = initial.time + dt * np.arange(n_steps + 1)
    theta, L = _stepper(geom)(initial.theta_r, initial.L_r, dt, n_steps)
    return Trajectory(geom, times, theta, L, initial.L_c)


def classical_kick(geom: DerivedGeometry, state: ClassicalState,
                   l1: float = 0.0, l2: float = 0.0) -> ClassicalState:
    """Instantaneous momentum transfer to either gear (linear in (l1, l2),
    with the same coefficients as the quantum shift)."""
    shift = momenta_to_collective(geom, l1, l2)
    return replace(
        state,
        L_r=state.L_r + float(shift.mu_r),
        L_c=state.L_c + float(shift.mu_c),
    )


def _potential_ceiling(geom: DerivedGeometry) -> float:
    """Maximum of the potential energy -V0 u(x): the escape energy."""
    return -geom.config.V0 * geom.config.potential.min_value()


def _hermite(y0: float, d0: float, y1: float, d1: float, h: float):
    """Cubic Hermite interpolant on [0, h] from endpoint values/slopes."""
    def f(s: float) -> float:
        t = s / h
        h00 = (1 + 2 * t) * (1 - t) ** 2
        h10 = t * (1 - t) ** 2
        h01 = t * t * (3 - 2 * t)
        h11 = t * t * (t - 1)
        return h00 * y0 + h10 * h * d0 + h01 * y1 + h11 * h * d1
    return f


def _root(f, b: float) -> float:
    """Root of f in [0, b] to xtol 1e-15: scipy.optimize.brentq's compiled
    solver, with its guard against a NaN value of f.  A NaN, a bracket
    without a sign change or no convergence raises ConvergenceFailure."""
    def guarded(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ConvergenceFailure(f"root function is NaN at x={x!r}")
        return fx

    try:
        return _lapack.brentq(guarded, 0.0, b, 1e-15, _BRENT_RTOL, _BRENT_MAXITER)
    except (ValueError, RuntimeError) as exc:
        raise ConvergenceFailure(f"classical event root search failed: {exc}") from exc


def _simulate_until(geom: DerivedGeometry, state: ClassicalState, event,
                    dt: float) -> float:
    """Integrate until `event(traj)` returns a refined event time; return it.

    The run is cut into chunks of _CHUNK_STEPS steps, each on its own time
    grid, and every chunk is walked in blocks of _BLOCK_STEPS steps, so the
    integration stops at the first block in which the event fires, on
    average half a block past the event.  A block starts on the last sample
    of the one before it: `event` sees every pair of neighbouring samples
    once, in order, so the result does not depend on the block size.
    """
    n_steps, h = _step_grid(_CHUNK_STEPS * dt, dt)
    step = _stepper(geom)
    t0, th, l = state.time, state.theta_r, state.L_r
    for _ in range(_MAX_CHUNKS):
        for start in range(0, n_steps, _BLOCK_STEPS):
            stop = min(start + _BLOCK_STEPS, n_steps)
            theta, L = step(th, l, h, stop - start)
            times = t0 + h * np.arange(start, stop + 1)
            hit = event(Trajectory(geom, times, theta, L, state.L_c))
            if hit is not None:
                return hit
            th, l = float(theta[-1]), float(L[-1])
        t0 = float(times[-1])
    raise ConvergenceFailure("classical event not found within time budget")


def mean_relative_momentum(geom: DerivedGeometry, state: ClassicalState) -> float:
    """Time-averaged L_r measured from the simulated trajectory.

    Interlocked motion averages over one full libration period (turning
    points located by Hermite-refined zero crossings of L_r); drifting
    motion averages over the traversal of one potential cell.  Either way
    mean L_r = I_r * (net theta advance)/(elapsed time).
    """
    cfg = geom.config
    dt = _default_dt(geom, math.inf)
    if math.isinf(dt):
        # free rotor: L_r is conserved
        return state.L_r
    E = _energy(geom, state.theta_r, state.L_r)
    ceiling = _potential_ceiling(geom)
    scale = cfg.V0 + abs(E) + 1.0
    if abs(E - ceiling) < 1e-9 * scale:
        raise ConvergenceFailure("energy indistinguishable from the separatrix")

    if E > ceiling:
        # drifting: time one full cell traversal
        span = 2.0 * math.pi / geom.n
        direction = 1.0 if state.L_r > 0 else -1.0
        target = state.theta_r + direction * span

        def crossed(traj: Trajectory):
            th, times = traj.theta, traj.times
            past = (th - target) * direction >= 0
            idx = np.flatnonzero(past)
            if idx.size == 0:
                return None
            i = int(idx[0])
            if i == 0:
                return float(times[0])
            h = float(times[i] - times[i - 1])
            f = _hermite(float(th[i - 1] - target), float(traj.L[i - 1] / geom.I_r),
                         float(th[i] - target), float(traj.L[i] / geom.I_r), h)
            return float(times[i - 1]) + _root(f, h)

        t_cross = _simulate_until(geom, state, crossed, dt)
        period = t_cross - state.time
        return geom.I_r * direction * span / period

    # interlocked: find three successive turning points (L_r sign changes)
    turnings: list[tuple[float, float]] = []  # (time, theta at turning)
    tiny = 1e-13 * (abs(state.L_r) + math.sqrt(2.0 * geom.I_r * scale))

    def third_turning(traj: Trajectory):
        th, L, times = traj.theta, traj.L, traj.times
        sign_change = np.flatnonzero(np.sign(L[1:]) * np.sign(L[:-1]) < 0)
        for i in sign_change:
            i = int(i)
            h = float(times[i + 1] - times[i])
            fL = _hermite(float(L[i]), float(geom.n * cfg.V0
                          * cfg.potential.derivative(geom.n * th[i])),
                          float(L[i + 1]), float(geom.n * cfg.V0
                          * cfg.potential.derivative(geom.n * th[i + 1])), h)
            s = _root(fL, h)
            t_turn = float(times[i]) + s
            if turnings and t_turn <= turnings[-1][0] + 10 * dt:
                continue
            fth = _hermite(float(th[i]), float(L[i] / geom.I_r),
                           float(th[i + 1]), float(L[i + 1] / geom.I_r), h)
            turnings.append((t_turn, fth(s)))
            if len(turnings) == 3:
                return t_turn
        return None

    if abs(state.L_r) < tiny and abs(cfg.potential.derivative(geom.n * state.theta_r)) < 1e-15:
        return 0.0  # resting at an equilibrium point
    _simulate_until(geom, state, third_turning, dt)
    (t1, th1), _, (t3, th3) = turnings[:3]
    return geom.I_r * (th3 - th1) / (t3 - t1)


@dataclass(frozen=True)
class ClassicalTransmissionResult:
    """Classical transmission after a kick protocol.

    r and the *_bar fields use the closed-form period average (exact zero
    for interlocked motion, a quadrature for drifting motion); r_measured
    comes from the simulated trajectory average and should agree to ~1e-6.
    """

    r: float | None
    r_measured: float | None
    L1_bar: float
    L2_bar: float
    L_r_bar: float
    L_r_bar_measured: float
    above_threshold: bool
    final_state: ClassicalState


def _drift_average_quadrature(geom: DerivedGeometry, E: float, direction: float) -> float:
    """Closed-form mean L_r of a drifting orbit at energy E: I_r * (cell
    width)/(cell traversal time), the time from the energy integral, by
    QUADPACK qagse as scipy.integrate.quad(..., limit=200) runs it.  An
    orbit that does not clear the potential everywhere (a radicand that is
    not positive) or any QUADPACK error flag raises ConvergenceFailure."""
    cfg = geom.config
    I_r = geom.I_r

    def integrand(x: float) -> float:
        radicand = 2.0 * I_r * (E + cfg.V0 * cfg.potential.value(x))
        if not radicand > 0:
            raise ConvergenceFailure(
                f"drifting orbit at energy {E!r} does not clear the potential "
                f"at x={x!r}: it lies on or inside the separatrix")
        return 1.0 / math.sqrt(radicand)

    T, _, ier = _lapack.qagse(integrand, 0.0, 2.0 * math.pi, _QUAD_TOL, _QUAD_TOL, 200)
    if ier != 0:
        raise ConvergenceFailure(f"drift period quadrature failed (QUADPACK ier={ier})")
    T *= I_r / geom.n
    if not math.isfinite(T) or T <= 0:
        raise ConvergenceFailure("drift period quadrature failed")
    return direction * I_r * (2.0 * math.pi / geom.n) / T


def classical_transmission(
    geom: DerivedGeometry, protocol
) -> ClassicalTransmissionResult:
    """Kick the resting, aligned pair and average momenta over one period.

    `protocol` carries (ell, num_kicks, delta_t, target_gear) exactly as in
    the quantum pipeline; kicks are interleaved with classical evolution.
    """
    num = protocol.resolved_num_kicks()
    l1, l2 = protocol.kick_momenta()

    state = ClassicalState(theta_r=0.0, L_r=0.0, L_c=0.0, time=0.0)
    for i in range(num):
        state = classical_kick(geom, state, l1, l2)
        if i < num - 1 and protocol.delta_t > 0:
            traj = simulate_relative(geom, state, protocol.delta_t)
            state = replace(traj.final(), L_c=state.L_c)

    E = _energy(geom, state.theta_r, state.L_r)
    ceiling = _potential_ceiling(geom)
    above = E > ceiling

    if above:
        direction = 1.0 if state.L_r > 0 else -1.0
        L_r_bar = _drift_average_quadrature(geom, E, direction)
    else:
        L_r_bar = 0.0
    L_r_meas = mean_relative_momentum(geom, state)

    L1_bar, L2_bar = angular_momentum_split(geom, state.L_c, L_r_bar)
    _, L2_meas = angular_momentum_split(geom, state.L_c, L_r_meas)
    ell = protocol.ell
    r = L2_bar / ell if ell else None
    r_meas = L2_meas / ell if ell else None
    return ClassicalTransmissionResult(
        r, r_meas, L1_bar, L2_bar, L_r_bar, L_r_meas, above, state
    )
