"""Kicks, time evolution, long-time averages, revivals."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gearsim import _ckernel, dynamics, model, relative
from gearsim.dynamics import (
    KickProtocol,
    apply_kick,
    eigen_occupations,
    evolve,
    evolved_states,
    long_time_average,
    revival_phase_defect,
    run_protocol,
    time_series,
    transmission_ratio,
)
from gearsim.errors import ConvergenceFailure, InternalInconsistency
from gearsim.model import GearConfig, PotentialSpec, derive_geometry
from gearsim.ergotropy import ergotropy_time_series
from gearsim.relative import SUPPORT_EPS, build_hamiltonian, ground_state

# frozen sub-threshold transmissions, 2:2 pair at V0 = 10
R_ODD = {1: 0.4598306368273201, 3: 0.4003615607688080, 5: 0.2872076356616948}

SECOND = PotentialSpec(((0, 0.5), (2, 0.5)))   # no p = 1 term


# ------------------------------------------------------------------ kicks ---

def support(state):
    """{mu_r/u: amplitude} over the grid points the state occupies."""
    grid = state.grid
    return {grid.offset + grid.spacing * j: c
            for j, c in zip(range(grid.lo, grid.half_width + 1), state.amplitudes.tolist())
            if abs(c) ** 2 > SUPPORT_EPS}


def occupied_labels(state):
    """Bloch labels k of the eigenstates the state occupies."""
    es, occ = eigen_occupations(state)
    return {int(k) * state.geom.mu_r_unit for k in es.labels[occ > 0]}


def self_conjugate(state):
    """Whether mu_r -> -mu_r maps the state's sector onto itself: every
    occupied label k has 2k a multiple of n gcd(p), the period of mu_r the
    coupling conserves.  Labels are residues mod n, so this decides it for
    gcd(p) <= 2, which every profile here has."""
    harmonics = [p for p, _ in state.geom.config.potential.harmonics()]
    period = state.geom.n * math.gcd(*harmonics)
    labels = occupied_labels(state)
    assert labels
    return all(2 * k % period == 0 for k in labels)


def test_kick_shift_worked_examples(geom22, geom42):
    """A kick (l1, l2) moves the lattice point (A, mu_r/u) by
    `_lattice_point(l1, l2)`: the kicked state is the ground state shifted
    by exactly that, and its eigenstates carry the residue dk of d mu_r."""
    # without a p = 1 harmonic mu_r is conserved mod 2n, not n: dk = n/2
    # is then no longer a self-conjugate sector
    second = derive_geometry(GearConfig(2, 2, V0=10.0, potential=SECOND))
    for geom, l1, dmu_c, dmu_r, dk, enhanced in (
            (geom22, 6, 6, 6, 2, True),
            (geom42, 5, 3, 6, 0, True),
            (geom22, 1, 1, 1, 1, False),
            (geom42, 1, Fraction(3, 5), Fraction(6, 5), Fraction(6, 5), False),
            (second, 2, 2, 2, 2, False),
            (second, 4, 4, 4, 0, True)):
        dA, db = model._lattice_point(geom, l1, 0)
        assert (geom._mu_c_factor * dA, geom.mu_r_unit * db) == (dmu_c, dmu_r)
        ground = ground_state(geom)
        kicked = apply_kick(ground, l1)
        assert kicked.A == dA
        assert support(kicked) == {b + db: c for b, c in support(ground).items()}
        assert occupied_labels(kicked) == {dk}
        assert self_conjugate(kicked) == enhanced


def test_kick_shift_additive(geom42):
    ground = ground_state(geom42)
    for la, lb in ((1, 1), (2, 3), (5, -2)):
        a, b = (model._lattice_point(geom42, l, 0) for l in (la, lb))
        assert model._lattice_point(geom42, la + lb, 0) == (a[0] + b[0], a[1] + b[1])
        twice = apply_kick(apply_kick(ground, la), lb)
        once = apply_kick(ground, la + lb)
        assert twice.A == once.A and twice.grid.offset == once.grid.offset
        assert support(twice) == support(once)


def test_kick_adds_momentum_exactly(geom22):
    ts = time_series(apply_kick(ground_state(geom22), l1=6), [0.0])
    assert ts.L1[0] == pytest.approx(6.0, abs=1e-12)
    assert ts.L2[0] == pytest.approx(0.0, abs=1e-12)
    assert ts.norm[0] == pytest.approx(1.0, abs=1e-12)


def test_kick_on_second_gear(geom22):
    ts = time_series(apply_kick(ground_state(geom22), l2=4), [0.0])
    assert ts.L1[0] == pytest.approx(0.0, abs=1e-12)
    assert ts.L2[0] == pytest.approx(4.0, abs=1e-12)


def test_protocol_kick_count(geom22):
    assert KickProtocol(ell=6).resolved_num_kicks() == 6
    assert KickProtocol(ell=-4).resolved_num_kicks() == 4
    assert KickProtocol(ell=6, num_kicks=2).per_kick() == 3
    with pytest.raises(ValueError):
        KickProtocol(ell=5, num_kicks=2)  # 5 not divisible by 2
    state = run_protocol(geom22, KickProtocol(ell=6, num_kicks=1))
    assert time_series(state, [0.0]).L1[0] == pytest.approx(6.0, abs=1e-12)


@pytest.mark.parametrize("delta_t", [-1.0, math.inf, math.nan])
def test_protocol_rejects_bad_delay(delta_t):
    with pytest.raises(ValueError, match="delta_t"):
        KickProtocol(ell=2, delta_t=delta_t)


@pytest.mark.parametrize("field", ["ell", "num_kicks", "target_gear"])
def test_protocol_rejects_bool_counts(field):
    with pytest.raises(ValueError, match=field):
        KickProtocol(**{"ell": 2, field: True})


def test_multi_kick_requires_unit_kicks():
    """num_kicks=None is a train of |ell| unit kicks; an explicit num_kicks
    makes each kick larger (the CLI's multikick refuses one: test_cli)."""
    for ell in (6, -6):
        protocol = KickProtocol(ell=ell, delta_t=1.0)
        assert (protocol.resolved_num_kicks(), protocol.per_kick()) == (6, ell // 6)
    assert KickProtocol(ell=6, num_kicks=3, delta_t=1.0).per_kick() == 2


# -------------------------------------------------------------- evolution ---

def test_evolution_conserves_norm_energy_and_drive(geom22):
    state = apply_kick(ground_state(geom22), l1=3)
    e0 = time_series(state, [0.0]).energy_r[0]
    drive = []
    for t in (0.0, 0.7, 3.1, 12.0):
        ts = time_series(state, [t])
        assert ts.norm[0] == pytest.approx(1.0, abs=1e-13)
        assert ts.energy_r[0] == pytest.approx(e0, abs=1e-11)
        drive.append(geom22.config.n2 * ts.L1[0] + geom22.config.n1 * ts.L2[0])
    assert np.ptp(drive) < 1e-11


def test_evolve_zero_is_identity(geom22):
    state = apply_kick(ground_state(geom22), l1=2)
    again = evolve(state, 0.0)
    assert np.allclose(again.amplitudes, state.amplitudes, atol=1e-14)


def test_evolve_composes(geom22):
    state = apply_kick(ground_state(geom22), l1=3)
    one = evolve(state, 5.3)
    two = evolve(evolve(state, 2.1), 3.2)
    # compare up to the common phase convention: overlap must be unity
    overlap = abs(np.vdot(one.amplitudes, two.amplitudes))
    assert overlap == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(one.amplitudes - two.amplitudes)) < 1e-10


@pytest.mark.parametrize("t", [-1.0, math.inf, math.nan])
def test_evolve_rejects_bad_times(geom22, t):
    state = apply_kick(ground_state(geom22), l1=2)
    with pytest.raises(ValueError, match="finite"):
        evolve(state, t)
    with pytest.raises(ValueError, match="finite"):
        evolved_states(state, [0.0, t])


def test_window_growth_stops_at_the_cap(geom22, monkeypatch):
    kicked = apply_kick(ground_state(geom22), l1=3)
    cap = kicked.grid.half_width + 8
    monkeypatch.setattr(relative, "MAX_HALF_WIDTH", cap)
    # no window ever passes a zero bound, so only the cap ends the growth
    monkeypatch.setattr(relative, "TAIL_BOUND", 0.0)
    with pytest.raises(ConvergenceFailure, match=f"tail .* at half-width {cap};"):
        evolve(kicked, 1.0)
    monkeypatch.setattr(relative, "MAX_HALF_WIDTH", 40)
    with pytest.raises(ConvergenceFailure, match="at half-width 40;"):
        ground_state(geom22)


def test_non_finite_tail_stops_window_growth(geom22, monkeypatch):
    monkeypatch.setattr(relative, "MAX_HALF_WIDTH", 64)
    state = apply_kick(ground_state(geom22), l1=2)
    state.amplitudes[0] = np.nan
    with pytest.raises(ConvergenceFailure, match=f"tail nan .* half-width "
                                                 f"{state.grid.half_width};"):
        evolve(state, 1.0)


def test_time_series_matches_pointwise(geom22):
    state = apply_kick(ground_state(geom22), l1=2)
    times = np.array([0.0, 1.5, 4.0])
    ts = time_series(state, times)
    for i, t in enumerate(times):
        one = time_series(evolve(state, t), [0.0])
        assert ts.L1[i] == pytest.approx(one.L1[0], abs=1e-12)
        assert ts.L2[i] == pytest.approx(one.L2[0], abs=1e-12)
        assert ts.L2_sq[i] == pytest.approx(one.L2_sq[0], abs=1e-12)


def test_time_series_checks_the_momentum_split(geom22, monkeypatch):
    split = dynamics.angular_momentum_split
    monkeypatch.setattr(dynamics, "angular_momentum_split",
                        lambda *args: tuple(L + 1e-9 for L in split(*args)))
    with pytest.raises(InternalInconsistency, match="momentum split mismatch"):
        time_series(apply_kick(ground_state(geom22), l1=2), [0.0, 1.5])


def test_time_series_of_no_times_is_empty(geom22):
    ts = time_series(apply_kick(ground_state(geom22), l1=2), [])
    for field in (ts.times, ts.L1, ts.L2, ts.L2_sq, ts.energy_r, ts.norm):
        assert field.shape == (0,)


THIRD = PotentialSpec(((0, 0.5), (1, 0.45), (3, 0.05)))
SMALL_SECOND = PotentialSpec(((0, 0.5), (1, 0.4), (2, 0.1)))


KERNEL_CASES = [
    pytest.param(GearConfig(2, 2, V0=10.0), KickProtocol(ell=6, num_kicks=1),
                 id="22"),
    pytest.param(GearConfig(4, 2, V0=10.0),
                 KickProtocol(ell=4, num_kicks=2, delta_t=0.7), id="42-train"),
    pytest.param(GearConfig(1, 3, V0=6.0, potential=THIRD),
                 KickProtocol(ell=3, num_kicks=1, target_gear=2), id="13-third"),
    pytest.param(GearConfig(1, 1, V0=16.08583582949375, potential=SMALL_SECOND),
                 KickProtocol(ell=11, num_kicks=1), id="11-half-step"),
    pytest.param(GearConfig(3, 2, V0=10.0), KickProtocol(ell=40, num_kicks=1),
                 id="32-ell40"),
    pytest.param(GearConfig(3, 3, V0=10.0), KickProtocol(ell=120, num_kicks=1),
                 id="33-ell120"),
]


@pytest.mark.parametrize("config, protocol", KERNEL_CASES)
def test_kernel_is_the_per_time_propagator(config, protocol):
    state = run_protocol(derive_geometry(config), protocol)
    times = np.array([0.0, 0.3, 1.7, 4.0, 12.5, 60.0])
    window, checked, C = dynamics._amplitudes(state, times)
    assert np.array_equal(checked, times)
    assert C.shape == (len(times), window.grid.size)
    es = relative.eigensystem_for(window.geom, window.grid)
    a = es.vectors.T @ window.amplitudes
    for t, row in zip(times, C):
        ref = es.vectors @ (np.exp(-1j * es.energies * t) * a)
        assert np.max(np.abs(row - ref)) <= 1e-14
    if protocol.ell == 11:
        assert 2 * window.grid.offset == window.grid.spacing
    if protocol.ell == 120:
        assert window.grid.size > 200


def test_evolve_is_the_kernel_row(geom22):
    state = run_protocol(geom22, KickProtocol(ell=4, num_kicks=2, delta_t=0.5))
    for t in (0.4, 3.0, 25.0):
        one = evolve(state, t)
        row = evolved_states(state, [t])[0]
        assert np.array_equal(one.amplitudes, row.amplitudes)
        assert (one.grid, one.A) == (row.grid, row.A)


def _needs_kernel():
    if _ckernel.library() is None:
        pytest.skip("no C compiler: the propagation runs numpy's np.exp")


def _bits(z: np.ndarray) -> np.ndarray:
    return z.view(np.int64)


# |y| at and around DBL_MIN, where libm's cexp returns (1, y) unevaluated
DBL_MIN = np.finfo(float).tiny
_PHASE_TIMES = st.one_of(st.sampled_from([0.0, 5e-324, 1e-300, 1.0, 1e4]),
                         st.floats(0.0, 1e4))
_PHASE_ENERGIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, DBL_MIN, -DBL_MIN,
                     2 * DBL_MIN, -2 * DBL_MIN, 1e5, -1e5]),
    st.floats(-1e5, 1e5))


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(times=st.lists(_PHASE_TIMES, max_size=30).map(lambda ts: [0.0, *ts]),
       energies=st.lists(_PHASE_ENERGIES, max_size=30))
def test_phase_kernel_is_numpys_exp_bit_for_bit(times, energies):
    """`gearsim_phases` writes np.exp(np.outer(times, -1j * E)) bit for bit:
    t = 0 in every draw, energies of both signs, signed zeros and
    subnormals, |tE| up to 1e9.

    The bits depend on libm: numpy's complex exp calls cexp, which for a
    zero real part is (cos y, sin y), or (1, y) at |y| <= DBL_MIN; the
    kernel calls the same cos and sin.  With another libm, or a numpy that
    brings its own cexp, this test is where the difference shows."""
    _needs_kernel()
    times, energies = np.array(times), np.array(energies)
    want = np.exp(np.outer(times, -1j * energies))
    got = dynamics._phases(times, energies)
    assert got.shape == want.shape == (len(times), len(energies))
    assert np.array_equal(_bits(got), _bits(want))


def test_phase_kernel_takes_any_layout_and_empty_axes():
    _needs_kernel()
    times, energies = np.linspace(0.0, 40.0, 41), np.linspace(-30.0, 50.0, 33)
    want = np.exp(np.outer(times[::2], -1j * energies[::-3]))
    assert np.array_equal(_bits(dynamics._phases(times[::2], energies[::-3])),
                          _bits(want))
    assert dynamics._phases(np.empty(0), energies).shape == (0, 33)
    assert dynamics._phases(times, np.empty(0)).shape == (41, 0)


@pytest.mark.parametrize("config, protocol", KERNEL_CASES)
def test_amplitudes_are_the_same_without_the_phase_kernel(config, protocol,
                                                          monkeypatch):
    """`_amplitudes` returns the same bits whether its phases come from the
    compiled kernel or from numpy's np.exp, on one sample and on 201."""
    _needs_kernel()
    state = run_protocol(derive_geometry(config), protocol)
    grids = [np.linspace(0.0, 30.0, 201), [0.0], [7.25]]
    compiled = [dynamics._amplitudes(state, times)[2] for times in grids]
    monkeypatch.setattr(_ckernel, "library", lambda: None)
    for times, C in zip(grids, compiled):
        assert np.array_equal(_bits(dynamics._amplitudes(state, times)[2]), _bits(C))


@pytest.mark.parametrize("config, protocol", [
    pytest.param(GearConfig(2, 2, V0=10.0),
                 KickProtocol(ell=3, num_kicks=3, delta_t=0.5), id="22-ell3"),
    pytest.param(GearConfig(1, 3, V0=6.0, potential=THIRD),
                 KickProtocol(ell=3, num_kicks=3, delta_t=0.7, target_gear=2),
                 id="13-third-train"),
    pytest.param(GearConfig(1, 1, V0=16.08583582949375, potential=SMALL_SECOND),
                 KickProtocol(ell=11, num_kicks=1), id="11-half-step"),
])
def test_outputs_ignore_eigenvector_signs(config, protocol, monkeypatch):
    """Every output pairs v^T c with its own v or squares it, so negating
    any eigenvector columns changes no bit of it."""
    times = [0.0, 0.3, 1.7, 4.0, 12.5]

    def outputs():
        geom = derive_geometry(config)
        state = run_protocol(geom, protocol)
        ts = time_series(state, times)
        es, occ = eigen_occupations(state)
        res = transmission_ratio(geom, protocol)
        erg = ergotropy_time_series(geom, protocol, times)
        return ([ts.L1, ts.L2, ts.L2_sq, ts.energy_r, ts.norm, es.energies, occ,
                 erg.kinetic, erg.net_kinetic, erg.ergotropy, erg.ratio_ergotropy,
                 erg.ratio_net],
                (res.r, res.L1_bar, res.L2_bar, res.L_r_bar, res.period_estimate))

    rng = np.random.default_rng(11)
    unflipped = relative.eigendecompose

    def flipped(ham):
        es = unflipped(ham)
        es.vectors[:, rng.random(es.dim) < 0.5] *= -1.0
        return es

    relative.eigensystem_for.cache_clear()
    try:
        arrays, scalars = outputs()
        monkeypatch.setattr(relative, "eigendecompose", flipped)
        relative.eigensystem_for.cache_clear()
        arrays_flipped, scalars_flipped = outputs()
    finally:
        relative.eigensystem_for.cache_clear()
    assert all(np.array_equal(a, b) for a, b in zip(arrays, arrays_flipped))
    assert scalars == scalars_flipped


# ------------------------------------------------------ long-time averages ---

@pytest.mark.parametrize("ell", [4, 400])
def test_resonant_kick_transmits_exactly_half(geom22, ell):
    res = transmission_ratio(geom22, KickProtocol(ell=ell, num_kicks=1))
    assert abs(res.r - 0.5) < 1e-12
    assert res.L1_bar + res.L2_bar == pytest.approx(ell, abs=1e-12)


def test_high_harmonic_resonant_kick_transmits_exactly_half():
    """Harmonic 20 couples points 40 steps apart on 2:2, so the ground
    state and every kicked window start at half-width 80, not 32."""
    config = GearConfig(2, 2, V0=10.0,
                        potential=PotentialSpec(((0, 0.5), (1, 0.4), (20, 0.1))))
    geom = derive_geometry(config)
    assert relative._start_half_width(geom, 2, 32) == 80
    res = transmission_ratio(geom, KickProtocol(ell=2, num_kicks=1))
    assert abs(res.r - 0.5) < 1e-12


@pytest.mark.parametrize("ell", sorted(R_ODD))
def test_tunneling_transmission_frozen(geom22, ell):
    res = transmission_ratio(geom22, KickProtocol(ell=ell, num_kicks=1))
    assert res.r == pytest.approx(R_ODD[ell], abs=1e-12)
    assert res.r < 0.5


def test_occupations_form_a_distribution(geom22):
    state = run_protocol(geom22, KickProtocol(ell=6, num_kicks=1))
    es, occ = eigen_occupations(state)
    assert np.all(occ >= 0.0)
    assert occ.sum() == pytest.approx(1.0, abs=1e-12)
    assert es.dim == occ.size


def windowed_average_L2(state, T):
    """(1/T) integral of <L2(t)> dt over [0, T], in closed form on the
    eigenbasis: an energy gap w contributes with weight (e^{iwT}-1)/(iwT)."""
    es, _ = eigen_occupations(state)
    start = evolved_states(state, [0.0])[0]   # the state on the window of es
    a = es.vectors.T @ start.amplitudes
    _, m2 = start.momentum_pairs()
    M = es.vectors.T @ (m2[:, None].astype(float) * es.vectors)
    x = np.subtract.outer(es.energies, es.energies) * T
    small = np.abs(x) < 1e-12
    kernel = np.where(small, 1.0, (np.exp(1j * x) - 1.0) / np.where(small, 1.0, 1j * x))
    return float(np.real((np.conj(a)[:, None] * a[None, :] * M * kernel).sum()))


def test_windowed_average_approaches_diagonal_ensemble(geom22):
    res = transmission_ratio(geom22, KickProtocol(ell=6, num_kicks=1))
    state = run_protocol(geom22, KickProtocol(ell=6, num_kicks=1))
    # the window must out-last every occupied beat, not just the dominant one
    devs = [abs(windowed_average_L2(state, T) - res.L2_bar) for T in (7e2, 5e4)]
    assert devs[1] < devs[0]
    assert devs[1] < 0.01 * res.L2_bar


def test_period_estimate_matches_beat(geom22):
    res = transmission_ratio(geom22, KickProtocol(ell=8, num_kicks=1))
    assert res.period_estimate == pytest.approx(194.0, rel=0.05)


# ---------------------------------------------------------------- revivals ---

def test_revival_phases_exact_on_resonance(geom22, geom42):
    # a kicked gear pair rephases exactly after tau_c; the phase defect is
    # computed in exact arithmetic and must vanish for physical momenta
    assert revival_phase_defect(geom22, Fraction(7)) == 0.0
    assert revival_phase_defect(geom42, Fraction(3)) == 0.0
    for m in range(-6, 7):
        assert revival_phase_defect(geom22, Fraction(m)) == 0.0


def test_revival_phase_defect_rejects_off_lattice(geom42):
    from gearsim.errors import NonPhysicalError
    with pytest.raises(NonPhysicalError):
        revival_phase_defect(geom42, Fraction(1, 2))


# ----------------------------------------------- self-conjugate sectors ---

# (n1, n2, ell, I1, I2) with 2 ell n1 I2 / (n1^2 I2 + n2^2 I1) an integer: a
# kick on gear 1 that lands in a sector mu_r -> -mu_r maps onto itself
# (k = 0 or n/2).  The inertias are exact binary floats, so % is exact.
INERTIAS = [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0), (1.0, 1.5), (2.0, 3.0), (1.0, 3.0)]
SELF_CONJUGATE = [(n1, n2, ell, I1, I2)
                  for n1 in range(1, 6) for n2 in range(1, 6)
                  for ell in range(1, 13) for I1, I2 in INERTIAS
                  if (2 * ell * n1 * I2) % (n1 * n1 * I2 + n2 * n2 * I1) == 0]


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(kick=st.sampled_from(SELF_CONJUGATE),
       V0=st.floats(2.0, 40.0),
       fourier=st.tuples(st.floats(0.1, 0.6),
                         st.sampled_from([0.0, 0.05, 0.1, 0.2]),
                         st.sampled_from([0.0, 0.05])))
# the k = n/2 sector half a grid step off mu_r = 0, and a 3:1 kick
@example(kick=(1, 1, 11, 1.0, 1.0), V0=16.08583582949375, fourier=(0.4, 0.1, 0.0))
@example(kick=(1, 1, 7, 1.0, 1.0), V0=35.38, fourier=(0.4, 0.1, 0.0))
@example(kick=(1, 1, 9, 1.0, 1.0), V0=35.38, fourier=(0.4, 0.1, 0.0))
@example(kick=(1, 1, 11, 1.0, 1.0), V0=35.38, fourier=(0.4, 0.1, 0.0))
@example(kick=(3, 1, 5, 1.0, 1.0), V0=25.0, fourier=(0.4, 0.1, 0.0))
# unequal inertias: a 2:2 pair with I2 = 2 I1 transmits 2/3
@example(kick=(2, 2, 3, 1.0, 2.0), V0=10.0, fourier=(0.5, 0.0, 0.0))
def test_self_conjugate_kicks_transmit_exactly_r_cl(kick, V0, fourier):
    n1, n2, ell, I1, I2 = kick
    a1, a2, a3 = fourier
    profile = PotentialSpec(((0, 0.5), (1, a1), (2, a2), (3, a3)))
    config = GearConfig(n1, n2, I1=I1, I2=I2, V0=V0, potential=profile)
    state = run_protocol(derive_geometry(config), KickProtocol(ell=ell, num_kicks=1))
    assert self_conjugate(state)
    res = long_time_average(state, ell)
    assert abs(res.r - n1 * n2 * I2 / (n1 * n1 * I2 + n2 * n2 * I1)) <= 1e-9


def projector_average_L_r(state):
    """Sum over energy levels of <psi|P L_r P|psi>, from a dense eigh of
    the state's window with levels closer than 1e-9 merged: independent of
    the basis inside any degenerate level."""
    start = evolved_states(state, [0.0])[0]   # the state on the window used
    ham = build_hamiltonian(start.geom, start.grid)
    H = np.diag(ham.diag)
    for step, strength in ham.couplings:
        H += strength * (np.eye(ham.dim, k=step) + np.eye(ham.dim, k=-step))
    w, V = np.linalg.eigh(H)
    a = V.T @ start.amplitudes
    mu = start.grid.values()
    total = 0.0
    for level in np.split(np.arange(w.size), np.flatnonzero(np.diff(w) > 1e-9) + 1):
        psi = V[:, level] @ a[level]
        total += float(np.real(np.vdot(psi, mu * psi)))
    return total


@pytest.mark.parametrize("n1, n2, V0, fourier, ell, half_step", [
    # no p = 1 harmonic: two index sectors share each Bloch label
    (2, 2, 10.0, SECOND.fourier, 2, False),
    (2, 4, 10.0, SECOND.fourier, 5, False),
    (4, 4, 25.0, SECOND.fourier, 4, False),
    (2, 2, 25.0, SECOND.fourier, 6, False),
    # a window at offset s/2, one point more below the offset than above
    (3, 3, 10.0, ((0, 0.5), (1, 0.5)), 1, True),
])
def test_long_time_average_is_the_projector_average(n1, n2, V0, fourier, ell,
                                                    half_step):
    """Basis-independent check of the diagonal ensemble.  None of these
    kicks lands in a sector that reflection maps onto itself: there the
    1e-9 merge would also join tunnelling pairs that infinite time does
    resolve, so those kicks are checked by the exact-r property above."""
    config = GearConfig(n1, n2, V0=V0, potential=PotentialSpec(fourier))
    state = run_protocol(derive_geometry(config), KickProtocol(ell=ell, num_kicks=1))
    assert (2 * state.grid.offset == state.grid.spacing) == half_step
    res = long_time_average(state, ell)
    assert res.L_r_bar == pytest.approx(projector_average_L_r(state), abs=1e-10)
