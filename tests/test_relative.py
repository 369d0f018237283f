"""Banded relative-coordinate Hamiltonian: spectra, symmetries, truncation."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest

from gearsim import model, relative
from gearsim.dynamics import KickProtocol, apply_kick, transmission_ratio
from gearsim.errors import (
    ConvergenceFailure,
    InternalInconsistency,
    NonPhysicalError,
    UnsupportedInertiaError,
)
from gearsim.model import (
    GearConfig,
    GridSpec,
    PotentialSpec,
    collective_to_momenta,
    derive_geometry,
    momenta_to_collective,
)
from gearsim.relative import (
    RotorState,
    _parity_eig,
    band_structure,
    build_hamiltonian,
    eigendecompose,
    eigensystem_for,
    ground_state,
    widen,
)

E0_22 = -7.153078342041734   # frozen: 2:2 pair, V0 = 10
E0_42 = -6.137846510268533   # frozen: 4:2 pair, V0 = 10


def _centred(geom, J):
    """The mu_c = 0 window of half-width J, on the ground state's lattice."""
    return GridSpec(0, geom.grid_spacing_u, J, geom.mu_r_unit)


@pytest.fixture(scope="module")
def es22(geom22):
    return eigensystem_for(geom22, _centred(geom22, 32))


def test_eigensystem_orthonormal(es22):
    gram = es22.vectors.T @ es22.vectors
    assert np.max(np.abs(gram - np.eye(es22.dim))) < 1e-10


def test_eigen_residuals(geom22, es22):
    ham = build_hamiltonian(geom22, es22.grid)
    for i in range(es22.dim):
        v = es22.vectors[:, i]
        resid = np.max(np.abs(ham.matvec(v) - es22.energies[i] * v))
        assert resid < 1e-9 * (abs(es22.energies[i]) + geom22.config.V0 + 1.0)


def test_energies_sorted(es22):
    assert np.all(np.diff(es22.energies) >= 0)


def test_sector_purity_is_exact(geom22, es22):
    """The coupling only hops in steps of n, so each eigenvector must live
    entirely on one quasi-momentum class -- with exact zeros elsewhere."""
    n = geom22.n
    mu = es22.grid.values()
    assert es22.labels.dtype == np.int64
    for i in range(es22.dim):
        k = float(int(es22.labels[i]) * geom22.mu_r_unit)
        on_sector = (np.mod(mu - k, n) == 0)
        assert np.all(es22.vectors[~on_sector, i] == 0.0)


def test_reflection_definite_eigenvectors(es22):
    # on a centered window every eigenvector has <mu_r> = 0; tunneling pairs
    # too close for the solver to split must not come back side-localized
    mu = es22.grid.values()
    expect = (es22.vectors**2).T @ mu
    assert np.max(np.abs(expect)) < 1e-10


def test_free_rotor_spectrum():
    geom = derive_geometry(GearConfig(2, 2, V0=0.0))
    grid = _centred(geom, 8)
    es = eigensystem_for(geom, grid)
    mu = grid.values()
    assert es.energies == pytest.approx(np.sort(mu**2 / (2.0 * geom.I_r)), abs=1e-12)
    # each eigenvector lives on the +-mu shell of its energy (the exactly
    # degenerate pairs come back as symmetric/antisymmetric combinations)
    for i in range(es.dim):
        support = np.abs(mu[es.vectors[:, i] != 0.0])
        assert support.size in (1, 2)
        assert np.all(support == support[0])
        assert support[0] ** 2 / (2.0 * geom.I_r) == pytest.approx(es.energies[i], abs=1e-12)


def tail_mass(amplitudes):
    """Probability in the outer TAIL_FRACTION of the window (both edges),
    summed over the amplitudes: the edge rule `_fitted` reads from
    EigenSystem.edge_norms."""
    low, high = relative._edges(len(amplitudes))
    p = np.abs(amplitudes) ** 2
    return float(p[low].sum() + p[high].sum())


def _e0(geom):
    """Energy of the interlocked ground state (relative part)."""
    return eigensystem_for(geom, ground_state(geom).grid).energies[0]


def test_ground_state_frozen_energy(geom22, geom42):
    assert _e0(geom22) == pytest.approx(E0_22, abs=1e-12)
    assert _e0(geom42) == pytest.approx(E0_42, abs=1e-12)


def test_ground_state_properties(geom22):
    state = ground_state(geom22)
    assert state.A == 0
    assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)
    assert tail_mass(state.amplitudes) < 1e-12
    # bound well below the free ground state, above the well bottom
    e0 = _e0(geom22)
    assert -geom22.config.V0 < e0 < 0.0
    # harmonic estimate around the well bottom is good to a few percent
    harmonic = -geom22.config.V0 + 0.5 * geom22.omega0_harmonic
    assert abs(e0 - harmonic) < 0.1 * geom22.config.V0


@pytest.mark.parametrize("potential", [
    PotentialSpec(), PotentialSpec(((0, 0.5), (2, 0.5))),
    PotentialSpec(((0, 0.5), (1, 0.4), (3, 0.1))),
], ids=["cos", "second", "third"])
def test_ground_state_window_is_the_tail_mass_rule(potential):
    """`_fitted` stops on edge_norms[0]**2; the ground state's window is the
    first one whose lowest eigenvector has tail_mass below the bound."""
    grown = 0
    for n1, n2 in ((1, 1), (1, 3), (3, 2)):
        for V0 in (0.5, 10.0, 300.0, 1e4):
            geom = derive_geometry(GearConfig(n1, n2, V0=V0, potential=potential))
            start = relative._start_half_width(geom, geom.grid_spacing_u,
                                               relative.MIN_HALF_WIDTH)
            grid = GridSpec(0, geom.grid_spacing_u, start, geom.mu_r_unit)
            v0 = eigensystem_for(geom, grid).vectors[:, 0]
            while tail_mass(v0) >= relative.TAIL_BOUND:
                grid = relative._wider(grid)
                v0 = eigensystem_for(geom, grid).vectors[:, 0]
            assert ground_state(geom).grid == grid
            grown += grid.half_width > start
    assert grown > 0   # the deep wells need wider windows than they start on


def test_ground_energy_truncation_stable(geom22):
    grid, wide = _centred(geom22, 24), _centred(geom22, 48)
    e_narrow = eigensystem_for(geom22, grid).energies[0]
    e_wide = eigensystem_for(geom22, wide).energies[0]
    assert abs(e_narrow - e_wide) < 1e-10


def test_deeper_well_binds_harder():
    shallow = derive_geometry(GearConfig(2, 2, V0=5.0))
    deep = derive_geometry(GearConfig(2, 2, V0=40.0))
    assert _e0(deep) < _e0(shallow)


def test_eigensystem_cache_returns_same_object(geom22):
    grid = _centred(geom22, 32)
    assert eigensystem_for(geom22, grid) is eigensystem_for(geom22, grid)


def test_eigensystem_cache_is_bounded():
    from gearsim.relative import EIGEN_CACHE_SIZE
    geom = derive_geometry(GearConfig(2, 2, V0=0.0))   # diagonal: cheap solves
    grids = [GridSpec(0, 4, J, geom.mu_r_unit)
             for J in range(1, EIGEN_CACHE_SIZE + 10)]
    for grid in grids:
        es = eigensystem_for(geom, grid)
        assert es.grid == grid
    assert eigensystem_for.cache_info().currsize <= EIGEN_CACHE_SIZE
    hits = eigensystem_for.cache_info().hits
    assert eigensystem_for(geom, grids[-1]) is es
    assert eigensystem_for.cache_info().hits == hits + 1


def test_window_must_cover_coupling(geom22):
    with pytest.raises(NonPhysicalError, match="too small"):
        build_hamiltonian(geom22, GridSpec(0, 2, 1, geom22.mu_r_unit))
    # harmonic 1 couples mu_r to mu_r +- 4 on 2:2, off a lattice of spacing 3
    with pytest.raises(NonPhysicalError, match="not a multiple"):
        build_hamiltonian(geom22, GridSpec(0, 3, 8, geom22.mu_r_unit))


def test_widen_embeds_amplitudes(geom22):
    state = ground_state(geom22)
    wide = widen(state)
    assert wide.grid.half_width > state.grid.half_width
    assert np.sum(np.abs(wide.amplitudes) ** 2) == pytest.approx(1.0, abs=1e-12)
    # the old window sits inside the new one where its mu_r values are
    start = int(np.flatnonzero(wide.grid.values() == state.grid.values()[0])[0])
    inner = slice(start, start + state.grid.size)
    assert np.array_equal(wide.grid.values()[inner], state.grid.values())
    assert np.array_equal(wide.amplitudes[inner], state.amplitudes)
    assert not np.any(np.delete(wide.amplitudes, np.arange(inner.start, inner.stop)))


def test_band_structure_33():
    geom = derive_geometry(GearConfig(3, 3, V0=20.0))
    bs = band_structure(geom, 3)
    ks = [Fraction(k) for k in bs.ks]
    assert sorted(ks) == [Fraction(-2), Fraction(-1), Fraction(0),
                          Fraction(1), Fraction(2), Fraction(3)]
    # time-reversal symmetry of the band energies, exact to roundoff
    for band in range(bs.num_bands):
        e = {k: bs.energies[band, i] for i, k in enumerate(ks)}
        for k in (Fraction(1), Fraction(2)):
            assert e[k] == pytest.approx(e[-k], abs=1e-12)
    # bands are ordered and dispersion grows with the band index
    assert np.all(np.diff(bs.energies, axis=0) > 0)
    width = bs.energies.max(axis=1) - bs.energies.min(axis=1)
    assert width[0] < width[1] < width[2]


@pytest.mark.parametrize("V0", [1e4, 1e5])
def test_deep_well_bands_match_a_wide_window(V0):
    """Deep wells spread the bands' eigenvectors over many lattice steps:
    each residue's window grows until the lowest num_bands states are off
    its edges, so the energies match a half-width-400 solve."""
    geom = derive_geometry(GearConfig(3, 3, V0=V0))
    bs = band_structure(geom, 3)
    P = geom.bloch_period_u
    for col, k in enumerate(range(-((P - 1) // 2), P // 2 + 1)):
        wide = eigendecompose(build_hamiltonian(geom, GridSpec(k, P, 400, geom.mu_r_unit)))
        np.testing.assert_allclose(bs.energies[:, col], wide.energies[:3],
                                   rtol=1e-12, atol=0)


# (n1, n2, V0, I1, I2); the Mathieu map depends on the inertias through I_r
MATHIEU_PAIRS = [
    *(pytest.param(n1, n2, V0, 1.0, 1.0, id=f"{n1}-{n2}-{V0}")
      for n1, n2, V0 in [(2, 2, 10.0), (3, 3, 20.0), (1, 2, 8.0), (4, 2, 10.0),
                         (1, 1, 40.0)]),
    (2, 2, 10.0, 1.0, 2.0), (1, 2, 8.0, 1.0, 1.5), (3, 2, 10.0, 2.0, 3.0),
    (2, 2, 10.0, 1.0, 3.0),
]


@pytest.mark.parametrize("n1,n2,V0,I1,I2", MATHIEU_PAIRS)
def test_band_structure_matches_mathieu(n1, n2, V0, I1, I2):
    """For u = a0 + a1 cos x the relative equation is Mathieu's with
    z = n theta / 2, q = 4 I_r V0 a1 / n^2 and E = a n^2 / (8 I_r) - V0 a0:
    the periodic (k = 0) and antiperiodic (k = n/2) sectors are the sorted
    characteristic values {a_2r, b_2r+2} and {a_2r+1, b_2r+1}."""
    from scipy.special import mathieu_a, mathieu_b

    geom = derive_geometry(GearConfig(n1, n2, I1=I1, I2=I2, V0=V0))
    a0, a1 = 0.5, 0.5
    n, I_r = geom.n, geom.I_r
    q = 4 * I_r * V0 * a1 / n**2
    bs = band_structure(geom, 6)
    orders = {Fraction(0): ([2 * r for r in range(6)], [2 * r + 2 for r in range(6)]),
              Fraction(n, 2): ([2 * r + 1 for r in range(6)], [2 * r + 1 for r in range(6)])}
    checked = 0
    for col, k in enumerate(bs.ks):
        if k not in orders:
            continue
        even, odd = orders[k]
        chars = sorted([mathieu_a(m, q) for m in even] + [mathieu_b(m, q) for m in odd])
        want = np.array(chars[:6]) * n**2 / (8 * I_r) - V0 * a0
        np.testing.assert_allclose(bs.energies[:, col], want, rtol=0, atol=1e-12)
        checked += 1
    assert checked == 1 + (Fraction(n, 2) in bs.ks)


@pytest.mark.parametrize("n1,n2,V0,I1,I2", MATHIEU_PAIRS)
def test_parity_parts_are_mathieu_a_and_b(n1, n2, V0, I1, I2):
    """The even and odd parts of the k = 0 and k = n/2 windows separate the
    Mathieu characteristic values.  At k = 0 the even part is a_2r and the
    odd part b_2r+2.  At k = n/2 the coupling -V0 a1 / 2 flips the sign of q,
    which swaps a_2r+1 and b_2r+1: the even part is b_2r+1, the odd a_2r+1."""
    from scipy.special import mathieu_a, mathieu_b

    geom = derive_geometry(GearConfig(n1, n2, I1=I1, I2=I2, V0=V0))
    n, I_r = geom.n, geom.I_r
    q = 4 * I_r * V0 * 0.5 / n**2
    r = range(3)
    # on a lattice of half the unit, k = n/2 is the point P = n/u whether or
    # not the pair reaches it, and n is 2P
    P = geom.bloch_period_u
    fine = dataclasses.replace(geom, mu_r_unit=geom.mu_r_unit / 2, bloch_period_u=2 * P)
    parts = {0: ([mathieu_a(2 * i, q) for i in r],
                 [mathieu_b(2 * i + 2, q) for i in r]),
             P: ([mathieu_b(2 * i + 1, q) for i in r],
                 [mathieu_a(2 * i + 1, q) for i in r])}
    for k, (even, odd) in parts.items():
        ham = build_hamiltonian(fine, GridSpec(k, 2 * P, 16, fine.mu_r_unit))
        assert ham.couplings == ((1, -V0 * 0.5 / 2),)
        w, _ = _parity_eig(ham.diag, ham.couplings, 1)
        size = (ham.diag.size + 1) // 2   # the even part holds an odd window's centre
        for got, chars in ((w[:size], even), (w[size:], odd)):
            want = np.array(chars) * n**2 / (8 * I_r) - V0 * 0.5
            np.testing.assert_allclose(got[:3], want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n1,n2,I1,I2,count", [
    (3, 3, 1.0, 1.0, 6), (4, 2, 1.0, 1.0, 10), (1, 3, 2.0, 2.0, 10),
    (2, 2, 1.0, 2.0, 6), (1, 2, 1.0, 1.5, 11), (3, 2, 2.0, 3.0, 35),
    (2, 2, 1.0, 3.0, 8),
])
def test_band_residues_are_the_physical_classes(n1, n2, I1, I2, count):
    """The ks are exactly the Bloch labels that integer (m1, m2) reach: the
    residues of their mu_r mod n, reduced into (-n/2, n/2]."""
    geom = derive_geometry(GearConfig(n1, n2, I1=I1, I2=I2, V0=10.0))
    box = range(-20, 21)
    n = geom.n
    residues = {momenta_to_collective(geom, m1, m2).mu_r % n for m1 in box for m2 in box}
    brute = {r - n if 2 * r > n else r for r in residues}
    ks = band_structure(geom, 1).ks
    assert list(ks) == sorted(brute)
    assert len(ks) == count


def test_band_structure_refuses_a_huge_residue_set(monkeypatch):
    """Binary-float inertias 0.7 and 1.3 give ~1.8e16 residues: one typed
    error, before any eigensolve."""
    def no_eigensolve(geom, grid):
        raise AssertionError("eigensolve before the residue bound")

    monkeypatch.setattr(relative, "eigensystem_for", no_eigensolve)
    geom = derive_geometry(GearConfig(2, 2, I1=0.7, I2=1.3, V0=10.0))
    with pytest.raises(UnsupportedInertiaError,
                       match="18014398509481984 Bloch residues"):
        band_structure(geom)


def test_band_structure_respects_requested_count(geom22):
    bs = band_structure(geom22, 5)
    assert bs.num_bands == 5
    assert bs.energies.shape[0] == 5


DEEP_WELLS = [
    (2, 2, None, V0) for V0 in (400.0, 500.0, 1500.0, 3000.0, 1e4)
] + [
    (4, 2, ((0, 0.5), (2, 0.5)), 1e4),
    (2, 2, ((0, 0.5), (1, 0.4), (3, 0.1)), 1e4),
    (4, 2, ((0, 0.5), (1, 0.4), (3, 0.1)), 3000.0),
    (2, 2, ((1, -0.2), (2, 0.5)), 2000.0),
]


@pytest.mark.parametrize("n1,n2,fourier,V0", DEEP_WELLS)
def test_deep_well_ground_state_is_the_k0_state(n1, n2, fourier, V0):
    """In deep wells the k = 0 and k = n/2 ground levels agree to round-off,
    so either may sort first; ground_state takes the k = 0 one, with its
    tail below the bound, and a resonant ell = 4 kick on 2:2 still gives
    r = 1/2."""
    kw = {} if fourier is None else {"potential": PotentialSpec(fourier)}
    geom = derive_geometry(GearConfig(n1, n2, V0=V0, **kw))
    state = ground_state(geom)
    grid = state.grid
    j = np.arange(grid.lo, grid.half_width + 1)
    off_sector = (j * grid.spacing) % geom.bloch_period_u != 0
    assert np.all(state.amplitudes[off_sector] == 0.0)
    es = eigensystem_for(geom, grid)
    i = int(np.flatnonzero(es.labels == 0)[0])
    assert np.array_equal(np.abs(state.amplitudes), np.abs(es.vectors[:, i]))
    assert es.edge_norms[i] ** 2 < relative.TAIL_BOUND
    assert es.energies[i] - es.energies[0] <= \
        relative.GROUND_SECTOR_TOL * np.max(np.abs(es.energies))
    if (n1, n2) == (2, 2):
        r = transmission_ratio(geom, KickProtocol(ell=4, num_kicks=1)).r
        assert r == pytest.approx(0.5, abs=1e-14)


def test_ground_state_in_another_sector_still_raises(monkeypatch):
    """Without the round-off margin, the 2:2 V0 = 400 case, whose k = 2
    level sorts 5.7e-14 below the k = 0 one, is refused as before."""
    monkeypatch.setattr(relative, "GROUND_SECTOR_TOL", 0.0)
    geom = derive_geometry(GearConfig(2, 2, V0=400.0))
    with pytest.raises(ConvergenceFailure, match="ground state found in sector k=2"):
        ground_state(geom)


def _state(geom, A, grid):
    return RotorState(geom, A, grid, np.zeros(grid.size, complex))


def test_momentum_pairs_is_the_exact_map_point_by_point():
    offsets = set()
    for n1 in range(1, 6):
        for n2 in range(1, 6):
            geom = derive_geometry(GearConfig(n1, n2, V0=5.0))
            ground = ground_state(geom)
            for l1, l2 in ((0, 0), (1, 0), (0, 1), (3, -2)):  # kicked mu_c
                kicked = apply_kick(ground, l1, l2)
                mu_c = momenta_to_collective(geom, l1, l2).mu_c
                for J in (0, 1, 32, 97):
                    grid = dataclasses.replace(kicked.grid, half_width=J)
                    half_step = 2 * grid.offset == grid.spacing
                    offsets.add((grid.offset == 0, half_step))
                    m1, m2 = _state(geom, kicked.A, grid).momentum_pairs()
                    exact = [collective_to_momenta(
                                 geom, mu_c, (grid.offset + grid.spacing * j) * grid.unit)
                             for j in range(grid.lo, J + 1)]
                    assert m1.dtype == m2.dtype == np.int64
                    assert m1.tolist() == [a for a, _ in exact]
                    assert m2.tolist() == [b for _, b in exact]
                    if half_step:
                        values = grid.values()
                        assert np.array_equal(values, -values[::-1])
    # centred, half-step and other off-centre windows
    assert offsets == {(True, False), (False, True), (False, False)}


@pytest.mark.parametrize("J", [0, 1, 32])
def test_momentum_pairs_off_lattice_window_raises(geom22, J):
    grid = _centred(geom22, J)
    off = GridSpec(grid.offset + grid.spacing // 2, grid.spacing, J, grid.unit)
    with pytest.raises(NonPhysicalError):
        _state(geom22, 0, off).momentum_pairs()


def test_momentum_pairs_solves_three_points_and_checks_the_last(
        monkeypatch, geom42):
    grid = _centred(geom42, 40)
    calls = []
    exact = model._lattice_momenta

    def b(j):   # mu_r/u at grid index j
        return grid.offset + grid.spacing * j

    def counting(geom, A, b_j):
        calls.append(b_j)
        return exact(geom, A, b_j)

    monkeypatch.setattr(relative, "_lattice_momenta", counting)
    _state(geom42, 0, grid).momentum_pairs()
    assert calls == [b(-40), b(-39), b(40)]

    def wrong_at_the_end(geom, A, b_j):
        m1, m2 = exact(geom, A, b_j)
        return (m1, m2 + 1) if b_j == b(40) else (m1, m2)

    monkeypatch.setattr(relative, "_lattice_momenta", wrong_at_the_end)
    with pytest.raises(InternalInconsistency):
        _state(geom42, 0, grid).momentum_pairs()


@pytest.mark.parametrize("n1, n2, fourier, l1, J, half_step", [
    (2, 2, ((0, 0.5), (1, 0.5)), 0, 20, False),          # odd and even m
    (1, 1, ((0, 0.5), (1, 0.4), (2, 0.1)), 1, 21, True),
    (3, 1, ((0, 0.5), (1, 0.45), (3, 0.05)), 5, 30, True),
    (2, 2, ((0, 0.5), (2, 0.3), (3, 0.2)), 0, 17, False),  # stride 1, o <= 3
    (4, 4, ((0, 0.5), (2, 0.5)), 0, 16, False),          # no p = 1 term
])
def test_parity_resolved_eigensystem_is_exact(n1, n2, fourier, l1, J, half_step):
    """Against a dense solve: same spectrum, eigenpairs and orthonormality,
    and every vector of a sector the reflection maps onto itself is even or
    odd (elsewhere its mirror image lives in another sector)."""
    geom = derive_geometry(GearConfig(n1, n2, V0=12.0,
                                      potential=model.PotentialSpec(fourier)))
    grid = dataclasses.replace(apply_kick(ground_state(geom), l1).grid, half_width=J)
    assert (2 * grid.offset == grid.spacing) == half_step
    values = grid.values()
    assert np.array_equal(values, -values[::-1])
    ham = build_hamiltonian(geom, grid)
    es = eigendecompose(ham)
    H = np.diag(ham.diag)
    for step, strength in ham.couplings:
        H += strength * (np.eye(ham.dim, k=step) + np.eye(ham.dim, k=-step))
    assert es.energies == pytest.approx(np.linalg.eigvalsh(H), abs=1e-11)
    keys = [(e, int(k)) for e, k in zip(es.energies, es.labels)]
    assert keys == sorted(keys)
    assert np.max(np.abs(H @ es.vectors - es.vectors * es.energies)) < 1e-11
    assert np.max(np.abs(es.vectors.T @ es.vectors - np.eye(ham.dim))) < 1e-12
    mirrored = 0
    for i in range(ham.dim):
        v = es.vectors[:, i]
        on = np.flatnonzero(v)
        if on[0] + on[-1] == ham.dim - 1:
            mirrored += 1
            assert min(np.max(np.abs(v[::-1] - v)),
                       np.max(np.abs(v[::-1] + v))) == 0.0
        else:
            assert np.all(v[ham.dim - 1 - on] == 0.0)
    assert mirrored > 0
