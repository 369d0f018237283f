"""Exact lattice arithmetic: collective coordinates, grids, derived constants.

The windows checked here are the ones the pipeline builds: the ground
state's, and the ones `apply_kick` refits after a kick.
"""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gearsim.dynamics import apply_kick, revival_phase_defect
from gearsim.errors import NonPhysicalError
from gearsim.model import (
    GearConfig,
    GridSpec,
    PotentialSpec,
    _centred_divmod,
    angular_momentum_split,
    collective_to_momenta,
    derive_geometry,
    momenta_to_collective,
)
from gearsim.relative import eigensystem_for, ground_state


# ------------------------------------------------------------- potential ---

def test_default_potential_shape():
    u = PotentialSpec()
    assert u.a0 == 0.5
    assert u.value(0.0) == pytest.approx(1.0, abs=1e-15)
    assert u.value(math.pi) == pytest.approx(0.0, abs=1e-15)
    assert u.min_value() == pytest.approx(0.0, abs=1e-12)
    # derivative consistent with a central difference
    h = 1e-6
    for x in (0.3, 1.7, -2.2):
        fd = (u.value(x + h) - u.value(x - h)) / (2 * h)
        assert u.derivative(x) == pytest.approx(fd, abs=1e-8)
    # curvature at the origin of -u is what the harmonic estimate uses
    fd2 = (u.value(h) - 2 * u.value(0.0) + u.value(-h)) / h**2
    assert u.curvature_at_origin() == pytest.approx(abs(fd2), rel=1e-3)


def test_potential_validation():
    with pytest.raises(ValueError):
        PotentialSpec(((1, 0.5), (1, 0.25)))  # duplicate harmonic
    with pytest.raises(ValueError):
        PotentialSpec(((-1, 0.5),))
    # an index int() would change is refused, never truncated
    for p in (1.5, True, np.True_, "1", math.inf, math.nan):
        with pytest.raises(ValueError):
            PotentialSpec(((0, 0.5), (p, 0.5)))
    # whole floats and numpy integers are whole numbers
    u = PotentialSpec(((0, 0.5), (1.0, 0.25), (np.int64(2), 0.25)))
    assert u.fourier == ((0, 0.5), (1, 0.25), (2, 0.25))
    assert all(type(p) is int for p, _ in u.fourier)


def test_two_harmonic_potential():
    u = PotentialSpec(((0, 0.5), (1, 0.375), (2, 0.125)))
    assert sorted(p for p, _ in u.harmonics()) == [1, 2]
    x = 0.9
    expected = 0.5 + 0.375 * math.cos(x) + 0.125 * math.cos(2 * x)
    assert u.value(x) == pytest.approx(expected, rel=1e-15)


def test_potential_minimum_between_samples_is_exact():
    # u = .4 cos x + .3 cos 2x is least, -11/30, at cos x = -1/3
    u = PotentialSpec(((1, 0.4), (2, 0.3)))
    assert abs(u.min_value() + 11 / 30) <= 4 * math.ulp(11 / 30)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(st.dictionaries(st.integers(1, 60), st.floats(-1.0, 1.0), min_size=1, max_size=4))
@example({2: 0.3, 3: 0.2})
@example({1: 0.4, 2: 0.1})
# a top harmonic below round-off, which must not swamp the root search
@example({4: 1.0, 5: 4.643511129697013e-227})
# high harmonics, whose power-basis coefficients grow as 2^p
@example({60: 0.7, 41: -0.3, 7: 0.2})
def test_potential_minimum_is_at_or_below_a_fine_sample(harmonics):
    """The minimum is attained (it is u somewhere) and lies at or below u at
    every point of a 20,001-point sample, up to round-off."""
    u = PotentialSpec(((0, 0.5), *harmonics.items()))
    xs = np.linspace(0.0, 2.0 * math.pi, 20001)
    sampled = float(np.min(0.5 + sum(a * np.cos(p * xs) for p, a in harmonics.items())))
    assert u.min_value() <= sampled + 1e-12
    # a sample point within pi/20000 of the minimiser is above it by at
    # most half the largest |u''| times that distance squared
    curvature = sum(p * p * abs(a) for p, a in harmonics.items())
    assert u.min_value() >= sampled - 0.5 * curvature * (math.pi / 20000) ** 2 - 1e-12


def test_config_validation():
    with pytest.raises(ValueError):
        GearConfig(0, 2)
    with pytest.raises(ValueError):
        GearConfig(2, -1)
    with pytest.raises(ValueError):
        GearConfig(2, 2, V0=-1.0)
    with pytest.raises(ValueError):
        GearConfig(2, 2, I1=0.0)
    with pytest.raises(ValueError):
        GearConfig(2, 2, I2=math.inf)


# ------------------------------------------------------ derived constants ---

@pytest.mark.parametrize("n1,n2,expect", [
    (2, 2, dict(n=4, g=2, M1=1, M2=1, I_c=2.0, I_r=2.0, nu=Fraction(1),
                grid_spacing=2, r_cl=Fraction(1, 2), tau_c=8 * math.pi,
                omega0=math.sqrt(80.0), omega0_harmonic=math.sqrt(40.0),
                L_r_threshold=math.sqrt(40.0), ell_threshold=math.sqrt(40.0))),
    (4, 2, dict(n=6, g=2, M1=1, M2=2, I_c=1.8, I_r=1.8, nu=Fraction(5, 3),
                grid_spacing=3, r_cl=Fraction(2, 5), tau_c=20 * math.pi,
                omega0=math.sqrt(200.0), omega0_harmonic=10.0,
                L_r_threshold=6.0, ell_threshold=5.0)),
])
def test_derived_geometry_frozen(n1, n2, expect):
    geom = derive_geometry(GearConfig(n1, n2, V0=10.0))
    for key, want in expect.items():
        got = getattr(geom, key)
        if isinstance(want, (int, Fraction)) and not isinstance(want, bool):
            assert got == want, key
        else:
            assert got == pytest.approx(want, rel=1e-12), key


def test_transmission_ratio_is_exact_rational():
    r = derive_geometry(GearConfig(4, 2)).r_cl
    assert isinstance(r, Fraction) and r == Fraction(2, 5)
    # r_cl only depends on the tooth counts, not on inertia or depth
    assert derive_geometry(GearConfig(4, 2, I1=3.0, I2=7.0, V0=2.0)).r_cl == r


def test_zero_depth_has_no_interlock():
    geom = derive_geometry(GearConfig(2, 2, V0=0.0))
    assert geom.L_r_threshold == 0.0
    assert geom.ell_threshold == 0.0


def test_profile_without_a_well_at_the_origin_is_non_physical():
    dip = PotentialSpec(((0, 0.5), (1, -0.5)))  # x = 0 is a maximum of -u
    with pytest.raises(NonPhysicalError, match=r"\(1, -0\.5\).*curvature -0\.5"):
        derive_geometry(GearConfig(2, 2, V0=10.0, potential=dip))
    # zero curvature is still a geometry: no coupling, or a flat profile
    assert derive_geometry(GearConfig(2, 2, V0=0.0, potential=dip)).omega0_harmonic == 0.0
    flat = PotentialSpec(((0, 1.0),))
    assert derive_geometry(GearConfig(2, 2, V0=10.0, potential=flat)).omega0_harmonic == 0.0


# ------------------------------------------------------------- transforms ---

@pytest.mark.parametrize("n1,n2,I1,I2,box", [
    (2, 2, 1, 1, 100),
    (4, 2, 1, 1, 100),
    (3, 3, 1, 1, 40),
    (3, 2, 2, 3, 40),  # unequal inertia: transforms stay exact
])
def test_momentum_round_trip_exact(n1, n2, I1, I2, box):
    geom = derive_geometry(GearConfig(n1, n2, I1=I1, I2=I2, V0=1.0))
    for m1 in range(-box, box + 1):
        for m2 in range(-box, box + 1):
            cm = momenta_to_collective(geom, m1, m2)
            assert collective_to_momenta(geom, cm.mu_c, cm.mu_r) == (m1, m2)


def test_collective_transform_worked_example(geom22):
    cm = momenta_to_collective(geom22, 3, -2)
    assert cm.mu_c == Fraction(1)
    assert cm.mu_r == Fraction(5)
    assert cm.mu_r % geom22.n == 1   # its Bloch residue


def test_bloch_label_window(geom42):
    """Every eigenstate's label k is the residue, reduced into (-n/2, n/2],
    of each mu_r it lives on, on the ground window and after kicks."""
    P = geom42.bloch_period_u   # n in units of mu_r_unit
    ground = ground_state(geom42)
    for l1 in range(-4, 5):
        grid = apply_kick(ground, l1).grid
        es = eigensystem_for(geom42, grid)
        b = grid.offset + grid.spacing * np.arange(grid.lo, grid.half_width + 1)
        for k, v in zip(es.labels.tolist(), es.vectors.T):
            assert -P < 2 * k <= P
            assert np.all((b[v != 0.0] - k) % P == 0)


def test_angular_momentum_split_inverts_transform(geom22, geom42):
    for geom in (geom22, geom42):
        for m1, m2 in ((0, 0), (5, -3), (-7, 11), (1, 0)):
            cm = momenta_to_collective(geom, m1, m2)
            L1, L2 = angular_momentum_split(geom, float(cm.mu_c), float(cm.mu_r))
            assert L1 == pytest.approx(m1, abs=1e-12)
            assert L2 == pytest.approx(m2, abs=1e-12)


def test_unphysical_mu_c_rejected(geom22):
    with pytest.raises(NonPhysicalError):
        revival_phase_defect(geom22, Fraction(1, 3))
    with pytest.raises(NonPhysicalError):
        collective_to_momenta(geom22, Fraction(1, 3), Fraction(0))
    # A = 3, mu_r = 1/2: m1 = (n1 mu_r + A)/4 = 1 is whole, m2 = 1/2 is not
    with pytest.raises(NonPhysicalError):
        collective_to_momenta(geom22, Fraction(3, 2), Fraction(1, 2))


# ------------------------------------------------------------------ grids ---

BOX = 50


@pytest.mark.parametrize("n1,n2,I1,I2,half_step", [
    pytest.param(2, 2, 1.0, 1.0, True, id="2-2"),
    pytest.param(4, 2, 1.0, 1.0, False, id="4-2"),
    pytest.param(3, 3, 1.0, 1.0, True, id="3-3"),
    pytest.param(2, 3, 0.7, 1.3, False, id="2-3-unequal-inertias"),
    pytest.param(1, 1, 1.0, 1.0, True, id="1-1-odd-kicks"),
])
def test_relative_grid_matches_brute_force(n1, n2, I1, I2, half_step):
    """The windows of the ground state and of kicked states hold exactly the
    mu_r values that integer momentum pairs realize at the state's mu_c, on
    a large lattice patch: n/g apart, on the centred offset.  `half_step`
    says whether some kick lands on the lattice half a step off mu_r = 0."""
    geom = derive_geometry(GearConfig(n1, n2, I1=I1, I2=I2, V0=10.0))
    buckets: dict = {}
    for m1 in range(-BOX, BOX + 1):
        for m2 in range(-BOX, BOX + 1):
            cm = momenta_to_collective(geom, m1, m2)
            buckets.setdefault(cm.mu_c, set()).add(cm.mu_r)

    s = Fraction(geom.n, geom.g)
    ground = ground_state(geom)
    half_steps = set()
    for l1, l2 in ((0, 0), (1, 0), (0, 1), (3, -2), (7, 0)):
        state = apply_kick(ground, l1, l2) if (l1, l2) != (0, 0) else ground
        grid, mu_c = state.grid, momenta_to_collective(geom, l1, l2).mu_c
        assert geom._mu_c_factor * state.A == mu_c
        brute = buckets[mu_c]
        values = [(grid.offset + grid.spacing * j) * grid.unit
                  for j in range(grid.lo, grid.half_width + 1)]
        assert all(b - a == s for a, b in zip(values, values[1:]))
        off = grid.offset * grid.unit
        assert -s / 2 < off <= s / 2
        assert all((mu_r - off) % s == 0 for mu_r in brute)
        half_steps.add(2 * off == s)
        # each value is realized at this mu_c, and found in the patch exactly
        # when its integer preimage lies inside it, which holds for a third
        # of the window at least; the patch has no value the window skips
        inside = 0
        for mu_r in values:
            m1, m2 = collective_to_momenta(geom, mu_c, mu_r)
            assert n2 * m1 + n1 * m2 == state.A
            assert (mu_r in brute) == (abs(m1) <= BOX and abs(m2) <= BOX)
            inside += mu_r in brute
        assert inside > grid.size // 3
        assert {mu_r for mu_r in brute if values[0] <= mu_r <= values[-1]} <= set(values)
    assert (True in half_steps) == half_step


def test_grid_spec_indexing(geom22):
    half_steps = set()
    for l1 in (0, 1):   # mu_c = 0 and 1
        grid = apply_kick(ground_state(geom22), l1).grid
        J = grid.half_width
        values = grid.values()
        half_step = 2 * grid.offset == grid.spacing
        half_steps.add(half_step)
        assert grid.lo == (-J - 1 if half_step else -J)
        assert len(values) == grid.size == J - grid.lo + 1
        exact = [(grid.offset + grid.spacing * j) * grid.unit for j in range(grid.lo, J + 1)]
        assert values.tolist() == [float(v) for v in exact]
        assert np.all(np.diff(values) == pytest.approx(float(grid.spacing * grid.unit)))
        # both windows on this mirror-symmetric lattice are mirror-symmetric
        assert np.array_equal(values, -values[::-1])
    assert half_steps == {False, True}


@settings(max_examples=300, derandomize=True, database=None, deadline=None)
@given(x=st.integers(-2**80, 2**80), step=st.integers(1, 2**70))
@example(x=7, step=2)
@example(x=-1, step=2)
def test_centred_divmod(x, step):
    q, r = _centred_divmod(x, step)
    assert type(q) is int and type(r) is int
    assert x == q * step + r
    assert -step < 2 * r <= step


def test_mirrored_is_the_reflection_rule(geom22, geom42):
    """grid.mirrored, fixed when the window is built, says exactly whether
    the window's lowest point is minus its highest."""
    grids = [dataclasses.replace(apply_kick(ground_state(geom), m1).grid, half_width=J)
             for geom in (geom22, geom42) for m1 in range(4) for J in (0, 5)]
    # hand-built: band_structure's GridSpec(k, n, J), and the same offsets
    # moved by half a step; in units of 1/3, k = -1, 0, 1/3, 2, -2 and n = 4
    for k in (-3, 0, 1, 6, -6):
        grids += [GridSpec(off, 12, J, Fraction(1, 3)) for off in (k, k + 6)
                  for J in (0, 7)]
    kinds = set()
    for grid in grids:
        low, high = (grid.offset + grid.spacing * j for j in (grid.lo, grid.half_width))
        rule = low == -high
        assert grid.mirrored == rule, grid
        kinds.add((grid.mirrored, grid.lo == -grid.half_width))
    # centred, half-step, and off-centre windows all occur
    assert kinds == {(True, True), (True, False), (False, True)}
