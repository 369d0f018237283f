"""The integer lattice against the rational bookkeeping it stands for.

Grids, kicks, Bloch labels and the momentum map run on Python ints in units
of the geometry's mu_r_unit.  Here each of them, times its unit, is compared
with the same quantity computed in `Fraction` straight from the config, and
every float the pipeline reads off the lattice is compared bit for bit with
the one the rational values give.
"""

from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gearsim import model, relative
from gearsim.dynamics import apply_kick
from gearsim.model import GearConfig, collective_to_momenta, derive_geometry
from gearsim.relative import ground_state

INERTIAS = (1.0, 0.5, 2.0, 0.7, 1.3)


def rational_collective(cfg):
    """(m1, m2) -> exact (mu_c, mu_r), from the config alone."""
    n1, n2 = cfg.n1, cfg.n2
    I1, I2 = Fraction(cfg.I1), Fraction(cfg.I2)
    n, denom = n1 + n2, n1 * n1 * I2 + n2 * n2 * I1

    def collective(m1, m2):
        return ((I1 + I2) / 2 * n / denom * (n2 * m1 + n1 * m2),
                Fraction(n) / denom * (n1 * I2 * m1 - n2 * I1 * m2))

    return collective


def centred_residue(x, step):
    """x mod step, reduced into (-step/2, step/2], in exact rationals."""
    r = x % step
    return r - step if 2 * r > step else r


def check_labels(geom, grid, offset, spacing):
    """Every eigenstate's Bloch label, times the unit, is the rational
    residue of the grid points it lives on; states sort exactly by
    (energy, label)."""
    es = relative.eigensystem_for(geom, grid)
    first = np.argmax(es.vectors != 0.0, axis=0)   # a point of each state
    for i, row in enumerate(first.tolist()):
        k = centred_residue(offset + spacing * (row + grid.lo), geom.n)
        assert int(es.labels[i]) * geom.mu_r_unit == k
        assert np.all(es.vectors[:, i][(np.arange(grid.size) - row) % geom.g != 0] == 0.0)
    keys = [(e, int(k)) for e, k in zip(es.energies.tolist(), es.labels)]
    assert keys == sorted(keys)
    return es


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(n1=st.integers(1, 6), n2=st.integers(1, 6), I1=st.sampled_from(INERTIAS),
       I2=st.sampled_from(INERTIAS),
       kicks=st.lists(st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
                      min_size=1, max_size=3))
@example(n1=2, n2=3, I1=0.7, I2=1.3, kicks=[(0, 5), (1, -2)])
@example(n1=1, n2=1, I1=1.0, I2=1.0, kicks=[(1, 0)])   # a half-step window
def test_integer_lattice_is_the_rational_one(n1, n2, I1, I2, kicks):
    cfg = GearConfig(n1, n2, I1=I1, I2=I2, V0=6.0)
    geom = derive_geometry(cfg)
    u, collective = geom.mu_r_unit, rational_collective(cfg)
    spacing = Fraction(geom.n, geom.g)
    state = ground_state(geom)
    mu_c, offset = Fraction(0), Fraction(0)
    for l1, l2 in kicks:
        dA, db = model._lattice_point(geom, l1, l2)
        dmu_c, dmu_r = collective(l1, l2)
        assert (geom._mu_c_factor * dA, db * u) == (dmu_c, dmu_r)
        state = apply_kick(state, l1, l2)
        mu_c += dmu_c
        offset = centred_residue(offset + dmu_r, spacing)
        grid = state.grid
        assert (grid.offset * u, grid.spacing * u, grid.unit) == (offset, spacing, u)
        assert geom._mu_c_factor * state.A == mu_c
    assert model._exact_float(state.A, geom._mu_c_factor) == float(mu_c)

    # the momentum map, at every grid point, both ways
    values = [offset + spacing * j for j in range(grid.lo, grid.half_width + 1)]
    m1, m2 = state.momentum_pairs()
    pairs = list(zip(m1.tolist(), m2.tolist()))
    assert pairs == [collective_to_momenta(geom, mu_c, v) for v in values]
    assert [collective(a, b) for a, b in pairs] == [(mu_c, v) for v in values]

    # floats: the grid as float(offset) + float(spacing) * j
    j = np.arange(grid.lo, grid.half_width + 1, dtype=float)
    assert np.array_equal(grid.values(), float(offset) + float(spacing) * j)
    es = check_labels(geom, grid, offset, spacing)
    assert [float(int(k) * u) for k in es.labels] == [
        float(centred_residue(values[row], geom.n))
        for row in np.argmax(es.vectors != 0.0, axis=0).tolist()]


def test_labels_past_int64_stay_exact():
    """I1 = 1e-5 puts the Bloch period past 2^64, so labels are Python
    ints, and still the rational residues."""
    geom = derive_geometry(GearConfig(2, 3, I1=1e-5, I2=1.0, V0=5.0))
    assert geom.bloch_period_u > 2**64
    state = apply_kick(ground_state(geom), 0, 3)
    offset = state.grid.offset * geom.mu_r_unit
    es = check_labels(geom, state.grid, offset, Fraction(geom.n, geom.g))
    assert es.labels.dtype == object
    assert relative.eigensystem_for(geom, ground_state(geom).grid).labels[0] == 0
