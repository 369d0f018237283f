"""The compiled scipy entry points `gearsim._lapack` loads, pinned against the
public scipy functions they stand in for.

`dsbevd`, `dsyevr`, `dgeev`, `_brentq` and `_qagse` are private to scipy and called
positionally or with the keywords the public wrappers use; their signatures
can change between scipy versions.  These
tests are where such a change shows: each compares the library's call with
the public function on random inputs, bit for bit, and checks that every
guard of the public wrapper survives as a typed error.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import quad
from scipy.optimize import brentq

from gearsim import _lapack, classical, oracle, relative
from gearsim.errors import ConvergenceFailure
from gearsim.model import PotentialSpec


def test_entry_points_are_the_functions_scipy_itself_calls():
    from scipy.integrate import _quadpack
    from scipy.optimize import _zeros
    band = np.ones((2, 3))
    assert _lapack.dsbevd is scipy.linalg.get_lapack_funcs(("sbevd",), (band,))[0]
    assert (_lapack.dsyevr, _lapack.dsyevr_lwork) == tuple(
        scipy.linalg.get_lapack_funcs(("syevr", "syevr_lwork"), (band,)))
    assert _lapack.dgeev is scipy.linalg.get_lapack_funcs(("geev",), (band,))[0]
    assert _lapack.load_extension("optimize/_zeros") is _zeros
    assert _lapack.load_extension("integrate/_quadpack") is _quadpack


def test_missing_extension_is_an_import_error_naming_the_path():
    with pytest.raises(ImportError, match=r"linalg.+_no_such_module\{"):
        _lapack.load_extension("linalg/_no_such_module")


def test_dsbevd_equals_eig_banded_bit_for_bit():
    rng = np.random.default_rng(21)
    for _ in range(300):
        m = int(rng.integers(2, 401))
        bw = int(rng.integers(1, 4))
        band = rng.standard_normal((bw + 1, m))
        band[:bw] *= rng.uniform(0.01, 3.0)
        band[bw] *= rng.uniform(0.1, 100.0)
        w, v = relative._eig(band)
        want_w, want_v = scipy.linalg.eig_banded(band, lower=False)
        assert np.array_equal(w, want_w) and np.array_equal(v, want_v)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_band_is_a_convergence_failure(bad):
    band = np.ones((2, 5))
    band[1, 2] = bad
    with pytest.raises(ConvergenceFailure, match="non-finite"):
        relative._eig(band)


def test_dsbevd_info_is_checked(monkeypatch):
    def failing(band, **kwargs):
        return np.zeros(band.shape[1]), np.eye(band.shape[1]), 3

    monkeypatch.setattr(relative, "dsbevd", failing)
    with pytest.raises(ConvergenceFailure, match="info=3"):
        relative._eig(np.ones((2, 4)))


def test_dsyevr_equals_eigh_bit_for_bit():
    """The oracle's block solver against scipy.linalg.eigh on random
    symmetric matrices, some with the lattice blocks' banded sparsity."""
    rng = np.random.default_rng(22)
    for n in range(1, 201):
        a = rng.standard_normal((n, n))
        if n % 2:
            a = np.triu(np.tril(a, 3), -3)
        a = a + a.T + np.diag(rng.uniform(0.0, 100.0, n))
        w, v = oracle._eigh(a)
        want_w, want_v = scipy.linalg.eigh(a)
        assert np.array_equal(w, want_w) and np.array_equal(v, want_v), n


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_block_is_a_convergence_failure(bad):
    a = np.eye(4)
    a[1, 2] = a[2, 1] = bad
    with pytest.raises(ConvergenceFailure, match="non-finite"):
        oracle._eigh(a)


def test_dsyevr_info_is_checked(monkeypatch):
    def failing(a, **kwargs):
        n = a.shape[0]
        return np.zeros(n), np.eye(n), n, np.zeros(2 * n, dtype=np.int32), 5

    monkeypatch.setattr(oracle, "dsyevr", failing)
    with pytest.raises(ConvergenceFailure, match="info=5"):
        oracle._eigh(np.eye(3))


def test_dgeev_equals_numpy_eigvals_bit_for_bit():
    """`PotentialSpec.min_value`'s eigensolver against np.linalg.eigvals,
    which runs dgeev from numpy's own LAPACK, on random dense matrices and on
    colleague matrices like the ones `min_value` builds.  The match is
    exact, real and imaginary parts alike, in the same order."""
    rng = np.random.default_rng(23)
    for _ in range(1000):
        n = int(rng.integers(1, 33))
        if rng.random() < 0.5:
            a = rng.standard_normal((n, n))
        else:
            a = (np.eye(n, k=1) + np.eye(n, k=-1)) / 2.0
            a[-1:] -= rng.standard_normal(n)
        wr, wi, _, _, info = _lapack.dgeev(a, compute_vl=0, compute_vr=0)
        want = np.linalg.eigvals(a)
        assert info == 0
        assert np.array_equal(wr, want.real) and np.array_equal(wi, want.imag), n


def test_dgeev_info_is_checked(monkeypatch):
    def failing(a, **kwargs):
        n = a.shape[0]
        return np.zeros(n), np.zeros(n), np.zeros((1, n)), np.zeros((1, n)), 2

    monkeypatch.setattr(_lapack, "dgeev", failing)
    with pytest.raises(ConvergenceFailure, match="info=2"):
        PotentialSpec(((0, 0.4), (1, 0.3), (2, 0.2), (3, 0.1))).min_value()


def test_root_equals_brentq_bit_for_bit():
    """Random Hermite cubics, bracketed as the event searches bracket them."""
    rng = np.random.default_rng(2100)
    for _ in range(2000):
        h = float(10.0 ** rng.uniform(-4, 0))
        y0, y1 = -abs(rng.standard_normal()), abs(rng.standard_normal())
        if rng.random() < 0.5:
            y0, y1 = -y0, -y1
        f = classical._hermite(y0, float(rng.standard_normal()),
                               y1, float(rng.standard_normal()), h)
        assert classical._root(f, h) == brentq(f, 0.0, h, xtol=1e-15)


def test_nan_root_function_is_a_convergence_failure():
    with pytest.raises(ConvergenceFailure, match="NaN"):
        classical._root(lambda x: math.nan if x > 0.5 else x - 0.7, 1.0)


def test_root_without_a_sign_change_is_a_convergence_failure():
    with pytest.raises(ConvergenceFailure, match="different signs"):
        classical._root(lambda x: x + 1.0, 1.0)


def test_root_non_convergence_is_a_convergence_failure(monkeypatch):
    monkeypatch.setattr(classical, "_BRENT_MAXITER", 1)
    with pytest.raises(ConvergenceFailure, match="converge"):
        classical._root(lambda x: x * x * x - 0.3, 1.0)


def test_qagse_equals_quad_bit_for_bit():
    """Random smooth, positive periodic integrands over one period, like the
    drift-period integrand."""
    rng = np.random.default_rng(2101)
    for _ in range(300):
        coeffs = rng.uniform(-1.0, 1.0, size=int(rng.integers(1, 5)))
        lift = float(np.sum(np.abs(coeffs))) + float(10.0 ** rng.uniform(-2, 1))

        def f(x, coeffs=coeffs, lift=lift):
            u = lift
            for p, a in enumerate(coeffs, start=1):
                u += a * math.cos(p * x)
            return 1.0 / math.sqrt(u)

        value, abserr, ier = _lapack.qagse(f, 0.0, 2.0 * math.pi,
                                           classical._QUAD_TOL, classical._QUAD_TOL, 200)
        assert ier == 0
        assert (value, abserr) == quad(f, 0.0, 2.0 * math.pi, limit=200)


def test_qagse_error_flag_is_a_convergence_failure(monkeypatch, geom22):
    monkeypatch.setattr(_lapack, "qagse", lambda *args: (1.0, 0.5, 2))
    with pytest.raises(ConvergenceFailure, match="ier=2"):
        classical._drift_average_quadrature(geom22, 100.0, 1.0)


@pytest.mark.parametrize("E", [1e-3, 0.7, 25.0, 4e3])
def test_drift_average_equals_the_public_quad_formula(geom22, E):
    cfg, I_r = geom22.config, geom22.I_r

    def integrand(x):
        return 1.0 / math.sqrt(2.0 * I_r * (E + cfg.V0 * cfg.potential.value(x)))

    T = quad(integrand, 0.0, 2.0 * math.pi, limit=200)[0] * I_r / geom22.n
    want = -I_r * (2.0 * math.pi / geom22.n) / T
    assert classical._drift_average_quadrature(geom22, E, -1.0) == want
