"""scipy's compiled eigensolvers, root finder and quadrature, without scipy's
packages.

The library calls routines from three compiled scipy modules: LAPACK's
dsbevd (what `scipy.linalg.eig_banded` runs for a full spectrum) and dsyevr
(what `scipy.linalg.eigh` runs, for the raw-lattice oracle's blocks),
Brent's method (`scipy.optimize.brentq`) and QUADPACK's qagse
(`scipy.integrate.quad` on a finite interval).  Importing the public
packages costs most of a short run's start-up, since their `__init__`
modules pull in much else; the compiled modules themselves need only
numpy.  So each is loaded straight from its file in scipy's installation
directory: LAPACK when this module is imported, the other two on the first
call, so that only the classical limit loads them.  On that first call
they import `scipy` itself and `scipy._lib._ccallback` to take Python
callbacks, about 16 ms, against 0.5 s or more for `scipy.optimize`.

The entry points are private, and their signatures can change between
scipy versions: `tests/test_lapack.py` pins each against the
public function it stands in for.  The callers keep the checks the public
wrappers make.
"""

from __future__ import annotations

import importlib.util
import os
import sys
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader

__all__ = ["load_extension", "dsbevd", "dsyevr", "dsyevr_lwork", "dgeev", "brentq",
           "qagse"]


def load_extension(relative: str):
    """The compiled scipy module at `relative` (e.g. "linalg/_flapack"),
    loaded from its file under its own name without importing scipy or any
    of its packages, so a later import of the package reuses it, as this
    reuses one the package has already loaded.  Raises ImportError naming
    the path if there is no such file."""
    fullname = "scipy." + relative.replace("/", ".")
    if fullname in sys.modules:
        return sys.modules[fullname]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None or not scipy.submodule_search_locations:
        raise ImportError("gearsim needs scipy, which is not installed", name="scipy")
    stem = os.path.join(scipy.submodule_search_locations[0], *relative.split("/"))
    for suffix in EXTENSION_SUFFIXES:
        path = stem + suffix
        if os.path.isfile(path):
            loader = ExtensionFileLoader(fullname, path)
            spec = importlib.util.spec_from_file_location(fullname, path, loader=loader)
            module = importlib.util.module_from_spec(spec)
            loader.exec_module(module)
            return module
    raise ImportError(f"no compiled scipy module {stem}{{{','.join(EXTENSION_SUFFIXES)}}}",
                      name=fullname, path=stem)


_flapack = load_extension("linalg/_flapack")
# dsbevd(ab, compute_v, lower, overwrite_ab) -> (w, v, info)
dsbevd = _flapack.dsbevd
# dsyevr(a, compute_v, lower, lwork, liwork) -> (w, v, m, isuppz, info);
# dsyevr_lwork(n, lower) -> (lwork, liwork, info)
dsyevr, dsyevr_lwork = _flapack.dsyevr, _flapack.dsyevr_lwork
# dgeev(a, compute_vl, compute_vr, lwork, overwrite_a) -> (wr, wi, vl, vr, info)
dgeev = _flapack.dgeev


def brentq(f, a: float, b: float, xtol: float, rtol: float, maxiter: int):
    """Root of f in [a, b]: scipy.optimize.brentq's compiled solver, without
    its NaN guard, loaded on first use."""
    return load_extension("optimize/_zeros")._brentq(
        f, a, b, xtol, rtol, maxiter, (), False, True)


def qagse(f, a: float, b: float, epsabs: float, epsrel: float, limit: int):
    """(integral, error estimate, QUADPACK ier) of f over [a, b]: what
    scipy.integrate.quad runs on a finite interval, loaded on first use."""
    return load_extension("integrate/_quadpack")._qagse(
        f, a, b, (), 0, epsabs, epsrel, limit)
