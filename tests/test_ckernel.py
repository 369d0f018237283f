"""Building and loading the compiled kernels (`gearsim._ckernel`).

The kernels are built on first use into the package's `__pycache__/`; where
that fails the classical limit runs the Python loop and the propagation
numpy's np.exp.  These tests pin that a compiler on PATH does give a loaded
library, so a broken build cannot fall back unseen, that a build leaves only
its own library, and that every failure leaves nothing behind and is tried
once.  The kernels' floats are pinned in
tests/test_classical.py (RK4) and tests/test_dynamics.py (phases).
"""

import pathlib
import shutil

import numpy as np
import pytest

from gearsim import _ckernel, classical, dynamics
from gearsim.model import GearConfig, derive_geometry

needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler on PATH: the Python loop runs")


def _same_as_the_python_loop(geom, th, l, dt, n_steps, mode, target, direction):
    """Whether the process's `_integrator` and the Python loop `_rk4` return
    the same step index and write the same samples for this run."""
    got, want = np.empty((2, n_steps + 1)), np.empty((2, n_steps + 1))
    fired = classical._integrator(geom, got)(th, l, dt, n_steps, mode, target, direction)
    last = (fired or n_steps) + 1
    return (fired == classical._rk4(geom, th, l, dt, n_steps, mode, target, direction, *want)
            and np.array_equal(got[:, :last], want[:, :last]))


def _same_phases_as_numpy():
    """Whether the process's phase matrix is numpy's, bit for bit."""
    times, energies = np.linspace(0.0, 50.0, 101), np.linspace(-40.0, 60.0, 37)
    want = np.exp(np.outer(times, -1j * energies))
    return np.array_equal(dynamics._phases(times, energies).view(np.int64),
                          want.view(np.int64))


@needs_cc
def test_kernel_loads_where_a_compiler_is_on_path():
    assert _ckernel.library() is not None


@needs_cc
def test_a_fresh_build_leaves_one_library_and_the_same_floats(monkeypatch, tmp_path):
    monkeypatch.setattr(_ckernel, "_BUILD_DIR", str(tmp_path / "build"))
    _ckernel.library.cache_clear()
    try:
        assert _ckernel.library() is not None
        built = [p.name for p in (tmp_path / "build").iterdir()]
        assert len(built) == 1 and built[0].startswith("_rk4-") and built[0].endswith(".so")
        geom = derive_geometry(GearConfig(2, 2, V0=10.0))
        assert _same_as_the_python_loop(geom, 0.4, -2.0, 1e-3, 500, classical._NONE, 0.0, 0.0)
        assert _same_as_the_python_loop(geom, 0.4, -2.0, 1e-3, 5000, classical._TURNING,
                                        0.0, 0.0)
        assert _same_phases_as_numpy()
    finally:
        _ckernel.library.cache_clear()


@needs_cc
def test_a_build_removes_the_libraries_of_older_sources(monkeypatch, tmp_path):
    build = tmp_path / "build"
    build.mkdir()
    (build / "_rk4-00000000.so").write_bytes(b"built from an older _rk4.c")
    monkeypatch.setattr(_ckernel, "_BUILD_DIR", str(build))
    _ckernel.library.cache_clear()
    try:
        lib = _ckernel.library()
    finally:
        _ckernel.library.cache_clear()
    assert lib is not None
    built = [p.name for p in build.iterdir()]
    assert built == [pathlib.Path(lib._name).name] and built != ["_rk4-00000000.so"]


def test_a_missing_compiler_leaves_the_python_loop(no_compiler):
    assert _ckernel.library() is None
    # the temporary file the compiler was to write is gone
    assert list(no_compiler.iterdir()) == []
    geom = derive_geometry(GearConfig(2, 2, V0=10.0))
    assert _same_as_the_python_loop(geom, 0.4, -2.0, 1e-3, 50, classical._NONE, 0.0, 0.0)
    assert _same_as_the_python_loop(geom, 0.4, -2.0, 1e-3, 50, classical._CROSSING,
                                    0.35, -1.0)
    assert _same_phases_as_numpy()


def test_a_failed_build_is_tried_once_per_process(no_compiler, monkeypatch):
    builds = []
    build = _ckernel._build

    def counted(path):
        builds.append(path)
        return build(path)

    monkeypatch.setattr(_ckernel, "_build", counted)
    assert _ckernel.library() is None and _ckernel.library() is None
    assert len(builds) == 1


def test_an_unwritable_build_directory_leaves_the_python_loop(monkeypatch, tmp_path):
    # a path under a regular file cannot be made a directory, whoever runs this
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setattr(_ckernel, "_BUILD_DIR", str(blocker / "build"))
    _ckernel.library.cache_clear()
    try:
        assert _ckernel.library() is None
    finally:
        _ckernel.library.cache_clear()
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
