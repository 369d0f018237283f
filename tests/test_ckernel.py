"""Building and loading the compiled RK4 kernel (`gearsim._ckernel`).

The kernel is built on first use into the package's `__pycache__/`; where
that fails the classical limit runs the Python loop.  These tests pin that
a compiler on PATH does give a loaded kernel, so a broken build cannot fall
back unseen, and that every failure leaves nothing behind and is tried once.
The kernel's floats are pinned in tests/test_classical.py.
"""

import shutil

import numpy as np
import pytest

from gearsim import _ckernel, classical
from gearsim.model import GearConfig, derive_geometry

needs_cc = pytest.mark.skipif(shutil.which("cc") is None,
                              reason="no C compiler on PATH: the Python loop runs")


def _same_as_the_python_loop(geom, th, l, dt, n_steps, mode, target, direction):
    """Whether the process's `_integrator` and the Python loop `_rk4` return
    the same step index and write the same samples for this run."""
    got, want = np.empty((2, n_steps + 1)), np.empty((2, n_steps + 1))
    fired = classical._integrator(geom)(th, l, dt, n_steps, mode, target, direction, got)
    last = (fired or n_steps) + 1
    return (fired == classical._rk4(geom, th, l, dt, n_steps, mode, target, direction, *want)
            and np.array_equal(got[:, :last], want[:, :last]))


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
    finally:
        _ckernel.library.cache_clear()


def test_a_missing_compiler_leaves_the_python_loop(no_compiler):
    assert _ckernel.library() is None
    # the temporary file the compiler was to write is gone
    assert list(no_compiler.iterdir()) == []
    geom = derive_geometry(GearConfig(2, 2, V0=10.0))
    assert _same_as_the_python_loop(geom, 0.4, -2.0, 1e-3, 50, classical._NONE, 0.0, 0.0)
    assert _same_as_the_python_loop(geom, 0.4, -2.0, 1e-3, 50, classical._CROSSING,
                                    0.35, -1.0)


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
