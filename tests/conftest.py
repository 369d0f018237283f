import pytest

from gearsim import _ckernel
from gearsim.model import GearConfig, derive_geometry


@pytest.fixture(scope="session")
def cfg22():
    return GearConfig(2, 2, V0=10.0)


@pytest.fixture(scope="session")
def cfg42():
    return GearConfig(4, 2, V0=10.0)


@pytest.fixture(scope="session")
def geom22(cfg22):
    return derive_geometry(cfg22)


@pytest.fixture(scope="session")
def geom42(cfg42):
    return derive_geometry(cfg42)


@pytest.fixture
def no_compiler(monkeypatch, tmp_path):
    """The classical limit as it runs where no C compiler is found: PATH
    holds only an empty directory and the kernel builds into a fresh one,
    so `_ckernel.rk4` tries a build, fails and leaves the Python loop.
    Yields the build directory."""
    build = tmp_path / "build"
    empty = tmp_path / "empty"
    empty.mkdir()
    monkeypatch.setenv("PATH", str(empty))
    monkeypatch.setattr(_ckernel, "_BUILD_DIR", str(build))
    _ckernel.rk4.cache_clear()
    yield build
    _ckernel.rk4.cache_clear()
