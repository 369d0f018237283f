"""Every failure is a typed GearsError, and every invalid input a ConfigError.

The source guard walks `src/gearsim/*.py` with `ast` and resolves the class
of each `raise` in the module that raises it.  Only `_lapack`'s ImportError,
raised when scipy's compiled modules are missing, is not a GearsError.
"""

import ast
import builtins
import importlib
import math
import pathlib
import types

import numpy as np
import pytest

from gearsim.classical import ClassicalState, _step_grid, simulate_relative
from gearsim.dynamics import KickProtocol, apply_kick, evolve, time_series
from gearsim.errors import ConfigError, GearsError
from gearsim.ergotropy import MomentumDistribution
from gearsim.model import GearConfig, GridSpec, PotentialSpec, _as_fraction
from gearsim.oracle import build_full_hamiltonian, oracle_run
from gearsim.relative import band_structure, ground_state

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "gearsim"
ALLOWED = {("_lapack", "ImportError")}


def untyped_raises(path: pathlib.Path, module) -> list[str]:
    """`file:line Class` of each raise in `path` whose class, looked up in
    `module` and then in builtins, is not a GearsError subclass; a class
    that cannot be resolved counts too."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue  # a bare `raise` re-raises what was caught
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        name = exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)
        cls = getattr(module, name, getattr(builtins, name, None))
        typed = isinstance(cls, type) and issubclass(cls, GearsError)
        if not typed and (path.stem, name) not in ALLOWED:
            found.append(f"{path.name}:{node.lineno} {name}")
    return found


def test_every_raise_in_the_library_is_a_gears_error():
    found = []
    for path in sorted(SRC.glob("*.py")):
        found += untyped_raises(path, importlib.import_module(f"gearsim.{path.stem}"))
    assert found == []


def test_the_guard_reports_an_untyped_raise(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("raise ConfigError('x')\nraise ValueError('y')\n"
                     "raise errors.Unknown\n", encoding="utf-8")
    module = types.SimpleNamespace(ConfigError=ConfigError)
    assert untyped_raises(probe, module) == ["probe.py:2 ValueError",
                                             "probe.py:3 errors.Unknown"]


def kicked(geom):
    return apply_kick(ground_state(geom), l1=2)


@pytest.mark.parametrize("make", [
    lambda geom: GearConfig(0, 2),
    lambda geom: GearConfig(2, 2, I1="heavy"),
    lambda geom: GearConfig(2, 2, V0=math.nan),
    lambda geom: PotentialSpec(((1.5, 1.0),)),
    lambda geom: PotentialSpec(((1, None),)),
    lambda geom: PotentialSpec(5),
    lambda geom: GridSpec(0, 0, 4, geom.mu_r_unit),
    lambda geom: _as_fraction("1/2", "m1"),
    lambda geom: KickProtocol(2, delta_t=-1.0),
    lambda geom: KickProtocol(2, delta_t="soon"),
    lambda geom: KickProtocol(2, target_gear=3),
    lambda geom: apply_kick(ground_state(geom), l1=1.5),
    lambda geom: band_structure(geom, 0),
    lambda geom: band_structure(geom, 2.5),
    lambda geom: band_structure(geom, True),
    lambda geom: build_full_hamiltonian(geom.config, 3),
    lambda geom: oracle_run(geom.config, KickProtocol(1), [0.0], cutoff=24.0),
    lambda geom: oracle_run(geom.config, KickProtocol(1), [0.0], cutoff=24.5),
    lambda geom: MomentumDistribution(np.array([0, 1]), np.array([[0.5, 0.4]]), 1.0),
    lambda geom: _step_grid(0.0, 0.1),
    lambda geom: _step_grid(math.inf, 0.1),
    # t_final / dt overflows to inf; at 1e13 the grid would need 101 PiB
    lambda geom: simulate_relative(geom, ClassicalState(0.1, 0.0), 1e308),
    lambda geom: simulate_relative(geom, ClassicalState(0.1, 0.0), 1e13),
    lambda geom: time_series(kicked(geom), ["soon"]),
    lambda geom: time_series(kicked(geom), [[0.0, 1.0]]),
    lambda geom: evolve(kicked(geom), "x"),
    lambda geom: evolve(kicked(geom), [1.0, 2.0]),
    lambda geom: oracle_run(geom.config, KickProtocol(1), ["soon"], 16),
    lambda geom: oracle_run(geom.config, KickProtocol(1), [[0.0, 1.0]], 16),
    lambda geom: MomentumDistribution(np.array([0, 1]), np.array([[1.0, np.nan]]), 1.0),
], ids=["n1", "I1-string", "V0-nan", "harmonic", "coefficient", "fourier",
        "grid-spacing", "fraction", "delta_t", "delta_t-string", "target_gear",
        "kick", "num_bands", "num_bands-float", "num_bands-bool", "cutoff",
        "cutoff-whole-float", "cutoff-float", "distribution", "t_final", "t_final-inf",
        "t_final-overflow", "t_final-huge",
        "times-string", "times-2d", "evolve-string", "evolve-list",
        "oracle-times-string", "oracle-times-2d", "probability-nan"])
def test_invalid_input_is_a_config_error(geom22, make):
    """The library owns each check; ConfigError is still a ValueError, so
    callers that catch ValueError keep working."""
    with pytest.raises(ConfigError) as exc:
        make(geom22)
    assert isinstance(exc.value, ValueError)
