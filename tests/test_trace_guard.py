"""The benchmark's trace mode wraps gearsim functions by name.

`gearbench/tracer.py` looks up every (layer, function) pair it traces with
getattr when a Tracer is built, so renaming or deleting one of them breaks
`gearbench/run.py --trace 1`.  These tests build a Tracer against the
current package, and install it only to check what it counts.
"""

import importlib.util
import inspect
import pathlib
import sys

import pytest

import gearsim.cli  # noqa: F401  (loads every gearsim module the tracer reads)
from gearsim import classical
from gearsim.classical import ClassicalState, _default_dt, _step_grid
from gearsim.model import GearConfig, derive_geometry
from gearsim.oracle import oracle_run

TRACER = pathlib.Path(__file__).resolve().parents[1] / "gearbench" / "tracer.py"


def _tracer_module(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave gearbench/ as it is
    spec = importlib.util.spec_from_file_location("gearbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_exists(monkeypatch):
    _tracer_module(monkeypatch).Tracer()  # AttributeError if a traced function has gone
    # the lattice counter binds oracle_run's argument by this name
    assert "cutoff" in inspect.signature(oracle_run).parameters


@pytest.mark.parametrize("config, t_final", [
    (GearConfig(2, 2, V0=10.0), 0.7),
    (GearConfig(2, 2, V0=10.0), 1.234567),
    (GearConfig(2, 3, V0=0.0), 5.0),
])
def test_traced_steps_are_the_steps_of_the_run(monkeypatch, config, t_final):
    """The tracer counts `len(simulate_relative(...).times) - 1` steps per
    run: that is the number of steps `_step_grid` gives the run."""
    geom = derive_geometry(config)
    tracer = _tracer_module(monkeypatch).Tracer()
    tracer.install()
    try:
        classical.simulate_relative(geom, ClassicalState(0.3, 1.0), t_final)
    finally:
        tracer.uninstall()
    n_steps, _ = _step_grid(t_final, _default_dt(geom, t_final))
    assert tracer.counts["classical.simulate_relative.steps"] == n_steps
