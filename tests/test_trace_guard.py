"""The benchmark's trace mode wraps gearsim functions by name.

`gearbench/tracer.py` looks up every (layer, function) pair it traces with
getattr when a Tracer is built, so renaming or deleting one of them breaks
`gearbench/run.py --trace 1`.  This test builds a Tracer against the
current package without installing it.
"""

import importlib.util
import inspect
import pathlib
import sys

import gearsim.cli  # noqa: F401  (loads every gearsim module the tracer reads)
from gearsim.oracle import oracle_run

TRACER = pathlib.Path(__file__).resolve().parents[1] / "gearbench" / "tracer.py"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave gearbench/ as it is
    spec = importlib.util.spec_from_file_location("gearbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    tracer.Tracer()  # AttributeError if a traced function has gone
    # the lattice counter binds oracle_run's argument by this name
    assert "cutoff" in inspect.signature(oracle_run).parameters
