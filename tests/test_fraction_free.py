"""The fast pipeline builds no `Fraction` once its geometry exists.

`model` keeps exact rationals for building a geometry and for the public
transforms; grids, kicks, Bloch labels and the momentum map run on Python
ints.  So a sweep point, eigensolves included, constructs no Fraction, and
the `transmission` and `classical` subcommands derive their geometry once
for all their points.
"""

import fractions
import pathlib
import sys

import pytest

from gearsim import cli, model, relative
from gearsim.dynamics import KickProtocol, long_time_average, run_protocol
from gearsim.model import GearConfig, PotentialSpec, derive_geometry

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"


def _count_calls(monkeypatch, owner, name, counter):
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        counter.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize("config", [
    GearConfig(2, 3, I1=0.7, I2=1.3, V0=12.0,
               potential=PotentialSpec(((0, 0.5), (1, 0.4), (2, 0.1)))),
    GearConfig(2, 2, V0=10.0),
], ids=["23-binary-inertias", "22"])
def test_a_sweep_point_and_a_kick_train_build_no_fraction(config, monkeypatch):
    geom = derive_geometry(config)
    protocols = (KickProtocol(ell=7, num_kicks=1, target_gear=2),
                 KickProtocol(ell=13, delta_t=0.7))
    for protocol in protocols:   # warm-up: lazily computed constants
        long_time_average(run_protocol(geom, protocol), ell=protocol.ell)
    relative.eigensystem_for.cache_clear()   # the eigensolves count too
    made = []
    _count_calls(monkeypatch, fractions.Fraction, "__new__", made)
    for protocol in protocols:
        long_time_average(run_protocol(geom, protocol), ell=protocol.ell)
    assert len(made) == 0


def test_transmission_derives_its_geometry_once(monkeypatch, tmp_path):
    """Quantum and classical alike: one geometry for all sweep points."""
    derived = []
    original = model.derive_geometry
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gearsim" and vars(module).get("derive_geometry") is original:
            _count_calls(monkeypatch, module, "derive_geometry", derived)
    for command, config in (("transmission", "transmission_23.json"),
                            ("classical", "classical_22.json")):
        derived.clear()
        argv = [command, "--config", str(CONFIGS / config), "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert len(derived) == 1, command
