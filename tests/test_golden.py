"""Golden bytes: every `configs/*.json` and the `gearsim verify` stdout.

Each config runs in-process through `cli.main` into a temporary directory,
and the SHA-256 of every CSV it writes, and of what `verify` prints, must
equal the committed table.  A change that is meant to leave the outputs
alone (a refactor, a faster path to the same floats) must pass this as it
stands; a change that moves a byte on purpose updates the table and says
why.

The bytes depend on this machine's BLAS/LAPACK build (and numpy/scipy
versions): the table was made with Python 3.11.7, numpy 2.4.6 and scipy
1.17.1 on x86-64, and another LAPACK may round the eigensolves differently.
On such a machine, regenerate the table from a trusted checkout before
using it to judge a change.
"""

import hashlib
import pathlib

import pytest

from gearsim import _ckernel
from gearsim.cli import main

CONFIGS = pathlib.Path(__file__).resolve().parents[1] / "configs"

GOLDEN = {
    "bands_33.json/bands.csv": "cc91655f590a2451e479d66a99db961c05ce4f96563538dafd33a3d28b1b27f4",
    "classical_22.json/classical.csv": "609715e334354a8477b431de9c6b7b4bbbcd1191669bb00a97acabd75098b082",
    "ergotropy_22.json/ergotropy.csv": "7d260368fcc2a7f4239e2911745078785bd8460d40e4233f0e7e27f136edf4ff",
    "evolve_42.json/evolve.csv": "595014103dd23c895c9e08868bd566b4913b04fd19664f10c73d27bf3ae68d4b",
    "multikick_22.json/multikick.csv": "e1f101dbdae933b63595e80616ca9d029a42380b18f66b6e89d060e37124a63b",
    "occupations_22.json/occupations.csv": "9cfc3efcb5e9ed80928086547e01301c9a76bcb2a2a25e30f250066421f9b90b",
    "oracle_22.json/oracle.csv": "9b82ac92438449d128327114a489f9fcc10969ee6f6cdd3ad4b47b5c07dd23b3",
    "transmission_22.json/transmission.csv": "773636809ae62da374238fef85d33b14886c68a165a89cc4caaf4df61251848c",
    "transmission_23.json/transmission.csv": "6228d7e0a4c804dc97261e26bc2ec6ac23f3db2d8b66c20d491e77e68af6dec1",
}
VERIFY = "e9ea84be69d43aa8804530f3dabf510a7d203affa224ab23dfd6ebb9fbbbd3bb"


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("config", sorted(CONFIGS.glob("*.json")), ids=lambda p: p.stem)
def test_config_csvs_match_golden_bytes(tmp_path, config):
    command = config.stem.rsplit("_", 1)[0]
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 0
    got = {f"{config.name}/{p.name}": _sha256(p.read_bytes())
           for p in tmp_path.glob("*.csv")}
    want = {k: v for k, v in GOLDEN.items() if k.startswith(f"{config.name}/")}
    assert got == want


def test_every_golden_entry_has_a_config():
    names = {p.name for p in CONFIGS.glob("*.json")}
    assert {key.split("/")[0] for key in GOLDEN} == names


def test_verify_stdout_matches_golden_bytes(capsys):
    assert main(["verify"]) == 0
    assert _sha256(capsys.readouterr().out.encode()) == VERIFY


def test_classical_csv_is_the_same_on_the_python_loop(tmp_path, no_compiler):
    """Where the RK4 kernel cannot be built, the Python loop writes the same
    classical CSV bytes as the compiled kernel."""
    config = CONFIGS / "classical_22.json"
    assert main(["classical", "--config", str(config), "--out", str(tmp_path)]) == 0
    assert _ckernel.rk4() is None
    got = _sha256((tmp_path / "classical.csv").read_bytes())
    assert got == GOLDEN["classical_22.json/classical.csv"]
