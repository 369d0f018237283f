"""Command-line front end: JSON in, deterministic CSV out."""

import json
from fractions import Fraction

import numpy as np
import pytest

from gearsim.cli import main
from gearsim.dynamics import KickProtocol, transmission_ratio
from gearsim.model import GearConfig

BASE = {"gears": {"n1": 2, "n2": 2, "V0": 10.0}}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def run(tmp_path, command, doc, extra=()):
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "out"
    code = main([command, "--config", cfg, "--out", str(out), *extra])
    return code, out


def read_csv(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_transmission_matches_library(tmp_path, geom22):
    doc = dict(BASE, sweep={"ell": [2, 1]}, protocol={"num_kicks": 1})
    code, out = run(tmp_path, "transmission", doc)
    assert code == 0
    header, rows = read_csv(out / "transmission.csv")
    assert header == ["ell", "r", "L1_bar", "L2_bar", "L_r_bar", "period_estimate"]
    assert [r[0] for r in rows] == ["1", "2"]  # sweep is emitted sorted
    want = transmission_ratio(geom22, KickProtocol(ell=1, num_kicks=1))
    assert float(rows[0][1]) == pytest.approx(want.r, abs=1e-14)


def test_reruns_are_byte_identical(tmp_path):
    doc = dict(BASE, sweep={"ell": [1, 2, 3]}, protocol={"num_kicks": 1})
    cfg = write_config(tmp_path, doc)
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["transmission", "--config", cfg, "--out", str(out)]) == 0
        outs.append((out / "transmission.csv").read_bytes())
    assert outs[0] == outs[1]


def test_worker_count_does_not_change_output(tmp_path):
    doc = dict(BASE, sweep={"ell": [1, 2, 3]}, protocol={"num_kicks": 1})
    cfg = write_config(tmp_path, doc)
    blobs = []
    for workers, sub in ((1, "w1"), (2, "w2")):
        out = tmp_path / sub
        code = main(["transmission", "--config", cfg, "--out", str(out),
                     "--workers", str(workers)])
        assert code == 0
        blobs.append((out / "transmission.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_multikick_sweep(tmp_path):
    doc = dict(BASE, protocol={"ell": 2}, sweep={"delta_t": [1.0, 0.5]})
    code, out = run(tmp_path, "multikick", doc)
    assert code == 0
    header, rows = read_csv(out / "multikick.csv")
    assert header[:2] == ["delta_t", "r"]
    assert [r[0] for r in rows] == ["0.5", "1"]
    for row in rows:  # resonant unit-kick train: exact half either way
        assert float(row[1]) == pytest.approx(0.5, abs=1e-12)


def test_bands_output(tmp_path):
    doc = {"gears": {"n1": 3, "n2": 3, "V0": 20.0}, "num_bands": 2}
    code, out = run(tmp_path, "bands", doc)
    assert code == 0
    header, rows = read_csv(out / "bands.csv")
    assert header == ["k", "band", "energy"]
    ks = sorted({float(r[0]) for r in rows})
    assert ks == [-2.0, -1.0, 0.0, 1.0, 2.0, 3.0]
    assert {r[1] for r in rows} == {"1", "2"}


def test_classical_output(tmp_path, capsys):
    doc = dict(BASE, sweep={"ell": [4]}, protocol={"num_kicks": 1})
    code, out = run(tmp_path, "classical", doc)
    assert code == 0
    assert "threshold" in capsys.readouterr().out
    header, rows = read_csv(out / "classical.csv")
    assert header == ["ell", "r", "r_measured", "L_r_bar", "above_threshold"]
    assert rows[0][4] == "0"  # ell=4 is below the interlock threshold


def test_occupations_output(tmp_path):
    doc = dict(BASE, sweep={"ell": [2]}, protocol={"num_kicks": 1})
    code, out = run(tmp_path, "occupations", doc)
    assert code == 0
    header, rows = read_csv(out / "occupations.csv")
    assert header == ["ell", "state", "k", "energy", "kinetic_energy", "occupation"]
    occ = np.array([float(r[5]) for r in rows])
    assert occ.sum() == pytest.approx(1.0, abs=1e-10)


def test_evolve_output(tmp_path):
    doc = dict(BASE, protocol={"ell": 2, "num_kicks": 1},
               times={"stop": 2.0, "num": 5})
    code, out = run(tmp_path, "evolve", doc)
    assert code == 0
    header, rows = read_csv(out / "evolve.csv")
    assert header == ["t", "L1", "L2", "L2_sq", "energy_r", "norm"]
    assert len(rows) == 5
    assert all(float(r[5]) == pytest.approx(1.0, abs=1e-12) for r in rows)


def test_ergotropy_output(tmp_path):
    doc = dict(BASE, protocol={"ell": 2, "num_kicks": 1},
               times={"stop": 1.0, "num": 3})
    code, out = run(tmp_path, "ergotropy", doc)
    assert code == 0
    header, rows = read_csv(out / "ergotropy.csv")
    assert header == ["t", "kinetic", "net_kinetic", "ergotropy",
                      "ratio_ergotropy", "ratio_net"]
    assert len(rows) == 3


def test_oracle_output(tmp_path):
    doc = dict(BASE, protocol={"ell": 1, "num_kicks": 1},
               times={"stop": 1.0, "num": 3}, oracle={"cutoff": 14})
    code, out = run(tmp_path, "oracle", doc)
    assert code == 0
    header, rows = read_csv(out / "oracle.csv")
    assert header == ["t", "L1", "L2", "L2_sq", "norm"]
    assert len(rows) == 3
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-8)


def test_unknown_key_is_a_config_error(tmp_path, capsys):
    code, _ = run(tmp_path, "transmission", dict(BASE, typo={}))
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_empty_sweep_is_a_config_error(tmp_path):
    code, _ = run(tmp_path, "transmission", dict(BASE, sweep={"ell": []}))
    assert code == 2


def test_missing_config_file(tmp_path):
    code = main(["transmission", "--config", str(tmp_path / "nope.json")])
    assert code == 2


def test_invalid_protocol_is_a_config_error(tmp_path):
    doc = dict(BASE, sweep={"ell": [5]}, protocol={"num_kicks": 2})
    code, _ = run(tmp_path, "transmission", doc)  # 5 kicks don't split in 2
    assert code == 2


@pytest.mark.parametrize("times", [
    {"start": 0.0, "stop": float("inf"), "num": 3},
    {"start": float("nan"), "stop": 1.0, "num": 3},
])
def test_non_finite_times_are_a_config_error(tmp_path, capsys, times):
    doc = dict(BASE, protocol={"ell": 2}, times=times)
    code, out = run(tmp_path, "evolve", doc)
    assert code == 2
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_negative_delay_is_a_config_error(tmp_path, capsys):
    doc = dict(BASE, protocol={"ell": 2}, sweep={"delta_t": [1.0, -1.0]})
    code, out = run(tmp_path, "multikick", doc)
    assert code == 2
    assert "delta_t=-1.0" in capsys.readouterr().err
    assert not out.exists()


def test_bad_sweep_delay_names_its_key(tmp_path, capsys):
    doc = dict(BASE, protocol={"ell": 2}, sweep={"delta_t": [1.0, "soon"]})
    code, out = run(tmp_path, "multikick", doc)
    assert code == 2
    assert "sweep.delta_t" in capsys.readouterr().err
    assert not out.exists()


def test_multikick_refuses_num_kicks(tmp_path, capsys):
    # the command always sends |ell| unit kicks; a num_kicks it would ignore
    # is refused instead
    doc = dict(BASE, protocol={"ell": 3, "num_kicks": 1},
               sweep={"delta_t": [1.0]})
    code, out = run(tmp_path, "multikick", doc)
    assert code == 2
    assert "num_kicks" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["transmission", "classical", "bands"])
def test_profile_without_a_well_is_one_error_line(tmp_path, capsys, command):
    doc = dict(BASE, potential={"fourier": [[0, 0.5], [1, -0.5]]},
               sweep={"ell": [1]})
    code, out = run(tmp_path, command, doc)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: tooth profile") and "curvature -0.5" in err
    assert err.count("\n") == 1
    assert not out.exists()


def test_transmission_with_unequal_inertias(tmp_path):
    doc = {"gears": {"n1": 2, "n2": 2, "I1": 1.0, "I2": 2.0, "V0": 10.0},
           "protocol": {"num_kicks": 1}, "sweep": {"ell": [3]}}
    code, out = run(tmp_path, "transmission", doc)
    assert code == 0
    _, rows = read_csv(out / "transmission.csv")
    # a self-conjugate kick: r = n1 n2 I2 / (n1^2 I2 + n2^2 I1)
    assert float(rows[0][1]) == pytest.approx(2 / 3, abs=1e-12)


def test_bands_refusal_is_one_error_line(tmp_path, capsys):
    doc = {"gears": {"n1": 2, "n2": 2, "I1": 0.7, "I2": 1.3, "V0": 10.0}}
    code, out = run(tmp_path, "bands", doc)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: I1=0.7, I2=1.3 give") and "Bloch residues" in err
    assert err.count("\n") == 1
    assert not out.exists()


HIGH_HARMONIC = dict(BASE, sweep={"ell": [1, 2]}, protocol={"ell": 2, "num_kicks": 1},
                     times={"start": 0.0, "stop": 2.0, "num": 3})


@pytest.mark.parametrize("command", ["transmission", "evolve", "bands"])
def test_high_harmonic_profile_runs(tmp_path, command):
    """Harmonic 20 couples points 40 grid steps apart, past the default
    start windows; each window starts at twice the longest step instead."""
    doc = dict(HIGH_HARMONIC, potential={"fourier": [[0, 0.5], [1, 0.4], [20, 0.1]]})
    code, out = run(tmp_path, command, doc)
    assert code == 0
    assert (out / f"{command}.csv").exists()


@pytest.mark.parametrize("command", ["transmission", "evolve", "bands"])
def test_harmonic_past_the_window_limit_is_one_error_line(tmp_path, capsys, command):
    doc = dict(HIGH_HARMONIC, potential={"fourier": [[0, 0.5], [1, 0.4], [600, 0.1]]})
    code, out = run(tmp_path, command, doc)
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: harmonic 600 needs a window of half-width")
    assert err.count("\n") == 1
    assert not out.exists()


def test_verify_subset(tmp_path, capsys):
    code = main(["verify", "--only", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] 08" in out
    assert "criteria passed" in out


def test_verify_rejects_bad_only(tmp_path):
    assert main(["verify", "--only", "eight"]) == 2


@pytest.mark.parametrize("command,doc", [
    ("transmission", dict(BASE, gears={"n1": 2.5, "n2": 2, "V0": 10.0},
                          protocol={"num_kicks": 1}, sweep={"ell": [4]})),
    ("transmission", dict(BASE, protocol={"num_kicks": 1},
                          sweep={"ell": [2.7, 4]})),
    ("transmission", dict(BASE, protocol={"num_kicks": 1.5},
                          sweep={"ell": [3]})),
    ("transmission", dict(BASE, protocol={"num_kicks": 1, "target_gear": 1.5},
                          sweep={"ell": [2]})),
    ("transmission", dict(BASE, protocol={"num_kicks": 1}, sweep={"ell": [2]},
                          workers=1.5)),
    ("evolve", dict(BASE, protocol={"ell": 2.5}, times={"stop": 1.0, "num": 3})),
    ("evolve", dict(BASE, protocol={"ell": 2}, times={"stop": 1.0, "num": 3.9})),
    ("evolve", dict(BASE, protocol={"ell": 2}, times={"stop": 1.0, "num": "3"})),
    ("bands", dict(BASE, num_bands=True)),
    ("bands", dict(BASE, num_bands=2.5)),
    ("oracle", dict(BASE, protocol={"ell": 1}, times={"stop": 1.0, "num": 3},
                    oracle={"cutoff": True})),
], ids=["n1", "sweep-ell", "num_kicks", "target_gear", "workers", "ell",
        "times-num", "times-num-string", "num_bands-bool", "num_bands",
        "oracle-cutoff-bool"])
def test_non_integer_counts_are_config_errors(tmp_path, capsys, command, doc):
    # nothing is truncated to an integer: a fractional or boolean count is
    # refused, and no table is written
    code, out = run(tmp_path, command, doc)
    assert code == 2
    assert "must be an integer" in capsys.readouterr().err
    assert not out.exists()


def test_integral_floats_are_integers(tmp_path):
    blobs = []
    for sub, n1, ell in (("int", 2, 2), ("float", 2.0, 2.0)):
        doc = dict(BASE, gears={"n1": n1, "n2": 2, "V0": 10.0},
                   protocol={"num_kicks": 1.0}, sweep={"ell": [ell]})
        (tmp_path / sub).mkdir()
        code, out = run(tmp_path / sub, "transmission", doc)
        assert code == 0
        blobs.append((out / "transmission.csv").read_bytes())
    assert blobs[0] == blobs[1]


def test_calls_share_one_parser(capsys):
    from gearsim import cli
    cli._parser()
    before = cli._parser.cache_info()
    for _ in range(2):
        assert main(["verify", "--only", "x"]) == 2
    after = cli._parser.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + 2
    with pytest.raises(SystemExit) as exc:   # --help still works on reuse
        main(["--help"])
    assert exc.value.code == 0
    assert "verify" in capsys.readouterr().out


@pytest.mark.parametrize("value, text", [
    (-0.0, "0"),
    (0.0, "0"),
    (float("inf"), "inf"),
    (float("-inf"), "-inf"),
    (float("nan"), "nan"),
    (np.float64(-0.0), "0"),
    (np.float64(0.1), "0.1"),
    (np.float64(-2.5e-7), "-2.5e-07"),
    (1e-300, "1e-300"),
    (1.23456789012345678e17, "1.23456789012346e+17"),
    (Fraction(1, 3), "0.333333333333333"),
    (Fraction(-4, 2), "-2"),
    (True, "1"),
    (np.bool_(False), "0"),
    (np.int64(-7), "-7"),
    (12, "12"),
    (None, ""),
    ("x", "x"),
])
def test_cell_format_is_pinned(value, text):
    from gearsim import cli
    assert cli._fmt(value) == text


def test_oracle_cutoff_below_n1_plus_n2_is_one_config_error_line(tmp_path, capsys):
    # the library's bound, n1 + n2 = 4 on 2:2, reaches the user as a config
    # error instead of a traceback
    doc = dict(BASE, protocol={"ell": 1}, times={"stop": 1.0, "num": 3},
               oracle={"cutoff": 3})
    code, out = run(tmp_path, "oracle", doc)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cutoff 3 too small")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("extra", [["--out", "x"], ["--workers", "2"], ["--config", "f"]])
def test_verify_refuses_config_out_and_workers(capsys, extra):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--only", "8", *extra])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
