"""Acceptance gate: one test per verification criterion.

Each test delegates to the corresponding check in `gearsim.verification`
(the same checks `gearsim verify` runs) and fails with the check's own
diagnostic line, so `pytest -v tests/test_acceptance.py` reads as a
criterion-by-criterion pass/fail report.
"""

from gearsim import verification as V


def _run(cid):
    res = V.run_one(cid)
    status = "PASS" if res.passed else "FAIL"
    print(f"[{status}] {res.cid:02d} {res.name}: {res.detail}")
    assert res.passed, f"criterion {res.cid:02d} ({res.name}): {res.detail}"


def test_01_classical_benchmark_ratios():
    _run(1)


def test_02_resonant_kicks_hit_the_classical_ratio():
    _run(2)


def test_03_odd_kicks_transmit_below_the_classical_ratio():
    _run(3)


def test_04_diagonal_ensemble_momentum_split():
    _run(4)


def test_05_beat_periods_from_dominant_eigenstates():
    _run(5)


def test_06_band_structure_of_the_3_3_pair():
    _run(6)


def test_07_center_of_mass_revival_phases():
    _run(7)


def test_08_well_oscillation_timescale():
    _run(8)


def test_09_unit_kick_trains_are_delay_invariant():
    _run(9)


def test_10_ergotropy_dominates_directed_kinetic_energy():
    _run(10)


def test_11_pipeline_matches_raw_lattice_reference():
    _run(11)


def test_12_norm_energy_and_total_momentum_conservation():
    _run(12)


def test_13_kick_train_delay_sweep():
    _run(13)


def test_11_fails_on_a_nan_sample(monkeypatch):
    series = V.time_series

    def with_nan(state, times):
        ts = series(state, times)
        ts.L2[-1] = float("nan")
        return ts

    monkeypatch.setattr(V, "time_series", with_nan)
    res = V.run_one(11)
    assert not res.passed
    assert "max deviation nan" in res.detail
