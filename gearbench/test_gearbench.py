"""Self-tests of the benchmark: python3 -m pytest gearbench -q

They check that every checker accepts gearsim's current outputs and
rejects a planted wrong answer, that inputs follow from the seed alone,
that tracing patches every reference to a traced function, and that a
short run of every workload ends with only the known-fault failures.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CLI, _ = run.import_gearsim()


def outputs(op, tmp_path):
    """Run an op's CLI calls and return the parsed CSVs."""
    out = {}
    for command, doc in op.calls:
        config = tmp_path / f"{command}.json"
        config.write_text(json.dumps(doc))
        assert CLI.main([command, "--config", str(config),
                         "--out", str(tmp_path)]) == 0
        out[command] = run.read_csv(tmp_path / f"{command}.csv")
    return out


# ------------------------------------------------------------ checkers ---

def test_transmission_check_accepts_and_rejects_resonant_error(tmp_path):
    op = workloads.transmission_op(2, 2, 10.0, 0, list(range(1, 13)))
    out = outputs(op, tmp_path)
    assert op.check(out) == []
    row = next(r for r in out["transmission"] if checks.self_conjugate(2, 2, int(r["ell"])))
    row["r"] += 1e-6
    row["L2_bar"] += 1e-6 * row["ell"]
    row["L1_bar"] -= 1e-6 * row["ell"]  # keeps n2 L1 + n1 L2 for the 2:2 pair
    problems = op.check(out)
    assert len(problems) == 1 and "resonant" in problems[0]


def test_multikick_check_accepts_and_rejects_broken_conservation(tmp_path):
    op = workloads.multikick_op(2, 3, 12.0, 1, [0.5, 2.0, 5.0])
    out = outputs(op, tmp_path)
    assert op.check(out) == []
    out["multikick"][1]["L1_bar"] += 1e-6
    assert any("n2 L1 + n1 L2" in p for p in op.check(out))


def test_trajectory_checks_accept_and_reject_ergotropy_above_kinetic(tmp_path):
    op = workloads.trajectory_op(3, 2, 15.0, 2, 17, 25.0)
    out = outputs(op, tmp_path)
    assert op.check(out) == []
    row = out["ergotropy"][50]
    row["ergotropy"] = row["kinetic"] * (1 + 1e-6) + 1e-6
    problems = op.check(out)
    assert len(problems) == 1 and "outside" in problems[0]


def test_classical_check_accepts_and_rejects_r_measured_error(tmp_path):
    op = workloads.classical_warmup(0)
    out = outputs(op, tmp_path)
    assert op.check(out) == []
    rows = out["classical"]
    assert {r["above_threshold"] for r in rows} == {0.0, 1.0}
    for row in (rows[0], rows[-1]):  # one interlocked, one drifting
        row["r_measured"] += 1e-5
    problems = op.check(out)
    assert len(problems) == 2 and all("r_measured" in p for p in problems)


def test_crosscheck_check_accepts_and_rejects_oracle_error(tmp_path):
    op = workloads.crosscheck_op(1, 2, 9.0, 1, 3, 12.0, cutoff=16)
    out = outputs(op, tmp_path)
    assert op.check(out) == []
    out["oracle"][7]["L2"] += 1e-7
    problems = op.check(out)
    assert len(problems) == 1 and "oracle L2" in problems[0]


def test_known_fault_point_fails_its_check(tmp_path):
    f = workloads.KNOWN_FAULT
    assert checks.half_step_sector(f["n1"], f["n2"], 11)
    op = workloads.transmission_op(f["n1"], f["n2"], f["V0"], f["profile"], [11])
    problems = op.check(outputs(op, tmp_path))
    assert len(problems) == 1 and "resonant" in problems[0]


# -------------------------------------------------------------- theory ---

def test_sector_rules():
    assert checks.self_conjugate(2, 2, 2) and not checks.self_conjugate(2, 2, 3)
    assert checks.half_step_sector(1, 1, 3)       # odd gcd, k = n/2
    assert not checks.half_step_sector(1, 1, 2)   # k = 0
    assert not checks.half_step_sector(2, 2, 2)   # even gcd: k = n/2 on the grid
    assert checks.half_step_sector(1, 3, 5) and not checks.half_step_sector(1, 3, 10)


def test_profile_min_and_drift_ratio():
    assert checks.profile_min(workloads.PROFILES[0]) == pytest.approx(0.0, abs=1e-12)
    assert checks.profile_min(workloads.PROFILES[1]) == pytest.approx(0.2, abs=1e-12)
    # with V0 -> 0 the orbit is free: L_r keeps its kicked value, and the
    # split leaves nothing on gear 2
    r = checks.drift_ratio(2, 2, 1e-6, workloads.PROFILES[0], 10)
    assert abs(r) < 1e-6
    coarse = checks.drift_ratio(1, 2, 20.0, workloads.PROFILES[2], 30, samples=512)
    assert coarse == pytest.approx(
        checks.drift_ratio(1, 2, 20.0, workloads.PROFILES[2], 30), abs=1e-13)


# -------------------------------------------------------------- inputs ---

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name):
    make_round, _ = workloads.WORKLOADS[name]
    docs = lambda seed, r: [op.calls for op in make_round(seed, r)]  # noqa: E731
    assert docs(3, 0) == docs(3, 0)
    assert docs(3, 0) != docs(4, 0)
    assert docs(3, 0) != docs(3, 1)
    assert len(make_round(3, 0)) == len(make_round(4, 7))


def test_seeded_sweep_leaves_out_half_step_points():
    for r in range(3):
        for op in workloads.sweep_round(11, r):
            gears = op.calls[0][1]["gears"]
            sweep = op.calls[0][1]["sweep"]
            ells = sweep.get("ell", [workloads.MULTIKICK_ELL])
            bad = [e for e in ells
                   if checks.half_step_sector(gears["n1"], gears["n2"], e)]
            assert bool(bad) == op.known_fault


def test_classical_kicks_stay_off_threshold():
    for r in range(5):
        for op in workloads.classical_round(5, r):
            doc = op.calls[0][1]
            g = doc["gears"]
            thr = checks.classical_threshold(g["n1"], g["n2"], g["V0"],
                                             doc["potential"]["fourier"])
            ells = doc["sweep"]["ell"]
            assert len(ells) == workloads.CLASSICAL_KICKS
            assert all(abs(e - thr) >= workloads.CLASSICAL_MARGIN * thr for e in ells)


# --------------------------------------------------------------- trace ---

def test_tracer_patches_every_reference_and_restores():
    mods = {k: sys.modules[f"gearsim.{k}"] for k in ("cli", "dynamics", "ergotropy")}
    original = mods["dynamics"].eigensystem_for
    t = tracer.Tracer()
    t.install()
    try:
        assert mods["dynamics"].eigensystem_for is not original
        assert mods["cli"].transmission_ratio.__wrapped__ is sys.modules[
            "gearsim.dynamics"].transmission_ratio.__wrapped__
        assert mods["ergotropy"].evolved_states is mods["dynamics"].evolved_states
        assert hasattr(mods["ergotropy"].ergotropy, "__wrapped__")
    finally:
        t.uninstall()
    assert mods["dynamics"].eigensystem_for is original
    assert not hasattr(mods["cli"].main, "__wrapped__")


def test_self_time_subtracts_children():
    t = tracer.Tracer()
    # span 0 [0, 10] has children 1 [1, 3] and 2 [4, 8]; 3 [5, 6] is inside 2
    for idx, parent, s, e in ((0, -1, 0, 10), (3, 0, 1, 3), (3, 0, 4, 8), (2, 2, 5, 6)):
        t.name_idx.append(idx)
        t.parent.append(parent)
        t.start.append(s)
        t.end.append(e)
    m = t.metrics()
    assert m["cli.main.self_s"] == 4.0
    assert m["relative.eigensystem_for.calls"] == 2
    assert m["relative.eigensystem_for.self_s"] == 5.0
    assert m["relative.eigendecompose.self_s"] == 1.0
    assert m["relative.eigensystem_for.hit_ratio"] == 0.5


# ----------------------------------------------------------- benchmark ---

def test_benchmark_json_lists_what_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        tracer.per_layer_metrics()


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "gearbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_has_only_known_failures(name):
    proc = bench("--workload", name, "--seed", "7", "--seconds", "0.01",
                 "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stderr
    make_round, _ = workloads.WORKLOADS[name]
    ops = make_round(7, 0)
    assert result["attempted"] == len(ops)
    assert result["failed"] == sum(op.known_fault for op in ops)
    metrics = result["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == list(run.END_TO_END)
    assert all(math.isfinite(v["value"]) and v["value"] > 0 for v in metrics.values())


def test_traced_run_reports_every_per_layer_metric():
    proc = bench("--workload", "sweep", "--seed", "2", "--seconds", "0.01",
                 "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 2
    metrics = result["metrics"]
    assert [(k, v["unit"]) for k, v in metrics.items()] == \
        [(n, u) for n, u, _ in tracer.per_layer_metrics()]
    assert metrics["relative.eigendecompose.calls"]["value"] > 0
    assert metrics["cli.main.calls"]["value"] == metrics["trace.ops"]["value"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "gearbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "sweep", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
