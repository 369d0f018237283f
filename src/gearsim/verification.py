"""The thirteen end-to-end checks behind `gearsim verify`.

Each criterion is a function returning a CriterionResult; the test suite and
the CLI both run them from the registry at the bottom, so there is exactly
one implementation of every pass/fail judgement.  Every maximum a criterion
takes over its deviations goes through `_worst`, so a NaN anywhere fails it.
Criteria compute what they need afresh; the only result cache is the
eigensystem one in `relative`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .classical import classical_transmission
from .dynamics import (
    KickProtocol,
    _amplitudes,
    revival_phase_defect,
    run_protocol,
    time_series,
    transmission_ratio,
)
from .ergotropy import ergotropy_time_series
from .model import GearConfig, derive_geometry, momenta_to_collective
from .oracle import oracle_run
from .relative import band_structure

__all__ = ["CriterionResult", "CRITERIA", "run_all"]

CONFIG_22 = GearConfig(2, 2, V0=10.0)
CONFIG_42 = GearConfig(4, 2, V0=10.0)
CONFIG_33 = GearConfig(3, 3, V0=20.0)
CONFIG_22_DEEP = GearConfig(2, 2, V0=40.0)

# Delta-t sweep reproducing the published 13-unit-kick experiment: a dense
# short-time end, the resonant-ish middle, and a long-time plateau.
FIG7_DELTA_TS = (0.1, 0.2, 0.5, 1.0, 2.0, 3.77, 5.0, 7.5, 10.0, 15.0, 20.0, 30.0)
FIG7_SHORT = (0.1, 0.2, 0.5)
FIG7_LONG = (10.0, 15.0, 20.0, 30.0)

# Frozen regression values for the delay sweep (13 unit kicks on the 2:2
# pair at V0 = 10; the qualitative plateau property is asserted
# separately).  Regenerate deliberately if the propagator changes.
FIG7_BASELINE: dict[float, float] = {
    0.1: 0.3058624974801786,
    0.2: 0.4540418200606544,
    0.5: 0.49252268732021803,
    1: 0.4937479959403641,
    2: 0.4914600803833202,
    3.77: 0.4314840008860049,
    5: 0.49749994101518813,
    7.5: 0.5022314549473607,
    10: 0.48862893522171486,
    15: 0.31222842634459747,
    20: 0.47755788771459173,
    30: 0.3723951757550569,
}


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str


def _worst(deviations) -> float:
    """Largest of the deviations; NaN when any of them is NaN, so a NaN
    result fails every `< tolerance` test (Python's max would drop it)."""
    return float(np.max(deviations))


def _single_kick(ell: int) -> KickProtocol:
    return KickProtocol(ell=ell, num_kicks=1)


def check_01_classical_benchmark() -> CriterionResult:
    geom22 = derive_geometry(CONFIG_22)
    geom42 = derive_geometry(CONFIG_42)
    exact_ok = geom22.r_cl == Fraction(1, 2) and geom42.r_cl == Fraction(2, 5)
    res22 = classical_transmission(geom22, _single_kick(6))
    res42 = classical_transmission(geom42, _single_kick(4))
    dev22 = abs(res22.r_measured - 0.5)
    dev42 = abs(res42.r_measured - 0.4)
    passed = (exact_ok and not res22.above_threshold and not res42.above_threshold
              and dev22 < 1e-6 and dev42 < 1e-6)
    return CriterionResult(
        1, "classical benchmark ratios", passed,
        f"exact r_cl {geom22.r_cl}/{geom42.r_cl}; simulated deviations "
        f"{dev22:.2e} (2,2), {dev42:.2e} (4,2)",
    )


def check_02_quantum_enhancement() -> CriterionResult:
    geom22 = derive_geometry(CONFIG_22)
    geom42 = derive_geometry(CONFIG_42)
    cases = [(geom22, ell, 0.5) for ell in (2, 4, 6, 8, 10, 12)]
    cases += [(geom42, ell, 0.4) for ell in (5, 10)]
    worst = _worst([abs(transmission_ratio(geom, _single_kick(ell)).r - r_cl)
                    for geom, ell, r_cl in cases])
    return CriterionResult(
        2, "resonant kicks hit the classical ratio", worst < 1e-9,
        f"max |r - r_cl| = {worst:.2e} over the resonant kick set",
    )


def check_03_tunneling_reduction() -> CriterionResult:
    geom = derive_geometry(CONFIG_22)
    rs = {ell: transmission_ratio(geom, _single_kick(ell)).r for ell in (1, 3, 5)}
    below = all(r < 0.5 for r in rs.values())
    r_shallow = rs[1]
    r_deep = transmission_ratio(derive_geometry(CONFIG_22_DEEP), _single_kick(1)).r
    deep_improves = r_deep > r_shallow
    return CriterionResult(
        3, "odd kicks transmit below the classical ratio", below and deep_improves,
        f"r(1,3,5) = {rs[1]:.6f}, {rs[3]:.6f}, {rs[5]:.6f}; "
        f"r(1) deepens {r_shallow:.6f} -> {r_deep:.6f} at V0 10 -> 40",
    )


def check_04_long_time_averages() -> CriterionResult:
    geom = derive_geometry(CONFIG_22)
    res6 = transmission_ratio(geom, _single_kick(6))
    res10 = transmission_ratio(geom, _single_kick(10))
    devs = (abs(res6.L1_bar - 3.0), abs(res6.L2_bar - 3.0), abs(res10.L2_bar - 5.0))
    worst = _worst(devs)
    return CriterionResult(
        4, "diagonal-ensemble momentum split", worst < 1e-9,
        f"|L1bar-3|, |L2bar-3| (ell=6) and |L2bar-5| (ell=10): "
        f"{devs[0]:.2e}, {devs[1]:.2e}, {devs[2]:.2e}",
    )


def check_05_period_estimates() -> CriterionResult:
    geom = derive_geometry(CONFIG_22)
    expected = {6: 15.0, 8: 194.0, 10: 4836.0, 12: 1.9e5}
    rel = {}
    for ell, ref in expected.items():
        period = transmission_ratio(geom, _single_kick(ell)).period_estimate
        rel[ell] = abs(period - ref) / ref
    worst = _worst(list(rel.values()))
    return CriterionResult(
        5, "beat periods from the two dominant eigenstates", worst < 0.05,
        "relative errors " + ", ".join(f"ell={e}: {v:.3f}" for e, v in rel.items()),
    )


def check_06_band_structure() -> CriterionResult:
    geom = derive_geometry(CONFIG_33)
    bs = band_structure(geom, num_bands=3)
    ks_ok = bs.ks == tuple(Fraction(k) for k in (-2, -1, 0, 1, 2, 3))
    signs_ok = bool(np.all(bs.energies[0] < 0) and np.all(bs.energies[1] < 0)
                    and np.all(bs.energies[2] > 0))
    index = {k: i for i, k in enumerate(bs.ks)}
    pairs = [(i, index[-k]) for k, i in index.items() if -k in index]
    sym_dev = _worst([np.abs(bs.energies[:, i] - bs.energies[:, j])
                      for i, j in pairs])
    passed = ks_ok and signs_ok and sym_dev < 1e-10
    return CriterionResult(
        6, "band structure of the (3,3) pair", passed,
        f"k set ok={ks_ok}, band signs ok={signs_ok}, "
        f"max |E(k)-E(-k)| = {sym_dev:.2e}",
    )


def check_07_revival_phases() -> CriterionResult:
    rng = np.random.default_rng(20260818)
    defects = []
    for config in (CONFIG_22, CONFIG_42):
        geom = derive_geometry(config)
        for _ in range(50):
            m1 = int(rng.integers(-40, 41))
            m2 = int(rng.integers(-40, 41))
            mu_c = momenta_to_collective(geom, m1, m2).mu_c
            defects.append(revival_phase_defect(geom, mu_c))
    worst = _worst(defects)
    return CriterionResult(
        7, "center-of-mass revival phases", worst < 1e-10,
        f"max phase defect {worst:.2e} rad over {len(defects)} random physical mu_c",
    )


def check_08_timescale() -> CriterionResult:
    geom = derive_geometry(CONFIG_22)
    period = 2.0 * math.pi / geom.omega0
    dev = abs(period - 0.70)
    return CriterionResult(
        8, "well oscillation timescale", dev <= 0.01,
        f"2 pi/omega0 = {period:.4f} (target 0.70 +/- 0.01)",
    )


def check_09_multi_kick_invariance() -> CriterionResult:
    geom = derive_geometry(CONFIG_22)
    # num_kicks=None: |ell| unit kicks
    worst = _worst([abs(transmission_ratio(geom, KickProtocol(ell=12, delta_t=dt)).r - 0.5)
                    for dt in (0.1, 1.0, 10.0, 37.7)])
    return CriterionResult(
        9, "unit-kick trains are delay-invariant", worst < 1e-9,
        f"max |r - 0.5| = {worst:.2e} over delta_t in (0.1, 1, 10, 37.7)",
    )


def check_10_ergotropy_properties() -> CriterionResult:
    geom = derive_geometry(CONFIG_22)
    proto = _single_kick(6)
    times = np.linspace(0.0, 30.0, 301)
    reports = ergotropy_time_series(geom, proto, times)
    mean_L2s = time_series(run_protocol(geom, proto), times).L2
    I2 = CONFIG_22.I2
    eps = 1e-10
    ordering_ok = True
    bound_ok = True
    worst_margin = math.inf
    for rep, mean_L2 in zip(reports, mean_L2s):
        scale = max(1.0, rep.kinetic)
        if not (-eps * scale <= rep.net_kinetic <= rep.ergotropy + eps * scale
                and rep.ergotropy <= rep.kinetic + eps * scale):
            ordering_ok = False
        if rep.ratio_ergotropy is None or rep.ratio_net is None \
                or rep.ratio_ergotropy < rep.ratio_net - eps:
            ordering_ok = False
        for m in range(-12, 13):
            lower = (2.0 * m * mean_L2 - m * m) / (2.0 * I2)
            worst_margin = min(worst_margin, rep.ergotropy - lower)
            if rep.ergotropy < lower - 1e-9:
                bound_ok = False
    return CriterionResult(
        10, "ergotropy dominates directed kinetic energy", ordering_ok and bound_ok,
        f"ordering ok={ordering_ok}; kick-extraction bound ok={bound_ok} "
        f"(minimum margin {worst_margin:.3e})",
    )


def check_11_oracle_equivalence() -> CriterionResult:
    geom = derive_geometry(CONFIG_22)
    times = np.linspace(0.0, 50.0, 26)
    devs = []
    for ell in (1, 3, 6):
        proto = _single_kick(ell)
        state = run_protocol(geom, proto)
        ts = time_series(state, times)
        kin = oracle_run(CONFIG_22, proto, times, cutoff=24)
        window, _, C = _amplitudes(state, times)
        _, m2 = window.momentum_pairs()
        column = {m: j for j, m in enumerate(m2.tolist())}
        P = np.abs(C) ** 2
        gear2 = np.zeros_like(kin.gear2)
        for j, m in enumerate(kin.m_values.astype(int).tolist()):
            if m in column:
                gear2[:, j] = P[:, column[m]]
        pairs = ((ts.L1, kin.L1), (ts.L2, kin.L2), (ts.L2_sq, kin.L2_sq),
                 (gear2, kin.gear2))
        devs += [_worst(np.abs(a - b)) for a, b in pairs]
    worst = _worst(devs)
    return CriterionResult(
        11, "pipeline matches the raw-lattice reference", worst < 1e-8,
        f"max deviation {worst:.2e} over L1, L2, L2^2 and gear-2 "
        "distributions, ell in (1, 3, 6), t in [0, 50]",
    )


def check_12_conservation() -> CriterionResult:
    geom = derive_geometry(CONFIG_22)
    n1, n2 = CONFIG_22.n1, CONFIG_22.n2
    series = [time_series(run_protocol(geom, proto), np.linspace(0.0, 50.0, 101))
              for proto in (_single_kick(6), KickProtocol(ell=3, delta_t=1.0))]
    worst_norm = _worst([np.abs(ts.norm - 1.0) for ts in series])
    worst_energy = _worst([np.ptp(ts.energy_r) for ts in series])
    worst_linear = _worst([np.ptp(n2 * ts.L1 + n1 * ts.L2) for ts in series])
    passed = worst_norm < 1e-12 and worst_energy < 1e-10 and worst_linear < 1e-10
    return CriterionResult(
        12, "norm, energy and total momentum conservation", passed,
        f"max |norm-1| = {worst_norm:.2e}, energy spread = {worst_energy:.2e}, "
        f"n2<L1>+n1<L2> spread = {worst_linear:.2e}",
    )


def check_13_delay_sweep() -> CriterionResult:
    geom = derive_geometry(CONFIG_22)
    rs = {dt: transmission_ratio(geom, KickProtocol(ell=13, delta_t=dt)).r
          for dt in FIG7_DELTA_TS}
    plateau = [rs[dt] for dt in FIG7_LONG]
    short = [rs[dt] for dt in FIG7_SHORT]
    plateau_ok = _worst(plateau) >= 0.45
    short_ok = float(np.min(short)) < float(np.min(plateau))  # NaN fails
    worst_reg = _worst([abs(rs[dt] - ref) for dt, ref in FIG7_BASELINE.items()])
    regression_ok = worst_reg < 1e-6
    detail = ("r(" + ", ".join(f"{dt:g}" for dt in FIG7_DELTA_TS) + ") = "
              + ", ".join(f"{rs[dt]:.4f}" for dt in FIG7_DELTA_TS)
              + f"; plateau>=0.45: {plateau_ok}, short below plateau: {short_ok}"
              + f", regression max dev {worst_reg:.2e}")
    return CriterionResult(
        13, "kick-train delay sweep", plateau_ok and short_ok and regression_ok,
        detail,
    )


CRITERIA = (
    (1, check_01_classical_benchmark),
    (2, check_02_quantum_enhancement),
    (3, check_03_tunneling_reduction),
    (4, check_04_long_time_averages),
    (5, check_05_period_estimates),
    (6, check_06_band_structure),
    (7, check_07_revival_phases),
    (8, check_08_timescale),
    (9, check_09_multi_kick_invariance),
    (10, check_10_ergotropy_properties),
    (11, check_11_oracle_equivalence),
    (12, check_12_conservation),
    (13, check_13_delay_sweep),
)


def run_all(only=None) -> list[CriterionResult]:
    results = []
    for cid, fn in CRITERIA:
        if only is not None and cid not in only:
            continue
        results.append(fn())
    return results
