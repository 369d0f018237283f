"""Output checks against theory or computations made apart from gearsim.

Nothing here imports gearsim or compares against a saved copy of its
output.  Every gear pair the benchmark generates has I1 = I2 = 1, which the
closed forms below assume.  Each checker returns a list of problems; an
empty list means the output passed.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

RESONANT_TOL = 1e-9      # |r - n1 n2/(n1^2 + n2^2)| on a self-conjugate sector
CONSERVE_TOL = 1e-9      # n2 L1 + n1 L2 = n2 ell, relative to ell
NORM_TOL = 1e-12         # pipeline norm
ENERGY_TOL = 1e-10       # energy_r drift, relative
CLASSICAL_TOL = 1e-6     # classical r and r_measured
ORACLE_TOL = 1e-8        # oracle against pipeline, per sample
ORACLE_NORM_TOL = 1e-10  # oracle norm
MATCH_TOL = 1e-9         # the same quantity from two CSVs or two columns


# ------------------------------------------------------------- theory ---

def r_classical(n1: int, n2: int) -> Fraction:
    """Hard-gear transmission ratio n1 n2/(n1^2 + n2^2)."""
    return Fraction(n1 * n2, n1 * n1 + n2 * n2)


def _sector_steps(n1: int, n2: int, ell: int) -> Fraction:
    """2 d(mu_r)/n for a kick ell on gear 1, i.e. 2 ell n1/(n1^2 + n2^2).

    The kick moves the relative momentum by n n1 ell/(n1^2 + n2^2); it lands
    in a self-conjugate Bloch sector (k = 0 or k = n/2) exactly when this
    number is an integer, and in k = n/2 when that integer is odd.
    """
    return Fraction(2 * ell * n1, n1 * n1 + n2 * n2)


def self_conjugate(n1: int, n2: int, ell: int) -> bool:
    """The total kick lands where the paper's transmission is exact."""
    return _sector_steps(n1, n2, ell).denominator == 1


def half_step_sector(n1: int, n2: int, ell: int) -> bool:
    """The kick lands in k = n/2 and that sector sits half a grid step off
    mu_r = 0 (odd gcd(n1, n2), even n1 + n2).

    gearsim's relative window is then not symmetric under mu_r -> -mu_r and
    its reflection fix-up is skipped, so these resonant points come out
    wrong by up to ~1e-3; the benchmark keeps them out of its seeded inputs
    and runs one fixed such point per round instead.
    """
    q = _sector_steps(n1, n2, ell)
    if q.denominator != 1 or q.numerator % 2 == 0:
        return False
    n = n1 + n2
    spacing = Fraction(n, math.gcd(n1, n2))
    offset = Fraction(n * n1 * ell, n1 * n1 + n2 * n2) % spacing
    return offset == spacing / 2


def profile_value(fourier, x):
    """u(x) = sum_p a_p cos(p x) for Fourier pairs (p, a_p)."""
    x = np.asarray(x, dtype=float)
    return sum(a * np.cos(p * x) for p, a in fourier)


def profile_min(fourier) -> float:
    """Minimum of u over a period: dense samples, then golden-section
    refinement around the best one."""
    xs = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    i = int(np.argmin(profile_value(fourier, xs)))
    h = xs[1] - xs[0]
    a, b = xs[i] - h, xs[i] + h
    g = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(80):
        c, d = b - g * (b - a), a + g * (b - a)
        if profile_value(fourier, c) < profile_value(fourier, d):
            b = d
        else:
            a = c
    return float(min(profile_value(fourier, 0.5 * (a + b)),
                     profile_value(fourier, xs[i])))


def _relative_inertia(n1: int, n2: int) -> float:
    n = n1 + n2
    return n * n / (n1 * n1 + n2 * n2)


def _kick_collective(n1: int, n2: int, ell: float) -> tuple[float, float]:
    """(L_c, L_r) right after a kick ell on gear 1 of the resting pair."""
    n = n1 + n2
    s = n1 * n1 + n2 * n2
    return n * n2 * ell / s, n * n1 * ell / s


def classical_threshold(n1: int, n2: int, V0: float, fourier) -> float:
    """Gear-1 kick at which the relative energy reaches the potential
    ceiling: L_r^2/(2 I_r) = V0 (u(0) - min u)."""
    depth = V0 * (float(profile_value(fourier, 0.0)) - profile_min(fourier))
    L_r = math.sqrt(2.0 * _relative_inertia(n1, n2) * depth)
    return L_r / _kick_collective(n1, n2, 1.0)[1]


def drift_ratio(n1: int, n2: int, V0: float, fourier, ell: int,
                samples: int = 4096) -> float:
    """Classical r of a drifting (slipping) orbit from energy conservation.

    L_r(x) = sqrt(2 I_r (E + V0 u(x))) along x = n theta_r; the time to
    cross one cell is (I_r/n) * integral dx/L_r(x) over a period, and the
    mean L_r is I_r (2 pi/n) over that time.  The integrand is smooth and
    periodic, so the trapezoid rule converges geometrically.
    """
    n = n1 + n2
    I_r = _relative_inertia(n1, n2)
    L_c, L_r0 = _kick_collective(n1, n2, ell)
    E = L_r0 * L_r0 / (2.0 * I_r) - V0 * float(profile_value(fourier, 0.0))
    xs = np.linspace(0.0, 2.0 * math.pi, samples, endpoint=False)
    L = np.sqrt(2.0 * I_r * (E + V0 * profile_value(fourier, xs)))
    T = (I_r / n) * (2.0 * math.pi) * float(np.mean(1.0 / L))
    L_r_bar = I_r * (2.0 * math.pi / n) / T
    L2_bar = (n1 / n) * L_c - (n2 / n) * L_r_bar
    return L2_bar / ell


# ------------------------------------------------------------- checks ---

def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


def _average_rows(n1, n2, row, ell, where) -> list[str]:
    """Checks shared by transmission and multikick rows."""
    problems = []
    L1, L2, r = row["L1_bar"], row["L2_bar"], row["r"]
    if not _close(n2 * L1 + n1 * L2, n2 * ell, CONSERVE_TOL * abs(ell)):
        problems.append(f"{where}: n2 L1 + n1 L2 = {n2 * L1 + n1 * L2!r}, "
                        f"expected {n2 * ell}")
    if not _close(r, L2 / ell, MATCH_TOL * max(1.0, abs(r))):
        problems.append(f"{where}: r = {r!r} but L2_bar/ell = {L2 / ell!r}")
    if self_conjugate(n1, n2, ell):
        r_cl = float(r_classical(n1, n2))
        if not _close(r, r_cl, RESONANT_TOL):
            problems.append(f"{where}: resonant r = {r!r}, expected {r_cl!r}")
    return problems


def check_transmission(n1, n2, ells, rows) -> list[str]:
    if [int(row["ell"]) for row in rows] != sorted(ells):
        return [f"transmission rows for ell {[row['ell'] for row in rows]}, "
                f"expected {sorted(ells)}"]
    problems = []
    for row in rows:
        ell = int(row["ell"])
        problems += _average_rows(n1, n2, row, ell, f"ell={ell}")
    return problems


def check_multikick(n1, n2, ell, delays, rows) -> list[str]:
    got = [row["delta_t"] for row in rows]
    if len(got) != len(delays) or not np.allclose(got, sorted(delays), rtol=1e-12):
        return [f"multikick rows for delta_t {got}, expected {sorted(delays)}"]
    problems = []
    for row in rows:
        problems += _average_rows(n1, n2, row, ell, f"delta_t={row['delta_t']}")
    return problems


def check_evolve(n1, n2, ell, times, rows) -> list[str]:
    if len(rows) != len(times):
        return [f"evolve has {len(rows)} rows, expected {len(times)}"]
    problems = []
    col = {k: np.array([row[k] for row in rows]) for k in rows[0]}
    if not np.allclose(col["t"], times, rtol=1e-12, atol=1e-12):
        problems.append("evolve time grid differs from the requested one")
    worst = float(np.max(np.abs(col["norm"] - 1.0)))
    if worst > NORM_TOL:
        problems.append(f"evolve norm off by {worst:.3e}")
    e0 = col["energy_r"][0]
    drift = float(np.max(np.abs(col["energy_r"] - e0)))
    if drift > ENERGY_TOL * max(1.0, abs(e0)):
        problems.append(f"energy_r drifts by {drift:.3e} from {e0!r}")
    resid = float(np.max(np.abs(n2 * col["L1"] + n1 * col["L2"] - n2 * ell)))
    if resid > CONSERVE_TOL * max(1, abs(ell)):
        problems.append(f"n2 L1 + n1 L2 off by {resid:.3e}")
    if col["t"][0] == 0.0:
        if not _close(col["L1"][0], ell, CONSERVE_TOL * max(1, abs(ell))):
            problems.append(f"L1(0) = {col['L1'][0]!r}, expected {ell}")
        if not _close(col["L2"][0], 0.0, CONSERVE_TOL * max(1, abs(ell))):
            problems.append(f"L2(0) = {col['L2'][0]!r}, expected 0")
    return problems


def check_ergotropy(evolve_rows, rows, I2: float = 1.0) -> list[str]:
    """0 <= ergotropy <= kinetic, kinetic = L2_sq/(2 I2), and ergotropy at
    least the work a rigid momentum shift by any integer m extracts,
    (2 m <L2> - m^2)/(2 I2)."""
    if len(rows) != len(evolve_rows):
        return [f"ergotropy has {len(rows)} rows, evolve {len(evolve_rows)}"]
    problems = []
    for ev, er in zip(evolve_rows, rows):
        t, kin, erg = er["t"], er["kinetic"], er["ergotropy"]
        tol = MATCH_TOL * max(1.0, kin)
        if not _close(ev["t"], t, 1e-12 * max(1.0, t)):
            problems.append(f"time grids differ at t={t!r}")
            break
        if not _close(kin, ev["L2_sq"] / (2.0 * I2), tol):
            problems.append(f"t={t}: kinetic {kin!r} vs L2_sq/2I2 "
                            f"{ev['L2_sq'] / (2.0 * I2)!r}")
        if erg < -tol or erg > kin + tol:
            problems.append(f"t={t}: ergotropy {erg!r} outside [0, {kin!r}]")
        m = round(ev["L2"])
        shift_work = (2.0 * m * ev["L2"] - m * m) / (2.0 * I2)
        if erg < shift_work - tol:
            problems.append(f"t={t}: ergotropy {erg!r} below shift work "
                            f"{shift_work!r} (m={m})")
    return problems


def check_classical(n1, n2, V0, fourier, ells, rows) -> list[str]:
    if [int(row["ell"]) for row in rows] != sorted(ells):
        return [f"classical rows for ell {[row['ell'] for row in rows]}, "
                f"expected {sorted(ells)}"]
    problems = []
    threshold = classical_threshold(n1, n2, V0, fourier)
    r_cl = float(r_classical(n1, n2))
    for row in rows:
        ell = int(row["ell"])
        above = ell > threshold
        if bool(row["above_threshold"]) != above:
            problems.append(f"ell={ell}: above_threshold={row['above_threshold']}"
                            f", threshold is {threshold:.6g}")
            continue
        expected = drift_ratio(n1, n2, V0, fourier, ell) if above else r_cl
        for key in ("r", "r_measured"):
            if not _close(row[key], expected, CLASSICAL_TOL):
                problems.append(f"ell={ell}: {key} = {row[key]!r}, "
                                f"expected {expected!r}")
    return problems


def check_oracle(evolve_rows, rows) -> list[str]:
    if len(rows) != len(evolve_rows):
        return [f"oracle has {len(rows)} rows, evolve {len(evolve_rows)}"]
    problems = []
    worst = {k: 0.0 for k in ("L1", "L2", "L2_sq")}
    for ev, orc in zip(evolve_rows, rows):
        for k in worst:
            worst[k] = max(worst[k], abs(orc[k] - ev[k]))
    for k, w in worst.items():
        if w > ORACLE_TOL:
            problems.append(f"oracle {k} differs from the pipeline by {w:.3e}")
    off = max(abs(orc["norm"] - 1.0) for orc in rows)
    if off > ORACLE_NORM_TOL:
        problems.append(f"oracle norm off by {off:.3e}")
    return problems
