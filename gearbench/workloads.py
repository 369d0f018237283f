"""Seeded inputs of the four workloads.

An operation is one or two `gearsim` subcommand runs on one freshly
generated gear pair, plus the check its outputs must pass.  A run attempts
whole rounds; round r of a workload is generated from (workload, seed, r)
alone, so the same seed gives the same operations on every machine.

Pairs, V0 and kicks are stratified: every round visits each tooth-count
pair of its workload once, with V0 and ell drawn from equal-width bins in
shuffled order.  That keeps the cost mix of a round nearly the same from
seed to seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import checks

PROFILES = (
    ((0, 0.5), (1, 0.5)),              # raised cosine (1 + cos x)/2
    ((0, 0.5), (1, 0.4), (2, 0.1)),    # small 2nd harmonic
    ((0, 0.5), (1, 0.45), (3, 0.05)),  # small 3rd harmonic
)
PAIRS = tuple((n1, n2) for n1 in range(1, 6) for n2 in range(1, 6))

SWEEP_V0 = (5.0, 40.0)
SWEEP_ELLS = tuple(range(1, 13))
MULTIKICK_ELL = 13
MULTIKICK_DELAYS = ((0.1, 1.0), (1.0, 3.0), (3.0, 8.0))

TRAJECTORY_V0 = (5.0, 40.0)
TRAJECTORY_ELL = (1, 40)
TRAJECTORY_STOP = (20.0, 60.0)
TRAJECTORY_SAMPLES = 201

CLASSICAL_V0 = (5.0, 40.0)
CLASSICAL_KICKS = 6
CLASSICAL_MARGIN = 0.10  # every ell at least this share away from threshold

# Small tooth counts and moderate V0 and ell: the (2c+1)^2 lattice at this
# cutoff holds every state they reach (see README for the convergence check).
CROSSCHECK_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2))
CROSSCHECK_V0 = (5.0, 12.0)
CROSSCHECK_ELL = (1, 4)
CROSSCHECK_STOP = (10.0, 30.0)
CROSSCHECK_SAMPLES = 41
CROSSCHECK_CUTOFF = 20
CROSSCHECK_WARMUP_CUTOFF = 12

# A resonant kick into the k = n/2 sector that sits half a grid step off
# mu_r = 0; gearsim gets r wrong at ell = 11 (0.498859 instead of 1/2).
KNOWN_FAULT = {"n1": 1, "n2": 1, "V0": 16.08583582949375, "profile": 1}


@dataclass
class Op:
    """One benchmark operation: CLI calls in order, and their check."""

    kind: str
    calls: list[tuple[str, dict]]
    check: Callable[[dict], list[str]]
    known_fault: bool = False
    label: str = ""


def _config(n1, n2, V0, profile, **sections) -> dict:
    doc = {
        "gears": {"n1": n1, "n2": n2, "I1": 1.0, "I2": 1.0, "V0": V0},
        "potential": {"fourier": [list(t) for t in PROFILES[profile]]},
        "workers": 1,
    }
    doc.update(sections)
    return doc


def _strata(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    """One uniform draw from each of `count` equal bins, in shuffled order."""
    bins = list(range(count))
    rng.shuffle(bins)
    return [lo + (hi - lo) * (b + rng.random()) / count for b in bins]


def _int_strata(rng, count, lo, hi) -> list[int]:
    """Stratified integers in [lo, hi]."""
    return [min(hi, int(math.floor(x))) for x in _strata(rng, count, lo, hi + 1)]


def _times(stop: float, num: int) -> tuple[dict, np.ndarray]:
    return {"start": 0.0, "stop": stop, "num": num}, np.linspace(0.0, stop, num)


def _deck(stream: str, seed: int, r: int, pairs, v0, ell=None):
    """Round r: every pair once, in shuffled order, with stratified V0 and
    ell and the three profiles in near-equal shares."""
    rng = random.Random(f"{stream}:{seed}:{r}")
    order = list(pairs)
    rng.shuffle(order)
    V0s = _strata(rng, len(order), *v0)
    ells = _int_strata(rng, len(order), *ell) if ell else [None] * len(order)
    profiles = [(r + i) % 3 for i in range(len(order))]
    rng.shuffle(profiles)
    return rng, list(zip(order, V0s, profiles, ells))


# --------------------------------------------------------------- sweep ---

def transmission_op(n1, n2, V0, profile, ells, known_fault=False) -> Op:
    doc = _config(n1, n2, V0, profile, protocol={"num_kicks": 1},
                  sweep={"ell": list(ells)})
    return Op("transmission", [("transmission", doc)],
              lambda out: checks.check_transmission(
                  n1, n2, ells, out["transmission"]),
              known_fault, f"{n1}:{n2} V0={V0:.4g} p{profile}")


def multikick_op(n1, n2, V0, profile, delays) -> Op:
    doc = _config(n1, n2, V0, profile, protocol={"ell": MULTIKICK_ELL},
                  sweep={"delta_t": list(delays)})
    return Op("multikick", [("multikick", doc)],
              lambda out: checks.check_multikick(
                  n1, n2, MULTIKICK_ELL, delays, out["multikick"]),
              label=f"{n1}:{n2} V0={V0:.4g} p{profile}")


def sweep_round(seed: int, r: int) -> list[Op]:
    """Every pair once with single kicks ell = 1..12 and once with 13 unit
    kicks, alternating, then the fixed known-fault point.

    Kicks into the half-step k = n/2 sector are left out of the seeded
    pairs: whether gearsim gets them right depends on V0 and the profile,
    so they would fail on some seeds only.
    """
    _, deck = _deck("sweep", seed, r, PAIRS, SWEEP_V0)
    singles = [transmission_op(n1, n2, V0, prof,
                               [e for e in SWEEP_ELLS
                                if not checks.half_step_sector(n1, n2, e)])
               for (n1, n2), V0, prof, _ in deck]
    trains = [p for p in PAIRS
              if not checks.half_step_sector(*p, MULTIKICK_ELL)]
    rng, deck = _deck("multikick", seed, r, trains, SWEEP_V0)
    multis = [multikick_op(n1, n2, V0, prof,
                           [round(rng.uniform(lo, hi), 6)
                            for lo, hi in MULTIKICK_DELAYS])
              for (n1, n2), V0, prof, _ in deck]
    ops = []
    for i in range(max(len(singles), len(multis))):
        ops += singles[i:i + 1] + multis[i:i + 1]
    fault = KNOWN_FAULT
    ops.append(transmission_op(fault["n1"], fault["n2"], fault["V0"],
                               fault["profile"], list(SWEEP_ELLS),
                               known_fault=True))
    return ops


def sweep_warmup(rep: int) -> Op:
    return transmission_op(2, 3, 10.0 + rep, 0, list(SWEEP_ELLS))


# ---------------------------------------------------------- trajectory ---

def trajectory_op(n1, n2, V0, profile, ell, stop) -> Op:
    times_doc, times = _times(stop, TRAJECTORY_SAMPLES)
    doc = _config(n1, n2, V0, profile, protocol={"ell": ell, "num_kicks": 1},
                  times=times_doc)

    def check(out):
        return (checks.check_evolve(n1, n2, ell, times, out["evolve"])
                + checks.check_ergotropy(out["evolve"], out["ergotropy"]))

    return Op("trajectory", [("evolve", doc), ("ergotropy", doc)], check,
              label=f"{n1}:{n2} V0={V0:.4g} p{profile} ell={ell}")


def trajectory_round(seed: int, r: int) -> list[Op]:
    rng, deck = _deck("trajectory", seed, r, PAIRS, TRAJECTORY_V0,
                      TRAJECTORY_ELL)
    return [trajectory_op(n1, n2, V0, prof, ell,
                          round(rng.uniform(*TRAJECTORY_STOP), 6))
            for (n1, n2), V0, prof, ell in deck]


def trajectory_warmup(rep: int) -> Op:
    return trajectory_op(2, 3, 12.0 + rep, 0, 10, 30.0)


# ----------------------------------------------------------- classical ---

def classical_kicks(rng, n1, n2, V0, profile) -> list[int]:
    """CLASSICAL_KICKS distinct ell, up to half of them below the interlock
    threshold and the rest above, none within CLASSICAL_MARGIN of it."""
    thr = checks.classical_threshold(n1, n2, V0, PROFILES[profile])
    below = list(range(1, math.floor((1 - CLASSICAL_MARGIN) * thr) + 1))
    first_above = math.ceil((1 + CLASSICAL_MARGIN) * thr)
    above = list(range(first_above, first_above + 2 * CLASSICAL_KICKS))
    half = CLASSICAL_KICKS // 2
    picked = rng.sample(below, min(half, len(below)))
    picked += rng.sample(above, CLASSICAL_KICKS - len(picked))
    return sorted(picked)


def classical_op(n1, n2, V0, profile, ells) -> Op:
    doc = _config(n1, n2, V0, profile, protocol={"num_kicks": 1},
                  sweep={"ell": list(ells)})
    return Op("classical", [("classical", doc)],
              lambda out: checks.check_classical(
                  n1, n2, V0, PROFILES[profile], ells, out["classical"]),
              label=f"{n1}:{n2} V0={V0:.4g} p{profile}")


def classical_round(seed: int, r: int) -> list[Op]:
    rng, deck = _deck("classical", seed, r, PAIRS, CLASSICAL_V0)
    return [classical_op(n1, n2, V0, prof,
                         classical_kicks(rng, n1, n2, V0, prof))
            for (n1, n2), V0, prof, _ in deck]


def classical_warmup(rep: int) -> Op:
    V0 = 12.0 + rep
    return classical_op(2, 3, V0, 0,
                        classical_kicks(random.Random(rep), 2, 3, V0, 0))


# ---------------------------------------------------------- crosscheck ---

def crosscheck_op(n1, n2, V0, profile, ell, stop, cutoff=CROSSCHECK_CUTOFF) -> Op:
    times_doc, times = _times(stop, CROSSCHECK_SAMPLES)
    doc = _config(n1, n2, V0, profile, protocol={"ell": ell, "num_kicks": 1},
                  times=times_doc, oracle={"cutoff": cutoff})
    pipeline = dict(doc)
    del pipeline["oracle"]

    def check(out):
        return (checks.check_evolve(n1, n2, ell, times, out["evolve"])
                + checks.check_oracle(out["evolve"], out["oracle"]))

    return Op("crosscheck", [("oracle", doc), ("evolve", pipeline)], check,
              label=f"{n1}:{n2} V0={V0:.4g} p{profile} ell={ell} c={cutoff}")


def crosscheck_round(seed: int, r: int) -> list[Op]:
    rng, deck = _deck("crosscheck", seed, r, CROSSCHECK_PAIRS, CROSSCHECK_V0,
                      CROSSCHECK_ELL)
    return [crosscheck_op(n1, n2, V0, prof, ell,
                          round(rng.uniform(*CROSSCHECK_STOP), 6))
            for (n1, n2), V0, prof, ell in deck]


def crosscheck_warmup(rep: int) -> Op:
    return crosscheck_op(1, 1, 8.0 + rep, 0, 2, 10.0,
                         cutoff=CROSSCHECK_WARMUP_CUTOFF)


WORKLOADS = {
    "sweep": (sweep_round, sweep_warmup),
    "trajectory": (trajectory_round, trajectory_warmup),
    "classical": (classical_round, classical_warmup),
    "crosscheck": (crosscheck_round, crosscheck_warmup),
}
