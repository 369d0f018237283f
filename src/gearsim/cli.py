"""Command-line front end: JSON experiment configs in, CSV tables out.

Every subcommand reads one config file, runs the corresponding computation,
and writes `<command>.csv` into the output directory.  Output is meant to be
byte-identical across reruns and worker counts: floats are printed with 15
significant digits, rows are emitted in sorted axis order, and sweep points
are computed independently of each other, from one geometry derived once
per subcommand.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from .classical import classical_transmission
from .dynamics import (
    KickProtocol,
    eigen_occupations,
    run_protocol,
    time_series,
    transmission_ratio,
)
from .ergotropy import ergotropy_time_series
from .errors import ConfigError, GearsError
from .model import GearConfig, PotentialSpec, derive_geometry
from .oracle import oracle_run
from .relative import band_structure

__all__ = ["main"]


# ---------------------------------------------------------------- config ---

def _require_keys(doc: dict, allowed, where: str) -> None:
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in {where}")


def _integer(value, name: str) -> int:
    """A JSON integer, or a float with no fractional part.  Anything else,
    bools included, is a ConfigError: nothing is truncated."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (isinstance(value, float) and not value.is_integer())):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    _require_keys(doc, {
        "gears", "potential", "protocol", "sweep", "times",
        "num_bands", "oracle", "output", "workers",
    }, "config")
    return doc


def _gear_config(doc: dict) -> GearConfig:
    gears = doc.get("gears")
    if gears is None:
        raise ConfigError("config needs a 'gears' section")
    _require_keys(gears, {"n1", "n2", "I1", "I2", "V0"}, "gears")
    for key in ("n1", "n2"):
        if key not in gears:
            raise ConfigError(f"gears section needs '{key}'")
    potential = PotentialSpec()
    if "potential" in doc:
        pot = doc["potential"]
        _require_keys(pot, {"fourier"}, "potential")
        if "fourier" not in pot:
            raise ConfigError("potential section needs 'fourier'")
        try:
            potential = PotentialSpec(tuple((_integer(p, "harmonic"), float(a))
                                            for p, a in pot["fourier"]))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad potential.fourier: {exc}") from None
    try:
        return GearConfig(
            n1=_integer(gears["n1"], "gears.n1"),
            n2=_integer(gears["n2"], "gears.n2"),
            I1=float(gears.get("I1", 1.0)),
            I2=float(gears.get("I2", 1.0)),
            V0=float(gears.get("V0", 0.0)),
            potential=potential,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad gears section: {exc}") from None


def _protocol(doc: dict, ell=None, default_num_kicks=None) -> KickProtocol:
    proto = doc.get("protocol", {})
    _require_keys(proto, {"ell", "num_kicks", "delta_t", "target_gear"}, "protocol")
    if ell is None:
        if "ell" not in proto:
            raise ConfigError("protocol section needs 'ell'")
        ell = proto["ell"]
    num_kicks = proto.get("num_kicks", default_num_kicks)
    try:
        return KickProtocol(
            ell=_integer(ell, "protocol.ell"),
            num_kicks=(None if num_kicks is None
                       else _integer(num_kicks, "protocol.num_kicks")),
            delta_t=float(proto.get("delta_t", 0.0)),
            target_gear=_integer(proto.get("target_gear", 1), "protocol.target_gear"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad protocol: {exc}") from None


def _times(doc: dict) -> np.ndarray:
    times = doc.get("times")
    if times is None:
        raise ConfigError("config needs a 'times' section for this command")
    _require_keys(times, {"start", "stop", "num"}, "times")
    if "stop" not in times or "num" not in times:
        raise ConfigError("times section needs 'stop' and 'num'")
    try:
        start = float(times.get("start", 0.0))
        stop = float(times["stop"])
        num = _integer(times["num"], "times.num")
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad times section: {exc}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError("times.start and times.stop must be finite")
    if num < 1 or stop < start or start < 0:
        raise ConfigError("times must satisfy 0 <= start <= stop and num >= 1")
    return np.linspace(start, stop, num)


def _sweep_values(doc: dict, key: str, cast, fallback=None):
    sweep = doc.get("sweep", {})
    _require_keys(sweep, {"ell", "delta_t"}, "sweep")
    if key not in sweep:
        if fallback is not None:
            return fallback
        raise ConfigError(f"config needs sweep.{key} for this command")
    values = sweep[key]
    if not isinstance(values, list) or not values:
        raise ConfigError(f"sweep.{key} must be a non-empty list")
    try:
        values = [cast(v) for v in values]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad sweep.{key}: {exc}") from None
    return sorted(values)


def _workers(doc: dict, override) -> int:
    w = _integer(override if override is not None else doc.get("workers", 1),
                 "workers")
    if w < 1:
        raise ConfigError("workers must be >= 1")
    return w


def _out_dir(doc: dict, override) -> str:
    if override is not None:
        return override
    output = doc.get("output", {})
    _require_keys(output, {"dir"}, "output")
    return output.get("dir", "out")


# ------------------------------------------------------------------- CSV ---

def _fmt(x) -> str:
    # floats (np.float64 too) first: nearly every cell is one; + 0.0 folds
    # -0.0 into 0.0, and inf, -inf and nan print as themselves
    if isinstance(x, float):
        return f"{x + 0.0:.15g}"
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x) + 0.0:.15g}"


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _emit(out_dir: str, name: str, header: list[str], rows) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    _write_csv(path, header, rows)
    print(path)
    return path


def _map_sweep(fn, jobs, workers: int):
    """fn(geom, protocol) for every (geom, protocol) job, in order."""
    if workers <= 1 or len(jobs) <= 1:
        return [fn(*job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as ex:
        return list(ex.map(fn, *zip(*jobs)))


# ----------------------------------------------------------- sweep points ---

def _classical_point(geom, protocol):
    res = classical_transmission(geom, protocol)
    return (protocol.ell, res.r, res.r_measured, res.L_r_bar, res.above_threshold)


def _occupation_rows(geom, protocol):
    es, occ = eigen_occupations(run_protocol(geom, protocol))
    mu = es.grid.values()
    kinetic = (es.vectors ** 2).T @ (mu ** 2 / (2.0 * geom.I_r))
    return [
        (protocol.ell, i, float(int(es.labels[i]) * geom.mu_r_unit),
         float(es.energies[i]), float(kinetic[i]), float(occ[i]))
        for i in range(es.dim)
    ]


# ----------------------------------------------------------- subcommands ---

def _cmd_bands(doc, out_dir, workers):
    config = _gear_config(doc)
    num_bands = _integer(doc.get("num_bands", 3), "num_bands")
    if num_bands < 1:
        raise ConfigError("num_bands must be a positive integer")
    bs = band_structure(derive_geometry(config), num_bands)
    rows = [
        (float(k), band + 1, bs.energies[band, i])
        for band in range(bs.num_bands)
        for i, k in enumerate(bs.ks)
    ]
    _emit(out_dir, "bands.csv", ["k", "band", "energy"], rows)


def _sweep_jobs(geom, template: KickProtocol, key: str, values):
    """(geom, protocol) jobs: the template with `key` set to each value,
    each checked up front (ConfigError)."""
    jobs = []
    for value in values:
        try:
            jobs.append((geom, dataclasses.replace(template, **{key: value})))
        except ValueError as exc:
            raise ConfigError(f"bad protocol for {key}={value}: {exc}") from None
    return jobs


def _ell_sweep_jobs(doc, geom):
    proto = doc.get("protocol", {})
    fallback = [_integer(proto["ell"], "protocol.ell")] if "ell" in proto else None
    ells = _sweep_values(doc, "ell", lambda v: _integer(v, "sweep.ell"),
                         fallback=fallback)
    template = _protocol(doc, ell=0, default_num_kicks=1)
    return _sweep_jobs(geom, template, "ell", ells)


def _cmd_transmission(doc, out_dir, workers):
    geom = derive_geometry(_gear_config(doc))
    jobs = _ell_sweep_jobs(doc, geom)
    rows = [(p.ell, res.r, res.L1_bar, res.L2_bar, res.L_r_bar, res.period_estimate)
            for (_, p), res in zip(jobs, _map_sweep(transmission_ratio, jobs, workers))]
    _emit(out_dir, "transmission.csv",
          ["ell", "r", "L1_bar", "L2_bar", "L_r_bar", "period_estimate"], rows)


def _cmd_multikick(doc, out_dir, workers):
    geom = derive_geometry(_gear_config(doc))
    template = _protocol(doc)
    if template.num_kicks is not None:
        raise ConfigError("multikick sends |ell| unit kicks and takes no "
                          "protocol.num_kicks")
    dts = _sweep_values(doc, "delta_t", float)
    jobs = _sweep_jobs(geom, template, "delta_t", dts)
    rows = [(p.delta_t, res.r, res.L1_bar, res.L2_bar, res.L_r_bar)
            for (_, p), res in zip(jobs, _map_sweep(transmission_ratio, jobs, workers))]
    _emit(out_dir, "multikick.csv",
          ["delta_t", "r", "L1_bar", "L2_bar", "L_r_bar"], rows)


def _cmd_classical(doc, out_dir, workers):
    geom = derive_geometry(_gear_config(doc))
    jobs = _ell_sweep_jobs(doc, geom)
    print(f"L_r threshold {geom.L_r_threshold:.6g}; "
          f"gear-1 kick threshold {geom.ell_threshold:.6g}")
    rows = _map_sweep(_classical_point, jobs, workers)
    _emit(out_dir, "classical.csv",
          ["ell", "r", "r_measured", "L_r_bar", "above_threshold"], rows)


def _cmd_occupations(doc, out_dir, workers):
    jobs = _ell_sweep_jobs(doc, derive_geometry(_gear_config(doc)))
    nested = _map_sweep(_occupation_rows, jobs, workers)
    rows = [row for chunk in nested for row in chunk]
    _emit(out_dir, "occupations.csv",
          ["ell", "state", "k", "energy", "kinetic_energy", "occupation"], rows)


def _cmd_evolve(doc, out_dir, workers):
    geom = derive_geometry(_gear_config(doc))
    protocol = _protocol(doc, default_num_kicks=1)
    ts = time_series(run_protocol(geom, protocol), _times(doc))
    rows = zip(ts.times, ts.L1, ts.L2, ts.L2_sq, ts.energy_r, ts.norm)
    _emit(out_dir, "evolve.csv",
          ["t", "L1", "L2", "L2_sq", "energy_r", "norm"], rows)


def _cmd_ergotropy(doc, out_dir, workers):
    geom = derive_geometry(_gear_config(doc))
    protocol = _protocol(doc, default_num_kicks=1)
    times = _times(doc)
    reports = ergotropy_time_series(geom, protocol, times)
    rows = [
        (t, rep.kinetic, rep.net_kinetic, rep.ergotropy,
         rep.ratio_ergotropy, rep.ratio_net)
        for t, rep in zip(times, reports)
    ]
    _emit(out_dir, "ergotropy.csv",
          ["t", "kinetic", "net_kinetic", "ergotropy",
           "ratio_ergotropy", "ratio_net"], rows)


def _cmd_oracle(doc, out_dir, workers):
    config = _gear_config(doc)
    protocol = _protocol(doc, default_num_kicks=1)
    times = _times(doc)
    oracle_doc = doc.get("oracle", {})
    _require_keys(oracle_doc, {"cutoff"}, "oracle")
    cutoff = _integer(oracle_doc.get("cutoff", 24), "oracle.cutoff")
    if cutoff < 1:
        raise ConfigError("oracle.cutoff must be a positive integer")
    series = oracle_run(config, protocol, times, cutoff=cutoff)
    rows = zip(series.times, series.L1, series.L2, series.L2_sq, series.norm)
    _emit(out_dir, "oracle.csv", ["t", "L1", "L2", "L2_sq", "norm"], rows)


def _cmd_verify(doc, out_dir, workers, only=None):
    from .verification import run_all
    results = run_all(only=only)
    failed = 0
    for res in results:
        tag = "PASS" if res.passed else "FAIL"
        print(f"[{tag}] {res.cid:02d} {res.name}: {res.detail}")
        failed += not res.passed
    if failed:
        print(f"{failed} of {len(results)} criteria failed")
        return 1
    print(f"all {len(results)} criteria passed")
    return 0


_COMMANDS = {
    "bands": _cmd_bands,
    "transmission": _cmd_transmission,
    "multikick": _cmd_multikick,
    "classical": _cmd_classical,
    "occupations": _cmd_occupations,
    "evolve": _cmd_evolve,
    "ergotropy": _cmd_ergotropy,
    "oracle": _cmd_oracle,
}


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="gearsim",
        description="Angular-momentum transmission between coupled quantum rotors",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "bands": "Bloch band energies over the physical quasi-momenta",
        "transmission": "long-time transmission ratio vs kick strength",
        "multikick": "transmission of a unit-kick train vs kick delay",
        "classical": "classical transmission ratio vs kick strength",
        "occupations": "eigenstate occupations and spectrum after a kick",
        "evolve": "expectation values on a time grid after a kick protocol",
        "ergotropy": "extractable work of the driven gear over time",
        "oracle": "raw-lattice reference evolution (independent path)",
        "verify": "run the built-in acceptance checks",
    }
    for name in list(_COMMANDS) + ["verify"]:
        p = sub.add_parser(name, help=helps[name])
        p.add_argument("--config", required=name != "verify",
                       help="JSON experiment description")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--workers", type=int, default=None,
                       help="parallel sweep processes")
        if name == "verify":
            p.add_argument("--only", default=None,
                           help="comma-separated criterion numbers")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        doc = _load_config(args.config) if args.config else {}
        workers = _workers(doc, args.workers)
        out_dir = _out_dir(doc, args.out)
        if args.command == "verify":
            only = None
            if args.only:
                try:
                    only = {int(tok) for tok in args.only.split(",") if tok.strip()}
                except ValueError:
                    raise ConfigError("--only expects comma-separated integers") from None
            return _cmd_verify(doc, out_dir, workers, only=only)
        _COMMANDS[args.command](doc, out_dir, workers)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GearsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
