"""Command-line front end: JSON experiment configs in, CSV tables out.

Every subcommand but `verify` reads one config file, runs the corresponding
computation, and writes `<command>.csv` into the output directory.  Output
is meant to be byte-identical across reruns and worker counts: floats are
printed with 15 significant digits, rows are emitted in sorted axis order,
and sweep points are computed independently of each other, from one geometry
derived once per subcommand.

Each handler returns its table as (header, columns): a time series hands
over its arrays unchanged, a sweep one list per field.  The writer formats
a column of floats only with one "%.15g" format over the whole column and
any other column cell by cell with `_fmt`, to the same bytes.

The CLI checks only what the JSON alone decides: its sections and keys,
counts given as integral floats (2.0), the `times` grid and `workers`.  The
library checks every value it is handed and raises ConfigError itself.
"""

from __future__ import annotations

import argparse
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
from .model import GearConfig, PotentialSpec, _real, derive_geometry
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
        potential = PotentialSpec(pot["fourier"])
    return GearConfig(
        n1=_integer(gears["n1"], "gears.n1"),
        n2=_integer(gears["n2"], "gears.n2"),
        I1=gears.get("I1", 1.0),
        I2=gears.get("I2", 1.0),
        V0=gears.get("V0", 0.0),
        potential=potential,
    )


def _protocol(doc: dict, default_num_kicks=None, **point) -> KickProtocol:
    """The config's protocol with each field in `point` replaced: one sweep
    point, or with no `point` the protocol itself."""
    proto = doc.get("protocol", {})
    _require_keys(proto, {"ell", "num_kicks", "delta_t", "target_gear"}, "protocol")
    fields = {"num_kicks": default_num_kicks, **proto}
    for key in ("ell", "num_kicks", "target_gear"):
        if key in fields and not (key == "num_kicks" and fields[key] is None):
            fields[key] = _integer(fields[key], f"protocol.{key}")
    for key, value in point.items():
        fields[key] = (_integer if key == "ell" else _real)(value, f"sweep.{key}")
    if "ell" not in fields:
        raise ConfigError("protocol section needs 'ell'")
    return KickProtocol(**fields)


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


def _sweep(doc: dict, key: str, default_num_kicks=None) -> list:
    """(geom, protocol) jobs sorted by the swept field: one geometry, and the
    config's protocol with `key` replaced by each value of sweep.<key> (an
    ell sweep falls back to protocol.ell).  Every protocol is built, and so
    checked, before any point runs."""
    geom = derive_geometry(_gear_config(doc))
    sweep = doc.get("sweep", {})
    _require_keys(sweep, {"ell", "delta_t"}, "sweep")
    proto = doc.get("protocol", {})
    if key in sweep:
        values = sweep[key]
        if not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.{key} must be a non-empty list")
        points = [{key: value} for value in values]
    elif key == "ell" and isinstance(proto, dict) and "ell" in proto:
        points = [{}]
    else:
        raise ConfigError(f"config needs sweep.{key} for this command")
    jobs = [(geom, _protocol(doc, default_num_kicks, **point)) for point in points]
    return sorted(jobs, key=lambda job: getattr(job[1], key))


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


def _cells(column) -> list[str]:
    """`_fmt` of every cell of a column.  A float64 array, or a sequence of
    floats only, is formatted with one "%.15g" format over all of it, with
    -0.0 folded into 0.0 as `_fmt` folds it."""
    if not (isinstance(column, np.ndarray) and column.dtype == np.float64):
        if not all(isinstance(x, float) for x in column):
            return [_fmt(x) for x in column]
        column = np.array(column, dtype=np.float64)
    text = "%.15g\n" * len(column) % tuple((column + 0.0).tolist())
    return text.split("\n")[:-1]


def _write_csv(path: str, header: list[str], columns) -> None:
    """The table with these columns, under its header, one row a line."""
    lines = [",".join(header)]
    lines += map(",".join, zip(*map(_cells, columns), strict=True))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _per_field(results, names) -> list[list]:
    """One column per field name: that field of every result, in order."""
    return [[getattr(res, name) for res in results] for name in names]


def _map_sweep(fn, jobs, workers: int):
    """fn(geom, protocol) for every (geom, protocol) job, in order."""
    if workers <= 1 or len(jobs) <= 1:
        return [fn(*job) for job in jobs]
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as ex:
        return list(ex.map(fn, *zip(*jobs)))


# ----------------------------------------------------------- sweep points ---

def _occupation_columns(geom, protocol):
    es, occ = eigen_occupations(run_protocol(geom, protocol))
    mu = es.grid.values()
    kinetic = (es.vectors ** 2).T @ (mu ** 2 / (2.0 * geom.I_r))
    k = [float(int(label) * geom.mu_r_unit) for label in es.labels]
    return [[protocol.ell] * es.dim, list(range(es.dim)), k, es.energies,
            kinetic, occ]


# ----------------------------------------------------------- subcommands ---

def _cmd_bands(doc, workers):
    config = _gear_config(doc)
    num_bands = _integer(doc.get("num_bands", 3), "num_bands")
    bs = band_structure(derive_geometry(config), num_bands)
    ks = [float(k) for k in bs.ks]
    return ["k", "band", "energy"], [
        ks * bs.num_bands,
        [band + 1 for band in range(bs.num_bands) for _ in ks],
        bs.energies.ravel(),
    ]


def _cmd_transmission(doc, workers):
    jobs = _sweep(doc, "ell", default_num_kicks=1)
    fields = ["r", "L1_bar", "L2_bar", "L_r_bar", "period_estimate"]
    results = _map_sweep(transmission_ratio, jobs, workers)
    return ["ell", *fields], [[p.ell for _, p in jobs], *_per_field(results, fields)]


def _cmd_multikick(doc, workers):
    jobs = _sweep(doc, "delta_t")
    if jobs[0][1].num_kicks is not None:
        raise ConfigError("multikick sends |ell| unit kicks and takes no "
                          "protocol.num_kicks")
    fields = ["r", "L1_bar", "L2_bar", "L_r_bar"]
    results = _map_sweep(transmission_ratio, jobs, workers)
    return (["delta_t", *fields],
            [[p.delta_t for _, p in jobs], *_per_field(results, fields)])


def _cmd_classical(doc, workers):
    jobs = _sweep(doc, "ell", default_num_kicks=1)
    geom = jobs[0][0]
    print(f"L_r threshold {geom.L_r_threshold:.6g}; "
          f"gear-1 kick threshold {geom.ell_threshold:.6g}")
    fields = ["r", "r_measured", "L_r_bar", "above_threshold"]
    results = _map_sweep(classical_transmission, jobs, workers)
    return ["ell", *fields], [[p.ell for _, p in jobs], *_per_field(results, fields)]


def _cmd_occupations(doc, workers):
    jobs = _sweep(doc, "ell", default_num_kicks=1)
    points = _map_sweep(_occupation_columns, jobs, workers)
    return (["ell", "state", "k", "energy", "kinetic_energy", "occupation"],
            [[x for point in column for x in point] for column in zip(*points)])


def _cmd_evolve(doc, workers):
    geom = derive_geometry(_gear_config(doc))
    protocol = _protocol(doc, default_num_kicks=1)
    ts = time_series(run_protocol(geom, protocol), _times(doc))
    return (["t", "L1", "L2", "L2_sq", "energy_r", "norm"],
            [ts.times, ts.L1, ts.L2, ts.L2_sq, ts.energy_r, ts.norm])


def _cmd_ergotropy(doc, workers):
    geom = derive_geometry(_gear_config(doc))
    protocol = _protocol(doc, default_num_kicks=1)
    times = _times(doc)
    es = ergotropy_time_series(geom, protocol, times)
    return (["t", "kinetic", "net_kinetic", "ergotropy", "ratio_ergotropy", "ratio_net"],
            [times, es.kinetic, es.net_kinetic, es.ergotropy, es.ratio_ergotropy,
             es.ratio_net])


def _cmd_oracle(doc, workers):
    config = _gear_config(doc)
    protocol = _protocol(doc, default_num_kicks=1)
    times = _times(doc)
    oracle_doc = doc.get("oracle", {})
    _require_keys(oracle_doc, {"cutoff"}, "oracle")
    cutoff = _integer(oracle_doc.get("cutoff", 24), "oracle.cutoff")
    series = oracle_run(config, protocol, times, cutoff=cutoff)
    return (["t", "L1", "L2", "L2_sq", "norm"],
            [series.times, series.L1, series.L2, series.L2_sq, series.norm])


def _cmd_verify(only) -> int:
    try:
        ids = {int(tok) for tok in only.split(",") if tok.strip()} if only else None
    except ValueError:
        raise ConfigError("--only expects comma-separated integers") from None
    from .verification import run_all
    results = run_all(only=ids)
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


# name: (handler(doc, workers) -> (header, columns), help); each writes
# <name>.csv, and `verify` takes no config
_COMMANDS = {
    "bands": (_cmd_bands, "Bloch band energies over the physical quasi-momenta"),
    "transmission": (_cmd_transmission, "long-time transmission ratio vs kick strength"),
    "multikick": (_cmd_multikick, "transmission of a unit-kick train vs kick delay"),
    "classical": (_cmd_classical, "classical transmission ratio vs kick strength"),
    "occupations": (_cmd_occupations, "eigenstate occupations and spectrum after a kick"),
    "evolve": (_cmd_evolve, "expectation values on a time grid after a kick protocol"),
    "ergotropy": (_cmd_ergotropy, "extractable work of the driven gear over time"),
    "oracle": (_cmd_oracle, "raw-lattice reference evolution (independent path)"),
}


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="gearsim",
        description="Angular-momentum transmission between coupled quantum rotors",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="JSON experiment description")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--workers", type=int, default=None,
                       help="parallel sweep processes")
    sub.add_parser("verify", help="run the built-in acceptance checks").add_argument(
        "--only", default=None, help="comma-separated criterion numbers")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        if args.command == "verify":
            return _cmd_verify(args.only)
        doc = _load_config(args.config)
        handler, _ = _COMMANDS[args.command]
        out_dir = _out_dir(doc, args.out)
        header, columns = handler(doc, _workers(doc, args.workers))
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, f"{args.command}.csv")
        _write_csv(path, header, columns)
        print(path)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GearsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
