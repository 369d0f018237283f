"""Wall time of every gearsim subcommand, two source trees side by side.

    python tools/cli_walltime.py BEFORE_SRC AFTER_SRC

Each `configs/<command>_<tag>.json` is run as `python -m gearsim.cli
<command>` in a fresh interpreter, once per side in each of RUNS rounds.
The side that goes first alternates from round to round, so a drift in
machine speed falls on both sides alike.  Prints per-command medians
(seconds) and the number of rounds the second tree was faster, as JSON.
`gearsim verify` is run once per side, untimed.  Exits 1, naming each, if
any CSV or the verify stdout differs in bytes between the two trees.
Standard library only.
"""

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
RUNS = 10


def _env(src: pathlib.Path) -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
                OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")


def wall_time(src: pathlib.Path, command: str,
              config: pathlib.Path) -> tuple[float, dict[str, bytes]]:
    """Seconds one run takes, and the bytes of each CSV it wrote."""
    with tempfile.TemporaryDirectory() as out:
        argv = [sys.executable, "-m", "gearsim.cli", command,
                "--config", str(config), "--out", out]
        t0 = time.perf_counter()
        subprocess.run(argv, env=_env(src), check=True, stdout=subprocess.DEVNULL)
        elapsed = time.perf_counter() - t0
        return elapsed, {p.name: p.read_bytes() for p in pathlib.Path(out).glob("*.csv")}


def verify_stdout(src: pathlib.Path) -> bytes:
    """What `gearsim verify` prints, whether or not every criterion passes."""
    argv = [sys.executable, "-m", "gearsim.cli", "verify"]
    return subprocess.run(argv, env=_env(src), stdout=subprocess.PIPE).stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("before", type=pathlib.Path, help="src/ of the reference tree")
    parser.add_argument("after", type=pathlib.Path, help="src/ of the changed tree")
    args = parser.parse_args(argv)
    sides = (args.before.resolve(), args.after.resolve())
    configs = sorted((ROOT / "configs").glob("*.json"))
    times = {cfg.stem: ([], []) for cfg in configs}
    differ = set()
    for rnd in range(RUNS):
        order = (0, 1) if rnd % 2 == 0 else (1, 0)
        for cfg in configs:
            command = cfg.stem.rsplit("_", 1)[0]
            csvs = [None, None]
            for side in order:
                elapsed, csvs[side] = wall_time(sides[side], command, cfg)
                times[cfg.stem][side].append(elapsed)
            for name in csvs[0].keys() | csvs[1].keys():
                if csvs[0].get(name) != csvs[1].get(name):
                    differ.add(f"{cfg.name}: {name}")
    if verify_stdout(sides[0]) != verify_stdout(sides[1]):
        differ.add("gearsim verify: stdout")
    report = {"runs": RUNS, "before": str(sides[0]), "after": str(sides[1]),
              "commands": {}}
    for name, (before, after) in times.items():
        report["commands"][name] = {
            "before_median_s": statistics.median(before),
            "after_median_s": statistics.median(after),
            "after_wins": sum(a < b for a, b in zip(after, before)),
        }
    print(json.dumps(report, indent=1))
    for name in sorted(differ):
        print(f"outputs differ: {name}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
