"""End-to-end benchmark metrics of two checkouts, in alternating pairs.

    python tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --seeds 200-209
    python tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --seeds 200-209 \
        --workloads classical

Runs `python3 gearbench/run.py --workload W --seed S --seconds T --trace 0`
in each checkout (each run in its own root, so each side imports its own
src/), once per side for every seed and every workload.  The parent goes
first on the even-numbered pairs and the change on the odd ones, so a
drift in machine speed falls on both sides alike.  The workloads (all of
them, or those named in --workloads), the run length T, the metrics and
their bounds come from this repository's BENCHMARK.json.

Prints JSON in the shape of the BENCH_<pr>.json records: per workload the
seeds, `correct`, `failed` and `attempted` of every run, and per end-to-end
metric both sides' runs, medians and quartiles, the number of pairs the
change won, its relative worsening of the median and whether that is
within the metric's bound.  Progress goes to stderr.  Exits 1, naming the
workload, seed and side of each, if any run's outputs failed the
benchmark's checks (`correct: false`).  Standard library only.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def seed_range(text: str) -> list[int]:
    """'200-209' as the list of seeds 200 to 209."""
    lo, sep, hi = text.partition("-")
    if not (sep and lo.isdigit() and hi.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a range A-B, got {text!r}")
    return list(range(int(lo), int(hi) + 1))


def run_once(root: pathlib.Path, workload: str, seed: int, seconds: float) -> dict:
    """One gearbench run in `root`: its JSON result line, parsed."""
    argv = [sys.executable, "gearbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=root, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"bench_pairs: {' '.join(argv[1:])} in {root} "
                         f"exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarise(spec: dict, runs: dict[str, list[float]]) -> dict:
    """Medians, quartiles and pair wins of one metric over both sides."""
    higher = spec["better"] == "higher"
    parent, change = runs["parent"], runs["change"]
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worsening = (p_med - c_med) / p_med if higher else (c_med - p_med) / p_med
    quartiles = {side: statistics.quantiles(runs[side], n=4)[::2] for side in SIDES}
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": spec["bound"],
        "parent_median": p_med,
        "change_median": c_med,
        "parent_quartiles": quartiles["parent"],
        "change_quartiles": quartiles["change"],
        "change_wins": sum((c > p) if higher else (c < p)
                           for p, c in zip(parent, change)),
        "relative_worsening": worsening,
        "within_bound": worsening <= spec["bound"],
        "parent_runs": parent,
        "change_runs": change,
    }


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=pathlib.Path, help="root of the parent checkout")
    parser.add_argument("change", type=pathlib.Path, help="root of the changed checkout")
    parser.add_argument("--seeds", type=seed_range, required=True,
                        help="seed range A-B, one pair per seed")
    parser.add_argument("--workloads", default=",".join(names), metavar="NAME[,NAME]",
                        help="workloads to pair (default: all in BENCHMARK.json)")
    args = parser.parse_args(argv)
    seconds = bench["run_seconds"]
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    workloads = args.workloads.split(",")
    unknown = [name for name in workloads if name not in names]
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; "
                     f"BENCHMARK.json has {', '.join(names)}")
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    report = {
        "command": "python3 gearbench/run.py --workload <w> --seed <n> "
                   f"--seconds {seconds:g} --trace 0",
        "pairs": "one parent and one change run per seed and workload; parent "
                 "first on even-numbered pairs, change first on odd ones",
        "workloads": {},
    }
    for workload in workloads:
        results = {side: [] for side in SIDES}
        for i, seed in enumerate(args.seeds):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                print(f"bench_pairs: {workload} seed {seed} {side}", file=sys.stderr)
                results[side].append(run_once(roots[side], workload, seed, seconds))
        report["workloads"][workload] = {
            "pairs": len(args.seeds),
            "seeds": args.seeds,
            "correct": {side: [r["correct"] for r in results[side]] for side in SIDES},
            "failed": {side: [r["failed"] for r in results[side]] for side in SIDES},
            "attempted": {side: [r["attempted"] for r in results[side]]
                          for side in SIDES},
            "metrics": {
                spec["name"]: summarise(spec, {
                    side: [r["metrics"][spec["name"]]["value"] for r in results[side]]
                    for side in SIDES})
                for spec in bench["end_to_end"]
            },
        }
    print(json.dumps(report, indent=1))
    incorrect = [f"{workload} seed {seed} {side}"
                 for workload, record in report["workloads"].items()
                 for side in SIDES
                 for seed, correct in zip(record["seeds"], record["correct"][side])
                 if not correct]
    for run in incorrect:
        print(f"bench_pairs: {run}: outputs failed the benchmark's checks",
              file=sys.stderr)
    return 1 if incorrect else 0


if __name__ == "__main__":
    sys.exit(main())
