"""Run one gearsim benchmark workload and print its metrics as JSON.

    python3 gearbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: gearsim is imported from ./src.
The benchmark generates gear-pair configs from the seed, writes them under
gearbench/out/, drives `gearsim.cli.main` in-process on them, reads the
CSVs back and checks every output (see checks.py).  It measures whole
rounds of operations until about --seconds have passed.

With --trace 0 the last line of stdout holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a run whose odd rounds are
traced (see tracer.py), plus the tracing overhead.
"""

import os

# One BLAS thread, set before numpy is first imported: on a small machine
# threaded BLAS adds more run-to-run noise than speed.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 3

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_s.p50", "s"),
    ("peak_rss_mb", "MB"),
)


def import_gearsim():
    """Import gearsim.cli from this checkout's src/; exit non-zero if absent."""
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    try:
        import gearsim.cli
    except ImportError as exc:
        raise SystemExit(f"gearbench: cannot import gearsim from {SRC}: {exc}")
    import_s = time.perf_counter() - t0
    origin = Path(gearsim.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"gearbench: gearsim imported from {origin}, not {SRC}")
    return gearsim.cli, import_s


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return [{k: float(v) if v else float("nan") for k, v in row.items()}
                for row in csv.DictReader(fh)]


def run_op(cli, op, op_dir: Path) -> tuple[float, list[str]]:
    """Write the op's configs, run its CLI calls, check the CSVs.

    Returns the time spent inside `cli.main` and the check's problems.
    `cli.main` is looked up on every call so a traced round sees the
    wrapper.
    """
    op_dir.mkdir(parents=True, exist_ok=True)
    outputs = {}
    spent = 0.0
    for command, doc in op.calls:
        config = op_dir / f"{command}.json"
        config.write_text(json.dumps(doc, indent=1))
        argv = [command, "--config", str(config), "--out", str(op_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            code = cli.main(argv)
            spent += time.perf_counter() - t0
        if code != 0:
            return spent, [f"gearsim {command} exited with code {code}"]
        outputs[command] = read_csv(op_dir / f"{command}.csv")
    return spent, op.check(outputs)


class Tally:
    """Operation times and failures, split by traced and untraced rounds."""

    def __init__(self):
        self.times = {False: [], True: []}
        self.failed = 0
        self.unexpected = []
        self.rounds = []  # (traced, operations, seconds in cli.main)

    def add(self, op, traced: bool, spent: float, problems: list[str]) -> None:
        self.times[traced].append(spent)
        if problems:
            self.failed += 1
            if not op.known_fault:
                self.unexpected.append(f"{op.kind} {op.label}: {problems[:3]}")

    @property
    def attempted(self) -> int:
        return len(self.times[False]) + len(self.times[True])


def measure(cli, make_round, seed, seconds, run_dir, tracer=None):
    """Whole rounds until about `seconds` have passed; with a tracer, odd
    rounds are traced and the run ends after an even number of rounds."""
    tally = Tally()
    rss_mb = None
    start = time.perf_counter()
    r = 0
    while True:
        ops = make_round(seed, r)
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.install()
        round_s = 0.0
        try:
            for k, op in enumerate(ops):
                if traced:
                    tracer.op_id += 1
                spent, problems = run_op(cli, op, run_dir / f"r{r:03d}" / f"{k:02d}")
                tally.add(op, traced, spent, problems)
                round_s += spent
        finally:
            if traced:
                tracer.uninstall()
        tally.rounds.append((traced, len(ops), round_s))
        r += 1
        if r == 1:
            # Peak over set-up and the first round, which is the same list of
            # operations on every run of a seed, however fast the machine.
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / r >= seconds and (tracer is None or r % 2 == 0):
            return tally, rss_mb


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep", "trajectory", "classical", "crosscheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    cli, import_s = import_gearsim()
    import tracer as tracing
    import workloads

    make_round, make_warmup = workloads.WORKLOADS[args.workload]
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    setup = []
    warmup_problems = []
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        make_round(args.seed, 0)
        _, problems = run_op(cli, make_warmup(rep), run_dir / f"warmup{rep}")
        setup.append(time.perf_counter() - t0)
        warmup_problems += problems

    tracer = tracing.Tracer() if args.trace else None
    tally, rss_mb = measure(cli, make_round, args.seed, args.seconds,
                            run_dir, tracer)

    for line in warmup_problems + tally.unexpected:
        print(f"gearbench: check failed: {line}", file=sys.stderr)
    if args.trace:
        untraced, traced = tally.times[False], tally.times[True]
        metrics = tracer.metrics()
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.fmean(traced) / statistics.fmean(untraced) - 1.0)
        metrics["trace.ops"] = len(traced)
        units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
        tracer.save(run_dir / "spans.npz")
    else:
        times = tally.times[False]
        metrics = {
            "setup_s": import_s + statistics.median(setup),
            "ops_per_s": len(times) / sum(times),
            "op_s.p50": statistics.median(times),
            "peak_rss_mb": rss_mb,
        }
        units = dict(END_TO_END)
    result = {
        "correct": not (warmup_problems or tally.unexpected),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    line = json.dumps(result)
    (run_dir / "result.json").write_text(
        json.dumps(dict(result, rounds=tally.rounds), indent=1) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
