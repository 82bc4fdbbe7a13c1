"""stochavg benchmark: one workload, one run, one JSON result line.

Usage (from the repository root):

    python3 bench/run.py --workload eps_sweep --seed 1 --seconds 30 --trace 0

The run imports stochavg from ``src/`` next to this directory, draws the
workload's inputs from ``--seed``, and repeats same-seed pairs of operations
(each one ``stochavg.cli.main`` run of the workload) until ``--seconds`` have
passed.  Every operation is checked: exit code, the workload's output
checks, and byte-identical artifacts between the two operations of a pair.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: medians over
the operations, plus the median set-up time of several fresh processes.
``--trace 1`` runs the same untraced operations, then one more operation
with spans around the public stochavg calls, and reports the per-layer
metrics; its artifacts must be byte-identical to the untraced ones.  Spans go
to ``.bench_out/``.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
# single-threaded BLAS: bit-exactness and speed both depend on it, and it
# keeps BLAS threads times --threads within nproc
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def declared_units(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[section]}


def digest(out):
    """sha256 of every artifact file under ``out``, keyed by relative path."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def run_cli(argvs, tracer=None):
    """Run each argv through stochavg.cli.main; return the first nonzero code.

    An exception out of the program counts as a failed operation: its
    traceback goes to stderr and the code is -1.
    """
    from stochavg import cli

    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in argvs:
                if tracer is None:
                    rc = cli.main(argv)
                else:
                    with tracer.span("cli"):
                        rc = cli.main(argv)
                if rc != 0:
                    return rc
    except Exception:
        traceback.print_exc()
        return -1
    return 0


class Run:
    """Operations of one benchmark run and their outcomes."""

    def __init__(self, workload, rng, work):
        self.workload = workload
        self.rng = rng
        self.work = work
        self.walls = []
        self.cpus = []
        self.attempted = 0
        self.failed = 0
        self.first = None  # (pair, digest of its first operation)

    def fail(self, label, problems, count=True):
        self.failed += count
        for p in problems:
            print(f"{self.workload.name} {label}: FAILED: {p}", file=sys.stderr)

    def pair(self, index):
        pair_dir = self.work / f"pair{index}"
        pair_dir.mkdir()
        return self.workload.make_pair(self.rng, pair_dir), pair_dir

    def operation(self, pair, out, label, tracer=None):
        """One timed operation plus its output check.

        Returns (wall, cpu, digest); the digest is None when the operation
        failed.
        """
        self.attempted += 1
        t0, c0 = time.perf_counter(), time.process_time()
        rc = run_cli(pair.argvs(out), tracer)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        print(f"{self.workload.name} {label}: {wall:.3f} s wall, {cpu:.3f} s cpu",
              file=sys.stderr)
        problems = [f"exit code {rc}"] if rc != 0 else pair.check(out)
        if problems:
            self.fail(label, problems)
            return wall, cpu, None
        return wall, cpu, digest(out)

    def untraced(self, seconds):
        deadline = time.perf_counter() + seconds
        index = 0
        while index == 0 or time.perf_counter() < deadline:
            pair, pair_dir = self.pair(index)
            digests = []
            for side in ("a", "b"):
                wall, cpu, dig = self.operation(pair, pair_dir / side, f"pair {index}{side}")
                digests.append(dig)
                if index or side == "b":  # the first operation warms up, untimed
                    self.walls.append(wall)
                    self.cpus.append(cpu)
            if None not in digests and digests[0] != digests[1]:
                self.fail(f"pair {index}b", ["artifacts differ from the same-seed repeat"])
            if index == 0:
                self.first = (pair, digests[0])
            for side in ("a", "b"):
                shutil.rmtree(pair_dir / side, ignore_errors=True)
            index += 1

    def median_wall(self):
        return statistics.median(self.walls)


def setup_seconds(config):
    """Median over fresh processes of start-to-built-SystemSpec time."""
    values = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), repr(start), config],
            capture_output=True, text=True, timeout=120, check=True)
        values.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(values)


def peak_rss_mb():
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # kilobytes on Linux, bytes on macOS
    return peak / (1 << 20) if sys.platform == "darwin" else peak / 1024.0


def end_to_end(run, config):
    wall = run.median_wall()
    return {
        "wall_s": wall,
        "setup_s": setup_seconds(config),
        "path_steps_per_s": run.workload.path_steps / wall,
        "peak_rss_mb": peak_rss_mb(),
    }


def traced(run, seed):
    from layers import layer_metrics, replay_marginals, self_time_shares, targets
    from spans import Tracer, installed

    pair, reference = run.first
    run_id = f"{run.workload.name}-seed{seed}"
    tracer = Tracer(run_id)
    out = run.work / "pair0" / "traced"
    with installed(tracer, targets()):
        wall, _, dig = run.operation(pair, out, "traced", tracer)
    problems = run.workload.traced_check(tracer)
    if dig is not None and reference is not None and dig != reference:
        problems.append("traced artifacts differ from the untraced run")
    if problems:
        # a traced operation that already failed its own checks counts once
        run.fail("traced", problems, count=dig is not None)
    replay_marginals(tracer)
    tracer.write(OUT / f"spans-{run_id}.jsonl")
    for share, name in self_time_shares(tracer, wall):
        print(f"{run.workload.name} self time {share:7.2%}  {name}", file=sys.stderr)
    cpu_per_wall = sum(run.cpus) / sum(run.walls)
    return layer_metrics(tracer, wall, run.median_wall(), cpu_per_wall)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "stochavg" / "__init__.py").is_file():
        print(f"no stochavg sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    import stochavg

    if SRC not in Path(stochavg.__file__).resolve().parents:
        print(f"stochavg imported from {stochavg.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy as np
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    units = declared_units("per_layer" if args.trace else "end_to_end")

    work = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rng = np.random.default_rng([args.seed, sorted(WORKLOADS).index(args.workload)])
    run = Run(WORKLOADS[args.workload], rng, work)
    run.untraced(args.seconds)
    if args.trace:
        metrics = traced(run, args.seed)
    else:
        metrics = end_to_end(run, run.first[0].setup_config)
    shutil.rmtree(work, ignore_errors=True)

    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} are not both computed and "
              f"declared in BENCHMARK.json", file=sys.stderr)
        return 2
    print(f"{args.workload}: {run.attempted} operations, median wall "
          f"{run.median_wall():.3f} s", file=sys.stderr)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
