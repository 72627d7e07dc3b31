"""phonotdoa benchmark: end-to-end and per-layer metrics of three workloads.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 10 --trace 0

Run from a checkout: the package is imported from its `src/` directory.
`--trace 0` sets up the workload's inputs three times, each in a fresh
process (`setup_s` is the median), runs the closed loop untraced in this
process in one block after each set-up, and prints the end-to-end
metrics; timings are scaled to a nominal machine speed measured by a
reference kernel between operations (see speedprobe.py). `--trace 1` sets up
once in this process, then alternates untraced blocks with blocks in
which every layer's public functions are wrapped (see layertrace.py),
half the time each, and prints the per-layer metrics of the traced half.
`--workload all` runs every workload in turn.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it carries the run
context, the correctness checks and details. The exit code is 0 when
every check passes, 1 when one fails and 2 when the run cannot start.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("corpus_td", "verify", "enroll_ti")
SETUP_REPEATS = 3
TRACE_BLOCK_PAIRS = 4
SETUP_TIMEOUT_S = 50
WORKLOAD_TIMEOUT_S = 180

# One client runs at a time and numpy's FFTs are single-threaded, so BLAS
# and OpenMP pools get one thread (never more than nproc). Set before
# numpy is imported here and inherited by the set-up processes.
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
BLAS_THREADS = 1
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)


class Discard(io.TextIOBase):
    def write(self, text: str) -> int:
        return len(text)


@dataclass
class Loop:
    wall_s: float
    attempted: int
    failed: int
    latencies_s: list
    scaled_s: list  # latencies at the probe's nominal machine speed

    @property
    def ops_per_s(self) -> float:
        """Completed operations per second spent inside the program."""
        return (self.attempted - self.failed) / sum(self.latencies_s)


def timed_loop(workload, seconds: float, first_step: int = 0, min_steps: int = 1,
               probe=None) -> Loop:
    """Closed loop: the next step starts when the previous one returns,
    after the speed probe, if given, has sampled the machine."""
    gc.collect()
    latencies, scaled, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    while len(latencies) < min_steps or time.perf_counter() - start < seconds:
        ops, bad, latency = workload.step(first_step + len(latencies))
        attempted += ops
        failed += bad
        latencies.append(latency)
        if probe is not None:
            scaled.append(latency / probe.follow(latency))
    return Loop(time.perf_counter() - start, attempted, failed, latencies, scaled)


def combined(loops) -> Loop:
    return Loop(
        sum(lp.wall_s for lp in loops),
        sum(lp.attempted for lp in loops),
        sum(lp.failed for lp in loops),
        [t for lp in loops for t in lp.latencies_s],
        [t for lp in loops for t in lp.scaled_s],
    )


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        h.update(str(path.relative_to(directory)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_context() -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def build_inputs_in_fresh_process(args, out: Path) -> float:
    """Wall seconds of one set-up: interpreter start, imports, source-model
    load, rendering and enrollment of the workload's inputs."""
    out.mkdir(parents=True)
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--build-inputs", str(out),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"input set-up failed with exit code {proc.returncode}")
    return elapsed


def percentile_ms(latencies_s, q: int) -> float:
    return statistics.quantiles(latencies_s, n=100, method="inclusive")[q - 1] * 1e3


def measure_end_to_end(args, workload_cls, work: Path) -> tuple:
    import speedprobe

    # the timed loop runs in one block after each set-up, so its samples
    # span the whole run rather than one stretch of the machine's speed
    probe = speedprobe.SpeedProbe()
    setups = [build_inputs_in_fresh_process(args, work / "inputs0")]
    digests = {tree_digest(work / "inputs0")}
    workload = workload_cls(args.seed, work / "inputs0")
    workload.warm_up()
    blocks = []
    for k in range(SETUP_REPEATS):
        if k:
            setups.append(build_inputs_in_fresh_process(args, work / f"inputs{k}"))
            digests.add(tree_digest(work / f"inputs{k}"))
        blocks.append(timed_loop(
            workload, args.seconds / SETUP_REPEATS, sum(len(b.latencies_s) for b in blocks),
            min_steps=-(-workload.min_steps // SETUP_REPEATS), probe=probe,
        ))
    loop = combined(blocks)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks, accuracy, details = workload.summary()
    checks["same_seed_same_inputs"] = len(digests) == 1
    completed = loop.attempted - loop.failed
    metrics = {  # timings at the probe's nominal machine speed
        "setup_s": statistics.median(setups) / probe.slowdown(),
        "ops_per_s": completed / sum(loop.scaled_s),
        "latency_p50_ms": statistics.median(loop.scaled_s) * 1e3,
        "latency_tail_ms": percentile_ms(loop.scaled_s, workload.tail_percentile),
        "accuracy": accuracy,
        "peak_rss_mb": peak_rss_mb,
    }
    details.update(
        raw_timings={
            "setup_s": statistics.median(setups),
            "ops_per_s": loop.ops_per_s,
            "latency_p50_ms": statistics.median(loop.latencies_s) * 1e3,
            "latency_p90_ms": percentile_ms(loop.latencies_s, 90),
        },
        tail_percentile=workload.tail_percentile,
        machine_slowdown=probe.slowdown(),
        probe_samples=len(probe.samples),
        setup_runs_s=setups,
        latency_samples=len(loop.latencies_s),
        failed_frac=loop.failed / loop.attempted,
    )
    return loop, checks, details, metrics


def measure_per_layer(args, workload_cls, work: Path) -> tuple:
    import layertrace

    inputs = work / "inputs0"
    inputs.mkdir(parents=True)
    setup = layertrace.Recorder()
    with setup:
        workload_cls.build(args.seed, inputs)
    workload = workload_cls(args.seed, inputs)
    workload.warm_up()
    # untraced and traced blocks alternate, each side going first in half
    # of the pairs, so a drift in machine speed during the run reaches
    # both sides of trace_overhead_frac alike
    recorder = layertrace.Recorder()
    untraced, traced, step = [], [], 0
    block_s = args.seconds / (2 * TRACE_BLOCK_PAIRS)
    for pair in range(TRACE_BLOCK_PAIRS):
        for traced_block in ((False, True) if pair % 2 == 0 else (True, False)):
            with recorder if traced_block else contextlib.nullcontext():
                loop = timed_loop(workload, block_s, step)
            (traced if traced_block else untraced).append(loop)
            step += len(loop.latencies_s)
    untraced, traced = combined(untraced), combined(traced)
    checks, _, details = workload.summary()
    checks["originals_restored"] = layertrace.originals_restored()
    metrics = layertrace.layer_metrics(recorder.spans, traced.wall_s, setup.spans)
    checks["layer_times_within_wall"] = metrics["unattributed_s"] >= 0.0
    metrics["trace_overhead_frac"] = 1.0 - traced.ops_per_s / untraced.ops_per_s
    details.update(
        untraced_ops_per_s=untraced.ops_per_s,
        traced_ops_per_s=traced.ops_per_s,
        failed_frac=(untraced.failed + traced.failed) / (untraced.attempted + traced.attempted),
    )
    return traced, checks, details, metrics


def declared_metrics(traced: int) -> dict:
    """Metric name -> unit, in the order BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


def run_one(args) -> int:
    import workloads

    workload_cls = workloads.WORKLOADS[args.workload]
    if args.build_inputs:
        workload_cls.build(args.seed, Path(args.build_inputs))
        return 0

    work = WORK / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    measure = measure_per_layer if args.trace else measure_end_to_end
    # cli.main logs the effective config at INFO on every call; keep that
    # work but write it nowhere
    logging.basicConfig(stream=Discard(), level=logging.INFO)
    try:
        loop, checks, details, metrics = measure(args, workload_cls, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    units = declared_metrics(args.trace)
    if set(metrics) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"
        )
    checks["no_failed_operations"] = loop.failed == 0
    correct = all(checks.values())
    for name, unit in units.items():
        print(f"{args.workload:10s} {name:36s} {metrics[name]:14.6g} {unit}")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "context": run_context(), "checks": checks,
        "details": details,
    }, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, so memory figures stay apart."""
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKLOAD_TIMEOUT_S)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--build-inputs", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "phonotdoa" / "__init__.py").is_file():
        print(f"perfbench: no phonotdoa package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(HERE)]
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
