"""Benchmark of checkerboard-rmt, run from the root of a source checkout.

    python3 bench/run.py --workload {blip,cli} --seed N --seconds S --trace {0,1}

A run repeats the workload's fixed op list in passes, each in a fresh
interpreter (bench/worker.py) with OpenBLAS, OpenMP and MKL pinned to one
thread and CHECKERBOARD_THREADS=2, until the next pass would overrun S
seconds.  wall_s and wall_s.<algebra> sum, over the ops, each op's median
time across the passes; setup_s is the median over every interpreter start
(five that only set up, plus one per pass); peak_rss_mb is the median over
the passes.  With --trace 1 the passes alternate untraced and traced, and
the traced ones report per-layer figures timed by wrappers around the
package's functions (bench/tracer.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics (end-to-end with --trace 0,
per-layer with --trace 1).  The full record, with every pass and the
environment, is written to bench/results/<workload>-trace<T>-seed<N>.json;
bench/compare.py compares two sets of such records.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
WORKLOADS = ("blip", "cli")
THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "CHECKERBOARD_THREADS": "2"}
RUN_LIMIT_S = 170.0
SETUP_SAMPLES = 5  # interpreter starts that only set up, on top of one per pass

END_TO_END = {
    "wall_s": "s",
    "wall_s.real": "s",
    "wall_s.complex": "s",
    "wall_s.quaternion": "s",
    "success_rate": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

_LAYERS = {
    "lapack.eigvalsh": ("calls", "self_s", "p50_ms", "order_sum"),
    "ensembles.sample_checkerboard": ("calls", "self_s", "p50_ms", "bytes"),
    "algebra.HermitianMatrix": ("calls", "self_s"),
    "algebra.embed_quaternion_blocks": ("calls", "self_s", "bytes"),
    "spectra.eigensolve": ("calls", "self_s", "p50_ms"),
    "spectra.batch_eigenvalues": ("calls", "self_s"),
    "ensembles.sample_hollow_batch": ("calls", "self_s"),
    "spectra.blip_measure": ("self_s",),
    "spectra.bulk_measure": ("self_s",),
    "spectra.histogram": ("self_s",),
    "moments.measure_moments": ("self_s",),
    "moments.average_trial_moments": ("self_s",),
    "moments.hollow_moment_oracle": ("calls", "self_s", "p50_ms", "refused"),
    "moments.monte_carlo_hollow_moment": ("calls", "self_s"),
    "moments.trace_expansion_blip_moment": ("calls", "self_s", "p50_ms"),
    "analysis.split_regimes": ("self_s",),
    "analysis.compare_blip_to_hollow": ("self_s",),
    "parallel.parallel_map": ("calls", "items", "wall_s", "busy_ratio"),
    "cli.run": ("calls", "self_s", "bytes_written"),
    "trace": ("overhead", "unattributed_s"),
}
_UNITS = {
    "calls": "count",
    "self_s": "s",
    "p50_ms": "ms",
    "order_sum": "count",
    "bytes": "bytes",
    "refused": "count",
    "items": "count",
    "wall_s": "s",
    "busy_ratio": "ratio",
    "bytes_written": "bytes",
    "overhead": "ratio",
    "unattributed_s": "s",
}
PER_LAYER = {f"{layer}.{stat}": _UNITS[stat] for layer, stats in _LAYERS.items() for stat in stats}


class BenchError(Exception):
    """The run cannot produce a result."""


def run_pass(workload: str, seed: int, traced: bool, scale: str, index: int, timeout: float) -> dict:
    RESULTS.mkdir(exist_ok=True)
    result = RESULTS / f"pass-{os.getpid()}-{index}.json"
    env = {**os.environ, **THREAD_VARS, "PYTHONPATH": str(Path.cwd() / "src")}
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    argv = [workload, str(seed), "1" if traced else "0", scale, repr(t0), str(result)]
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *argv], env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"pass {index} did not finish within {timeout:.0f} s") from None
    try:
        if proc.returncode != 0:
            raise BenchError(f"pass {index} exited with status {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(result.read_text())
    finally:
        result.unlink(missing_ok=True)


def run_passes(workload: str, seed: int, seconds: int, trace: bool, scale: str) -> tuple:
    """(set-up times, [(traced, record) per pass]); traced runs alternate untraced and traced passes."""
    start = time.monotonic()
    setups = [run_pass("setup", seed, False, scale, -1 - i, RUN_LIMIT_S)["setup_s"] for i in range(SETUP_SAMPLES)]
    passes, longest = [], 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        begin = time.monotonic()
        timeout = max(1.0, RUN_LIMIT_S - (begin - start))
        passes.append((traced, run_pass(workload, seed, traced, scale, len(passes), timeout)))
        longest = max(longest, time.monotonic() - begin)
        complete = not trace or len(passes) >= 2
        if complete and time.monotonic() - start + longest > seconds:
            return setups + [record["setup_s"] for _, record in passes], passes


def summarize(setups: list, passes: list, trace: bool) -> tuple:
    """(attempted, failures, end-to-end metrics, per-layer metrics or None)."""
    envs = {json.dumps(record["env"], sort_keys=True) for _, record in passes}
    if len(envs) != 1:
        raise BenchError(f"passes ran in different environments: {sorted(envs)}")
    attempted = sum(record["attempted"] for _, record in passes)
    failures = [f"{op}: {reason}" for _, record in passes for op, reason in record["failures"].items()]
    plain = [record for traced, record in passes if not traced]
    metrics = op_times(plain)
    metrics["success_rate"] = 1.0 - len(failures) / attempted
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = statistics.median(record["peak_rss_mb"] for record in plain)
    layers = None
    if trace:
        traced = [record for is_traced, record in passes if is_traced]
        layers = {name: statistics.median(record["layers"].get(name, 0) for record in traced) for name in PER_LAYER}
        layers["trace.overhead"] = op_times(traced)["wall_s"] / metrics["wall_s"] - 1.0
    return attempted, failures, metrics, layers


def op_times(records: list) -> dict:
    """wall_s and wall_s.<algebra>: sums over ops of each op's median time across the passes.

    Per-op medians keep a burst of contention from the machine's other
    tenants during one pass from moving the figure.
    """
    ops = records[0]["ops"]
    medians = {op: statistics.median(record["ops"][op][1] for record in records) for op in ops}
    times = {"wall_s": sum(medians.values())}
    for name in END_TO_END:
        if name.startswith("wall_s."):
            algebra = name.split(".", 1)[1]
            times[name] = sum(seconds for op, seconds in medians.items() if ops[op][0] == algebra)
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny: the harness self-check")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (Path.cwd() / "src" / "checkerboard_rmt" / "__init__.py").is_file():
        print("error: run from the root of a checkerboard-rmt checkout (src/checkerboard_rmt not found)", file=sys.stderr)
        return 2
    try:
        setups, passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)
        attempted, failures, metrics, layers = summarize(setups, passes, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    env = passes[0][1]["env"]
    shown, units = (layers, PER_LAYER) if args.trace else (metrics, END_TO_END)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": shown[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "scale": args.scale, "env": env, "setup_s": setups, "passes": [{"traced": t, **r} for t, r in passes],
              "result": result}
    (RESULTS / f"{args.workload}-trace{args.trace}-seed{args.seed}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}, seed {args.seed}, {len(passes)} passes")
    print("environment: " + json.dumps(env, sort_keys=True))
    for name, unit in END_TO_END.items():
        print(f"  {name:<20} {metrics[name]:.6g} {unit}")
    print(f"  error_rate           {len(failures) / attempted:.6g} ({len(failures)} of {attempted} ops failed)")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
