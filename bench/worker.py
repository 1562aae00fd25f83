"""One pass of a benchmark workload, in a fresh interpreter started by run.py.

usage: worker.py WORKLOAD SEED TRACE SCALE T0 RESULT

WORKLOAD "setup" stops once the interpreter is ready, which only samples
setup_s.  T0 is the CLOCK_MONOTONIC reading taken just before this process was
started, so setup_s covers interpreter start, the imports and the warm-up.
The pass writes its figures, the environment and any failures to RESULT.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

THREAD_VARS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "CHECKERBOARD_THREADS": "2"}


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "cpu": cpu,
    }


def main(argv: list) -> None:
    workload, seed, trace, scale, t0, result_path = argv
    wrong = {var: os.environ.get(var) for var, value in THREAD_VARS.items() if os.environ.get(var) != value}
    if wrong:
        sys.exit(f"thread variables must be set before numpy is imported: {wrong}")

    import checkerboard_rmt
    import workloads
    from tracer import Tracer, install, layer_stats

    source = Path.cwd() / "src" / "checkerboard_rmt"
    if Path(checkerboard_rmt.__file__).resolve().parent != source.resolve():
        sys.exit(f"imported {checkerboard_rmt.__file__}, not the checkout's {source}")
    workloads.warm_up()
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - float(t0)
    if workload == "setup":
        Path(result_path).write_text(json.dumps({"setup_s": setup_s}))
        return

    run, check = workloads.WORKLOADS[workload]
    tracer = None
    if trace == "1":
        tracer = Tracer()
        install(tracer)
    scratch = Path(result_path).with_suffix(".out")
    ledger = workloads.Ledger()
    try:
        start = time.perf_counter()
        state = run(ledger, int(seed), scale == "tiny", scratch)
        wall_s = time.perf_counter() - start
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.active = False
        check(ledger, state)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = {
        "ops": {op: [ledger.algebra[op], seconds] for op, seconds in ledger.seconds.items()},
        "list_wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ledger.failures),
        "failures": {op: reason for op, reason in ledger.failures.items() if reason is not None},
        "env": environment(),
    }
    if tracer is not None:
        record["layers"] = layer_stats(tracer, wall_s)
        record["layers"]["moments.hollow_moment_oracle.refused"] = workloads.refused_probe()
    Path(result_path).write_text(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1:])
