"""Self-check of the benchmark harness at tiny size.

    python3 -m pytest -q bench/test_harness.py     (from the repository root)

Every metric BENCHMARK.json names must be emitted with its unit, pool-thread
spans must nest under their parallel_map span, and the runner must refuse to
run where the package source is missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path

import pytest

import reference
from tracer import POOL, Tracer, layer_stats

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(
        [sys.executable, "bench/run.py", *argv], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == named
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    if trace:
        assert result["metrics"]["moments.hollow_moment_oracle.refused"]["value"] == 3


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench("blip", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_pool_thread_spans_nest_under_parallel_map(monkeypatch):
    monkeypatch.setenv("CHECKERBOARD_THREADS", "2")
    tracer = Tracer()
    leaf = tracer.wrap("spectra.leaf", lambda x: time.sleep(0.02) or x)

    def pool_map(fn, items):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(fn, items))

    assert tracer.wrap_pool(pool_map)(leaf, range(4)) == [0, 1, 2, 3]
    (pool,) = [s for s in tracer.spans if s.name == POOL]
    leaves = [s for s in tracer.spans if s.name == "spectra.leaf"]
    assert len(leaves) == 4 and all(s.parent == pool.sid for s in leaves)
    stats = layer_stats(tracer, pool.end - pool.start)
    assert stats[f"{POOL}.items"] == 4
    assert 0.5 < stats[f"{POOL}.busy_ratio"] <= 1.0
    assert stats[f"{POOL}.self_s"] < 0.5 * (pool.end - pool.start)


def test_frozen_table_agrees_with_the_fourth_moment_closed_form():
    # (1/k) E tr B^4 = E|b|^4 (k-1) + 2(k-1)(k-2), with E|b|^4 = 3 (real), 2 (complex)
    table = reference.frozen_table()
    for k in range(3, 8):
        assert Fraction(table["real"][str(k)]["4"]) == 3 * (k - 1) + 2 * (k - 1) * (k - 2)
        assert Fraction(table["complex"][str(k)]["4"]) == 2 * (k - 1) + 2 * (k - 1) * (k - 2)
