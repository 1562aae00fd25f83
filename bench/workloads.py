"""The benchmark's workloads: fixed op lists generated from the seed, and their output checks.

Ops reach the package through module attributes (``spectra.eigensolve``, not a
name bound at import time), so the wrappers a traced pass installs see them.
Checks run after the timed op list and compare against `reference`, which does
not use the package.  Every rejection marks its op failed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy as np

import reference
from checkerboard_rmt import cli, ensembles, moments, spectra

ALGEBRAS = ("real", "complex", "quaternion")


class Ledger:
    """Per op: its algebra, its time, and the reason it failed (None if it did not)."""

    def __init__(self):
        self.algebra: dict = {}
        self.seconds: dict = {}
        self.failures: dict = {}

    def attempt(self, op: str, algebra: str, fn, *args, **kwargs):
        self.algebra[op] = algebra
        self.failures.setdefault(op, None)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a raising op is a failed op; the pass goes on
            self.reject(op, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            self.seconds[op] = perf_counter() - start

    def reject(self, op: str, reason: str) -> None:
        if self.failures.get(op) is None:
            self.failures[op] = reason


def package_seeds(seed: int, count: int) -> list:
    """Seeds handed to the package, drawn from the workload seed."""
    rng = random.Random(seed)
    return [rng.getrandbits(63) for _ in range(count)]


def warm_up() -> None:
    """One small trial per algebra: loads LAPACK's real and complex solvers and seeds Philox."""
    for algebra in ALGEBRAS:
        params = ensembles.CheckerboardParams(dim=16, k=2, algebra=algebra)
        spectra.eigensolve(ensembles.sample_checkerboard(params, 0))


# ---------------------------------------------------------------------------
# blip: sample -> eigensolve -> blip measure at N = 600 over R/C/H, k = 2 and 5
# ---------------------------------------------------------------------------


def _blip_trial(params, cfg, trial: int):
    spectrum = spectra.eigensolve(ensembles.sample_checkerboard(params, trial))
    return spectrum, spectra.blip_measure(spectrum, params.k, cfg)


def run_blip(ledger: Ledger, seed: int, tiny: bool, scratch: Path):
    dim, trials = (200, 1) if tiny else (600, 4)
    seeds = iter(package_seeds(seed, 6))
    configs = []
    for k in (2, 5):
        for algebra in ALGEBRAS:
            params = ensembles.CheckerboardParams(dim=dim, k=k, w=1.0, algebra=algebra, seed=next(seeds))
            configs.append((params, spectra.BlipConfig.for_dimension(dim, k), []))
    # trial by trial across all six configs, serially; each config's trial is one op
    for trial in range(trials):
        for params, cfg, results in configs:
            op = f"trial {trial} k={params.k} {params.algebra.value}"
            results.append(ledger.attempt(op, params.algebra.value, _blip_trial, params, cfg, trial))
    averages = []
    for params, cfg, results in configs:
        measures = [r[1] for r in results if r is not None]
        op = f"moments k={params.k} {params.algebra.value}"
        averages.append(
            ledger.attempt(op, params.algebra.value, moments.average_trial_moments, measures, 4, center=float(params.k - 1))
        )
    return configs, averages


def check_blip(ledger: Ledger, state) -> None:
    configs, averages = state
    for (params, cfg, results), average in zip(configs, averages):
        dim, k, w, algebra = params.dim, params.k, params.w, params.algebra.value
        own, scales = [], []
        for trial, result in enumerate(results):
            if result is None:
                continue
            op = f"trial {trial} k={k} {algebra}"
            eigs = result[0].eigenvalues
            if trial == 0:  # the fixed subset, solved again by the benchmark itself
                expected = reference.eigenvalues(ensembles.sample_checkerboard(params, trial).data)
                if eigs.shape != expected.shape or np.abs(eigs - expected).max() > 1e-9 * np.abs(expected).max():
                    ledger.reject(op, "eigenvalues differ from numpy eigvalsh")
            if abs(eigs.sum() - dim * w) > 1e-8 * np.abs(eigs).sum():
                ledger.reject(op, f"eigenvalue sum {eigs.sum()} != N*w = {dim * w}")
            if reference.window_count(eigs, k) != k:
                ledger.reject(op, f"{reference.window_count(eigs, k)} eigenvalues in the blip window, not {k}")
            values, scale = reference.blip_moments(eigs, k, cfg.n, k - 1, 4)
            own.append(values)
            scales.append(scale)
        if average is not None and own:
            error = np.abs(average.values - np.mean(own, axis=0))
            if np.any(error > 1e-9 * np.mean(scales, axis=0)):
                ledger.reject(f"moments k={k} {algebra}", f"blip moments off by {error.max():.3e}")


# ---------------------------------------------------------------------------
# cli: README commands in-process, each writing to a fresh output directory
# ---------------------------------------------------------------------------

# Largest m with k**m <= 10**8, the seed's enumeration budget, for k = 2..7.
ORACLE_MAX_M = {2: 26, 3: 16, 4: 13, 5: 11, 6: 10, 7: 9}
QUATERNION_POINTS = ((2, 4), (2, 6), (2, 8), (3, 4))
# Past the seed's budget: counted by the traced pass, never timed.
PROBE_POINTS = ((2, 28), (3, 18), (4, 14))


def _eigenvalue_rows(rows: int):
    def check(out: Path, printed: str) -> list:
        with (out / "eigenvalues.csv").open() as handle:
            found = sum(1 for _ in handle) - 2  # version line, header
        return [] if found == rows else [f"eigenvalues.csv has {found} rows, expected {rows}"]

    return check


def _unit_mass(out: Path, printed: str) -> list:
    with (out / "moments.csv").open(newline="") as handle:
        m0 = float(list(csv.reader(handle))[2][1])
    return [] if abs(m0 - 1.0) <= 1e-12 else [f"bulk m0 = {m0!r}, not 1"]


def _prints(line: str):
    def check(out: Path, printed: str) -> list:
        return [] if line in printed else [f"did not print {line!r}"]

    return check


def _oracle_values(orders: list):
    """Exact values must equal the reference; Monte Carlo ones land within 4 standard errors."""

    def check(out: Path, printed: str) -> list:
        report = json.loads((out / "oracle.json").read_text())
        k, algebra, results = report["k"], report["algebra"], report["results"]
        problems = [] if [r["m"] for r in results] == orders else [f"orders {[r['m'] for r in results]}"]
        for r in results:
            exact = None if r["exact"] is None else Fraction(r["exact"])
            if algebra == "quaternion":
                expected = reference.quaternion_hollow_moment(k, r["m"])
                ok = exact == expected if exact is not None else abs(r["value"] - expected) <= 4.0 * r["stderr"]
            else:
                expected = reference.hollow_moment(k, r["m"], algebra)
                ok = exact == expected and r["value"] == float(expected)
            if not ok:
                problems.append(f"m={r['m']}: got {r['exact'] or r['value']}, expected {expected}")
        return problems

    return check


def _cli_commands(tiny: bool) -> list:
    """(op, algebra, argv, output checks) for every README command the workload runs."""
    n = {"real": 200, "complex": 150, "quaternion": 100}
    bulk_trials, sample_n, hollow_trials, split_trials = 200, 300, 32000, 20
    compare_n, compare_trials, blip_n, g = 600, 5000, 120, 8
    max_m, mc_trials, expansions = ORACLE_MAX_M, 200_000, {"real": 3, "complex": 2, "quaternion": 1}
    if tiny:
        n = {"real": 40, "complex": 30, "quaternion": 20}
        bulk_trials, sample_n, hollow_trials, split_trials = 4, 50, 400, 2
        compare_n, compare_trials, blip_n, g = 100, 400, 60, 2
        max_m, mc_trials, expansions = {2: 6, 3: 4}, 4000, dict.fromkeys(ALGEBRAS, 1)
    commands = [
        (f"bulk {alg}", alg, ["bulk", "--k", "2", "--N", str(n[alg]), "--trials", str(bulk_trials), "--algebra", alg],
         [_eigenvalue_rows(n[alg] * bulk_trials), _unit_mass])
        for alg in ALGEBRAS
    ]
    commands += [
        ("sample", "real", ["sample", "--k", "2", "--N", str(sample_n), "--trials", "4"], [_eigenvalue_rows(4 * sample_n)]),
        ("hollow k=2", "real", ["hollow", "--k", "2", "--trials", str(hollow_trials)], [_eigenvalue_rows(2 * hollow_trials)]),
        ("hollow k=16", "real", ["hollow", "--k", "16", "--trials", str(hollow_trials)],
         [_eigenvalue_rows(16 * hollow_trials)]),
        ("verify-split", "real", ["verify-split", "--k", "3", "--N", "300", "--trials", str(split_trials)],
         [_prints("verify-split: PASS")]),
        ("compare", "real", ["compare", "--k", "2", "--N", str(compare_n), "--trials", str(compare_trials)], []),
        ("blip", "real", ["blip", "--k", "2", "--N", str(blip_n), "--g", str(g)], [_eigenvalue_rows(g * blip_n)]),
    ]
    # the exact layer: Wick enumeration at every (k, m) within the seed's budget, each once per process
    commands += [
        (f"oracle {alg} k={k}", alg, ["oracle", "--k", str(k), "--max-m", str(top), "--algebra", alg],
         [_oracle_values(list(range(top + 1)))])
        for alg in ("real", "complex")
        for k, top in max_m.items()
    ]
    commands += [
        (f"oracle quaternion k={k} m={m}", "quaternion",
         ["oracle", "--k", str(k), "--m", str(m), "--algebra", "quaternion", "--trials", str(mc_trials)],
         [_oracle_values([m])])
        for k, m in QUATERNION_POINTS
    ]
    commands += [
        (f"verify-identities {alg}", alg, ["verify-identities", "--max-m", "12", "--trials", str(trials), "--algebra", alg],
         [_prints("verify-identities: PASS")])
        for alg, trials in expansions.items()
    ]
    return commands


def run_cli(ledger: Ledger, seed: int, tiny: bool, scratch: Path):
    runs = []
    commands = _cli_commands(tiny)
    for (op, algebra, argv, checks), package_seed in zip(commands, package_seeds(seed, len(commands))):
        out = scratch / op.replace(" ", "_").replace("=", "")
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            status = ledger.attempt(op, algebra, cli.main, [*argv, "--seed", str(package_seed), "--out", str(out)])
        runs.append((op, out, checks, status, printed.getvalue()))
    return runs


def _cli_problems(out: Path, checks: list, printed: str) -> list:
    try:
        outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"manifest.json unreadable: {exc}"]
    problems = [f"{name} listed but missing" for name in outputs if not (out / name).is_file()]
    for path in sorted(out.glob("*.csv")):
        with path.open() as handle:
            if handle.readline().rstrip("\n") != "# checkerboard-rmt v1":
                problems.append(f"{path.name} lacks the CSV version line")
    for check in checks:
        problems += check(out, printed)
    return problems


def check_cli(ledger: Ledger, runs) -> None:
    for op, out, checks, status, printed in runs:
        if status is None:
            continue
        if status != 0:
            ledger.reject(op, f"exit status {status}")
            continue
        try:
            problems = _cli_problems(out, checks, printed)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems = [f"{type(exc).__name__}: {exc}"]
        for problem in problems:
            ledger.reject(op, problem)


def refused_probe() -> int:
    """How many past-budget oracle calls the enumeration budget refuses."""
    from checkerboard_rmt.exceptions import EnumerationBudgetError

    refused = 0
    for k, m in PROBE_POINTS:
        try:
            moments.hollow_moment_oracle(k, m, "real")
        except EnumerationBudgetError:
            refused += 1
    return refused


WORKLOADS = {
    "blip": (run_blip, check_blip),
    "cli": (run_cli, check_cli),
}
