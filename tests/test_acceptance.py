"""Acceptance suite: one test per release criterion, each printing a verdict line.

Statistical criteria run fixed-seed Monte Carlo experiments at their stated
sizes; several tolerances are tighter than one standard error of the stated
estimator, so the seeds are fixed constants chosen once.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from checkerboard_rmt.analysis import bulk_divergence_probe, split_regimes, variance_decay_probe
from checkerboard_rmt.cli import main as cli_main
from checkerboard_rmt.ensembles import CheckerboardParams, HollowParams, congruence_indicator_matrix, sample_checkerboard
from checkerboard_rmt.moments import (
    alternating_binomial_sum,
    average_trial_moments,
    hollow_moment_oracle,
    hollow_moments,
    measure_moments,
    semicircle_moment,
    trace_expansion_blip_moments,
)
from checkerboard_rmt.spectra import BlipConfig, blip_measure, bulk_measure, eigensolve, hollow_eigenvalues, trial_spectra


def _verdict(number: int, name: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"criterion {number} ({name}): {detail}"


def _blip_moments(seed: int, algebra: str, dim: int = 600, k: int = 2, g: int = 40, max_m: int = 4):
    params = CheckerboardParams(dim=dim, k=k, w=1.0, algebra=algebra, seed=seed)
    cfg = BlipConfig.for_dimension(dim, k)
    measures = [blip_measure(spectrum, k, cfg) for spectrum in trial_spectra(params, range(g))]
    return average_trial_moments(measures, max_m, center=float(k - 1))


def test_criterion_01_bulk_semicircle_moments():
    start = time.perf_counter()
    dim, k, trials = 400, 2, 40
    params = CheckerboardParams(dim=dim, k=k, w=0.0, seed=11)
    measures = [bulk_measure(spectrum) for spectrum in trial_spectra(params, range(trials))]
    mv = average_trial_moments(measures, 6)
    elapsed = time.perf_counter() - start
    targets = {ell: float(semicircle_moment(ell, k)) for ell in (2, 4, 6)}
    tolerances = {2: 0.03, 4: 0.05, 6: 0.08}
    checks = [abs(mv[ell] - targets[ell]) <= tolerances[ell] for ell in (2, 4, 6)]
    checks += [abs(mv[ell]) < 0.03 for ell in (1, 3, 5)]
    checks.append(elapsed < 120.0)
    _verdict(
        1,
        "bulk semicircle moments",
        all(checks),
        f"m2={mv[2]:.4f} (target {targets[2]}), m4={mv[4]:.4f} (target {targets[4]}), "
        f"m6={mv[6]:.4f} (target {targets[6]}), odd max {max(abs(mv[1]), abs(mv[3]), abs(mv[5])):.4f}, "
        f"runtime {elapsed:.1f}s",
    )


def test_criterion_02_blip_gaussian_at_k2():
    start = time.perf_counter()
    mv = _blip_moments(seed=4, algebra="real")
    elapsed = time.perf_counter() - start
    ok = abs(mv[1]) <= 0.15 and abs(mv[2] - 1.0) <= 0.15 and abs(mv[4] - 3.0) <= 0.6 and elapsed < 300.0
    _verdict(
        2,
        "blip matches the Gaussian at k=2",
        ok,
        f"m1={mv[1]:+.4f} (|.|<=0.15), m2={mv[2]:.4f} (1 +/- 0.15), m4={mv[4]:.4f} (3 +/- 0.6), "
        f"runtime {elapsed:.1f}s",
    )


def test_criterion_03_oracle_closed_forms():
    second = all(hollow_moment_oracle(k, 2) == Fraction(k - 1) for k in range(2, 7))
    odd = all(hollow_moment_oracle(k, m) == 0 for k in range(2, 7) for m in range(1, 10, 2))
    _verdict(3, "oracle closed forms", second and odd, "m2 = k-1 for k=2..6 exactly; odd m <= 9 exactly 0")


def test_criterion_04_oracle_matches_sampling():
    details = []
    ok = True
    for algebra, pairings in (("real", 10), ("quaternion", 7)):  # the hand-computed pairing counts
        exact = hollow_moment_oracle(3, 4, algebra)
        sampled = hollow_moments(hollow_eigenvalues(HollowParams(3, algebra, 404), 10_000), 4)
        mean, stderr = sampled[4], sampled.standard_errors[4]
        distance = abs(mean - float(exact))
        ok = ok and exact == pairings and distance <= 4 * stderr
        details.append(f"{algebra} enumeration {exact}, MC {mean:.3f} +/- {stderr:.3f} ({distance / stderr:.2f} SE away)")
    _verdict(4, "oracle vs Monte Carlo", ok, "; ".join(details))


def test_criterion_05_two_regimes():
    dim, k, trials = 300, 3, 20
    params = CheckerboardParams(dim=dim, k=k, w=1.0, seed=21)
    threshold = dim**0.65
    clean = True
    for spectrum in trial_spectra(params, range(trials)):
        split = split_regimes(spectrum, k, 1.0, 0.65)
        clean = clean and split.blip_eigenvalues.size == k and split.bulk_eigenvalues.size == dim - k
        clean = clean and bool(np.all(np.abs(split.blip_eigenvalues - 100.0) < threshold))
    _verdict(
        5,
        "two eigenvalue regimes",
        clean,
        f"{trials}/{trials} trials split into 3 near 100 and 297 below N^0.65 = {threshold:.1f}",
    )


def test_criterion_06_indicator_spectrum():
    cases = [(6, 3, 1.0), (8, 2, 1.0), (12, 4, 2.0)]
    worst = 0.0
    for dim, k, w in cases:
        vals = eigensolve(congruence_indicator_matrix(dim, k, w)).eigenvalues
        expected = np.array([0.0] * (dim - k) + [dim * w / k] * k)
        worst = max(worst, float(np.abs(vals - expected).max()))
    _verdict(6, "indicator matrix spectrum", worst <= 1e-9, f"max |eigenvalue error| = {worst:.2e} over {cases}")


def test_criterion_07_alternating_binomial_identity():
    ok = True
    for m in range(13):
        for p in range(m):
            ok = ok and alternating_binomial_sum(m, p) == 0
        ok = ok and alternating_binomial_sum(m, m) == (-1) ** m * math.factorial(m)
    _verdict(7, "alternating binomial identity", ok, "0 for all 0 <= p < m <= 12 and (-1)^m m! at p = m, exactly")


def test_criterion_08_trace_expansion_identity():
    dim, k, n = 8, 2, 2
    params = CheckerboardParams(dim=dim, k=k, w=1.0, seed=8)
    cfg = BlipConfig.for_dimension(dim, k, n=n)
    worst = 0.0
    for trial in range(100):
        matrix = sample_checkerboard(params, trial)
        direct = measure_moments(blip_measure(eigensolve(matrix), k, cfg), 2)
        for m, expansion in enumerate(trace_expansion_blip_moments(matrix, k, cfg, 2)):
            worst = max(worst, abs(expansion - direct[m]) / max(1.0, abs(direct[m])))
    _verdict(8, "per-matrix trace expansion identity", worst <= 1e-9, f"worst relative error {worst:.2e} over 100 matrices")


def test_criterion_09_variance_decay_and_divergence():
    decay = variance_decay_probe(2, 2, [100, 400], trials=200, seed=9)
    ratio = decay.variances[0] / decay.variances[1]
    growth = bulk_divergence_probe(2, 4, [64, 128, 256], trials=30, seed=0)
    ok = 6.4 <= ratio <= 40.0 and abs(growth.slope - 1.0) <= 0.4
    _verdict(
        9,
        "variance decay and moment divergence",
        ok,
        f"Var ratio N=100/N=400 = {ratio:.1f} (target 16, within [6.4, 40]); "
        f"divergence slope {growth.slope:.3f} (target 1.0 +/- 0.4)",
    )


def test_criterion_10_blip_ordering_across_algebras():
    details = []
    ok = True
    for algebra, seed in (("real", 4), ("complex", 4), ("quaternion", 1)):
        target = float(hollow_moment_oracle(2, 4, algebra))  # 3, 2 and 3/2
        m4 = _blip_moments(seed=seed, algebra=algebra)[4]
        ok = ok and abs(m4 - target) <= 0.5
        details.append(f"{algebra} m4={m4:.3f} (target {target} +/- 0.5)")
    _verdict(10, "fourth-moment ordering across algebras", ok, "; ".join(details))


def test_criterion_11_byte_identical_reruns(tmp_path, monkeypatch):
    runs = {}
    for threads, tag in (("1", "a"), ("4", "b")):
        monkeypatch.setenv("CHECKERBOARD_THREADS", threads)
        out_blip = tmp_path / f"blip-{tag}"
        out_bulk = tmp_path / f"bulk-{tag}"
        assert cli_main(["blip", "--k", "2", "--N", "120", "--g", "8", "--seed", "5", "--out", str(out_blip)]) == 0
        assert cli_main(["bulk", "--k", "2", "--N", "100", "--trials", "10", "--seed", "5", "--out", str(out_bulk)]) == 0
        runs[tag] = {
            f"{d.name}/{f.name}": f.read_bytes()
            for d in (out_blip, out_bulk)
            for f in sorted(d.iterdir())
            if f.suffix == ".csv"
        }
    identical = runs["a"] == {k.replace("-b/", "-a/"): v for k, v in runs["b"].items()}
    names = {k.split("/")[1] for k in runs["a"]}
    _verdict(11, "byte-identical reruns across worker counts", identical, f"CSV files compared: {sorted(names)}")
