"""Moment computations: empirical, closed-form, and exact-enumeration oracles.

The centered limit of the blip measure's m-th moment equals the m-th spectral
moment of the k x k hollow Gaussian ensemble, (1/k) E tr B^m.  For real and
complex entries that expectation is computed exactly by one walker over the
closed index walks of tr B^m, labelled in order of first visit; a per-algebra
rule scores each walk by its Gaussian pairing count.  For quaternions the
oracle falls back to Monte Carlo.  The per-matrix binomial trace expansion
takes its traces of matrix powers in exact integer arithmetic, after scaling
the dyadic float entries by a common power of two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .algebra import DivisionAlgebra, HermitianMatrix, embed_quaternion_blocks
from .ensembles import HollowParams, sample_hollow_batch
from .exceptions import EnumerationBudgetError, ParameterError, PrecisionLossError
from .spectra import AtomicMeasure, BlipConfig

__all__ = [
    "MAX_MOMENT",
    "MomentVector",
    "OracleResult",
    "measure_moments",
    "average_trial_moments",
    "catalan",
    "semicircle_moment",
    "alternating_binomial_sum",
    "hollow_moment_oracle",
    "monte_carlo_hollow_moment",
    "blip_limit_moment",
    "trace_expansion_blip_moment",
]

MAX_MOMENT = 32
ENUMERATION_BUDGET = 10**8
_MC_CHUNK = 32768


@dataclass(frozen=True)
class MomentVector:
    """Moments m = 0..M of a measure about a fixed center."""

    values: np.ndarray
    standard_errors: "np.ndarray | None" = None
    center: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.standard_errors is not None:
            object.__setattr__(self, "standard_errors", np.asarray(self.standard_errors, dtype=float))

    @property
    def centered(self) -> bool:
        return self.center != 0.0

    def __getitem__(self, m: int) -> float:
        return float(self.values[m])


def _check_max_m(max_m: int) -> None:
    if not 0 <= max_m <= MAX_MOMENT:
        raise ParameterError(f"moment order cap is {MAX_MOMENT}, got {max_m}")


def measure_moments(measure: AtomicMeasure, max_m: int, center: "float | None" = None) -> MomentVector:
    """values[m] = sum_i weight_i * (location_i - center)^m for m = 0..max_m."""
    _check_max_m(max_m)
    c = 0.0 if center is None else float(center)
    shifted = measure.locations - c
    powers = shifted[None, :] ** np.arange(max_m + 1)[:, None]
    return MomentVector(powers @ measure.weights, None, center=c)


def average_trial_moments(measures, max_m: int, center: "float | None" = None) -> MomentVector:
    """Mean of per-trial moment vectors with standard errors across trials."""
    table = np.array([measure_moments(m, max_m, center).values for m in measures])
    if table.shape[0] == 0:
        raise ParameterError("need at least one measure")
    mean = table.mean(axis=0)
    stderr = table.std(axis=0, ddof=1) / math.sqrt(table.shape[0]) if table.shape[0] > 1 else None
    return MomentVector(mean, stderr, center=0.0 if center is None else float(center))


def catalan(n: int) -> int:
    """The n-th Catalan number."""
    if n < 0:
        raise ParameterError(f"need n >= 0, got {n}")
    return math.comb(2 * n, n) // (n + 1)


def semicircle_moment(ell: int, k: int) -> Fraction:
    """Exact moment of the limiting bulk distribution: Catalan number times ((k-1)/k)^(ell/2).

    The limit is the semicircle of radius 2*sqrt(1 - 1/k); odd moments vanish.
    """
    if ell < 0:
        raise ParameterError(f"need ell >= 0, got {ell}")
    if k < 1:
        raise ParameterError(f"need k >= 1, got {k}")
    if ell % 2:
        return Fraction(0)
    half = ell // 2
    return catalan(half) * Fraction(k - 1, k) ** half


def alternating_binomial_sum(m: int, p: int) -> int:
    """sum_j (-1)^j C(m, j) j^p, exactly, with the convention 0^0 = 1.

    Vanishes for p < m and equals (-1)^m m! at p = m.
    """
    if not 0 <= p <= m <= 64:
        raise ParameterError(f"need 0 <= p <= m <= 64, got m={m}, p={p}")
    return sum((-1) ** j * math.comb(m, j) * j**p for j in range(m + 1))


# ---------------------------------------------------------------------------
# Exact hollow-ensemble trace moments by walk enumeration.
# ---------------------------------------------------------------------------


# Per-edge Wick rules, keyed by algebra, on an edge's traversal counts
# (f low-to-high, b high-to-low).  deficit: how many more traversals the edge
# needs before it can be fully paired; score: the number of such pairings.
_WICK_RULES = {
    DivisionAlgebra.REAL: (
        lambda f, b: (f + b) & 1,
        lambda f, b: 0 if (f + b) & 1 else math.prod(range(f + b - 1, 0, -2)),
    ),
    DivisionAlgebra.COMPLEX: (
        lambda f, b: abs(f - b),
        lambda f, b: math.factorial(f) if f == b else 0,
    ),
}


@lru_cache(maxsize=None)
def _exact_hollow_trace_moment(k: int, m: int, algebra: DivisionAlgebra) -> int:
    """E tr B^m over the k x k hollow GOE or GUE, as an exact integer.

    Sums over closed index walks of length m with no self-loops; a walk scores
    the number of ways to pair each entry with an equal one (real: the same
    unordered index pair, (c-1)!! per edge traversed c times) or with its
    conjugate (complex: p! per edge traversed p times each way).  Scores depend
    only on the walk's equality pattern, so vertices are labelled in order of
    first visit and each new label stands for the k - used unvisited indices.
    """
    if m % 2:
        return 0  # the deficits sum to m mod 2, so some edge stays unpaired
    deficit, score = _WICK_RULES[algebra]
    counts: dict = {}  # (low, high) -> (forward, backward) traversal counts

    def walk(pos: int, prev: int, used: int, short: int) -> int:
        remaining = m - pos
        if remaining == 0:
            return math.prod(score(f, b) for f, b in counts.values())
        acc = 0
        for nxt in range(min(used + 1, k)) if remaining > 1 else (0,):  # the last step closes the walk
            if nxt == prev:
                continue
            edge = (prev, nxt) if prev < nxt else (nxt, prev)
            old = counts.get(edge, (0, 0))
            new = (old[0] + 1, old[1]) if prev < nxt else (old[0], old[1] + 1)
            after = short - deficit(*old) + deficit(*new)
            if after >= remaining:
                continue  # each later step closes at most one unit of deficit
            counts[edge] = new
            branch = walk(pos + 1, nxt, used + (nxt == used), after)
            acc += branch if nxt < used else (k - used) * branch
            counts[edge] = old  # an untraversed (0, 0) edge has deficit 0 and scores 1
        return acc

    return k * walk(0, 0, 1, 0)


@dataclass(frozen=True)
class OracleResult:
    """Value of (1/k) E tr B^m over a hollow Gaussian ensemble."""

    k: int
    m: int
    algebra: DivisionAlgebra
    value: float
    method: str  # "wick-exact" or "monte-carlo"
    exact: "Fraction | None" = None
    stderr: "float | None" = None
    trials: "int | None" = None


def monte_carlo_hollow_moment(
    k: int, m: int, algebra: "DivisionAlgebra | str" = DivisionAlgebra.REAL, trials: int = 100_000, seed: int = 0
) -> tuple:
    """Monte Carlo estimate of (1/k) E tr B^m with its standard error."""
    algebra = DivisionAlgebra.parse(algebra)
    if m < 0:
        raise ParameterError(f"need m >= 0, got {m}")
    if trials < 2:
        raise ParameterError(f"need at least 2 trials, got {trials}")
    if m == 0:
        return 1.0, 0.0
    params = HollowParams(k, algebra, seed)
    samples = np.empty(trials)
    filled = 0
    chunk_index = 0
    while filled < trials:
        take = min(_MC_CHUNK, trials - filled)
        batch = sample_hollow_batch(params, take, batch_index=chunk_index)
        if algebra is DivisionAlgebra.QUATERNION:
            grid = embed_quaternion_blocks(batch)
            denominator = 2 * k  # the embedding doubles every eigenvalue
        else:
            grid = batch
            denominator = k
        power = grid
        for _ in range(m - 1):
            power = power @ grid
        samples[filled : filled + take] = np.einsum("tii->t", power).real / denominator
        filled += take
        chunk_index += 1
    return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(trials))


def hollow_moment_oracle(
    k: int,
    m: int,
    algebra: "DivisionAlgebra | str" = DivisionAlgebra.REAL,
    *,
    trials: int = 200_000,
    seed: int = 0,
) -> OracleResult:
    """(1/k) E tr B^m: exact Wick enumeration for real/complex, Monte Carlo for quaternion."""
    algebra = DivisionAlgebra.parse(algebra)
    if k < 1 or m < 0:
        raise ParameterError(f"need k >= 1 and m >= 0, got k={k}, m={m}")
    if algebra is DivisionAlgebra.QUATERNION:
        mean, stderr = monte_carlo_hollow_moment(k, m, algebra, trials=trials, seed=seed)
        return OracleResult(k, m, algebra, mean, "monte-carlo", stderr=stderr, trials=trials)
    if k**m > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"enumeration of k^m = {k**m} index walks exceeds the {ENUMERATION_BUDGET} budget; "
            "use monte_carlo_hollow_moment instead"
        )
    exact = Fraction(_exact_hollow_trace_moment(k, m, algebra), k)
    return OracleResult(k, m, algebra, float(exact), "wick-exact", exact=exact)


def blip_limit_moment(
    k: int,
    m: int,
    algebra: "DivisionAlgebra | str" = DivisionAlgebra.REAL,
    centered: bool = True,
    *,
    trials: int = 200_000,
    seed: int = 0,
) -> float:
    """Limiting m-th moment of the blip measure.

    Centered (about the mean k - 1) it equals the hollow-ensemble moment
    (1/k) E tr B^m; uncentered it is the binomial mixture
    (1/k) sum_j C(m, j) (k-1)^(m-j) E tr B^j.
    """
    algebra = DivisionAlgebra.parse(algebra)

    def oracle_value(order):
        res = hollow_moment_oracle(k, order, algebra, trials=trials, seed=seed)
        return res.exact if res.exact is not None else res.value

    if centered:
        return float(oracle_value(m))
    total = sum(math.comb(m, j) * (k - 1) ** (m - j) * oracle_value(j) for j in range(m + 1))
    return float(total)


# ---------------------------------------------------------------------------
# Exact per-matrix evaluation of the binomial trace expansion.
# ---------------------------------------------------------------------------


def _exact_power_traces(matrix: HermitianMatrix, max_power: int) -> list:
    """[tr A^0, ..., tr A^max_power] exactly, as Fractions.

    Quaternion matrices go through their complex embedding, which doubles the
    trace.  Floats are dyadic rationals, so one common factor 2^e turns the
    real and imaginary parts into Python ints; the powers are then exact
    integer matrix products.
    """
    quaternion = matrix.algebra is DivisionAlgebra.QUATERNION
    grid = embed_quaternion_blocks(matrix.data) if quaternion else matrix.data
    ratios = [[x.as_integer_ratio() for x in part.ravel().tolist()] for part in (grid.real, grid.imag)]
    e = max(den.bit_length() - 1 for part in ratios for _, den in part)
    re, im = (
        np.array([num << (e + 1 - den.bit_length()) for num, den in part], dtype=object).reshape(grid.shape)
        for part in ratios
    )
    scale = 2 if quaternion else 1
    traces = [Fraction(matrix.dim)]
    power_re, power_im = re, im
    for p in range(1, max_power + 1):
        if p > 1:
            power_re, power_im = power_re @ re - power_im @ im, power_re @ im + power_im @ re
        traces.append(Fraction(int(np.trace(power_re)), scale << (e * p)))
    return traces


def trace_expansion_blip_moment(
    matrix: HermitianMatrix, k: int, cfg: BlipConfig, m: int, *, exact: bool = True
) -> float:
    """m-th blip moment of one fixed matrix via the binomial trace expansion.

    Algebraically identical to the directly weighted spectral moment
    sum f_n(k*lambda/N) (lambda - N/k)^m / k, but evaluated from traces of
    matrix powers.  The alternating sum cancels terms of size (N/k)^m down to
    an O(1) result, so the default path uses exact rational arithmetic; the
    floating path raises PrecisionLossError past 1e12 relative cancellation.
    """
    dim = matrix.dim
    cfg.check_dimension(dim, k)
    if m < 0 or m > MAX_MOMENT:
        raise ParameterError(f"need 0 <= m <= {MAX_MOMENT}, got {m}")
    if dim > 16 or cfg.n > 3:
        raise ParameterError(f"desk-scale evaluation requires dim <= 16 and n <= 3, got dim={dim}, n={cfg.n}")
    two_n = 2 * cfg.n
    max_power = 2 * two_n + m
    if exact:
        traces = _exact_power_traces(matrix, max_power)
        base = Fraction(-dim, k)
        acc = Fraction(0)
        for j in range(two_n + 1):
            outer = math.comb(two_n, j)
            for i in range(m + j + 1):
                acc += outer * math.comb(m + j, i) * base ** (m - i) * traces[two_n + i]
        return float(acc * Fraction(k, dim) ** two_n / k)
    traces_f = [float(t) for t in _exact_power_traces(matrix, max_power)]
    base_f = -dim / k
    acc_f = 0.0
    max_term = 0.0
    for j in range(two_n + 1):
        outer = math.comb(two_n, j)
        for i in range(m + j + 1):
            term = outer * math.comb(m + j, i) * base_f ** (m - i) * traces_f[two_n + i]
            acc_f += term
            max_term = max(max_term, abs(term))
    result = acc_f * (k / dim) ** two_n / k
    if max_term > 0.0 and max_term > 1e12 * abs(acc_f):
        raise PrecisionLossError(
            f"cancellation of {max_term:.3e} down to {acc_f:.3e} exceeds 1e12; use the exact path"
        )
    return result
