"""Moment computations: empirical, closed-form, and exact-enumeration oracles.

The centered limit of the blip measure's m-th moment equals the m-th spectral
moment of the k x k hollow Gaussian ensemble, (1/k) E tr B^m.  That
expectation is computed exactly, for real, complex and quaternion entries, by
one walker over the closed index walks of tr B^m, labelled in order of first
visit; quaternion walks run over the 2k x 2k complex embedding.  A per-algebra
rule scores each walk by its Gaussian pairing count.  The per-matrix binomial
trace expansion takes its traces of matrix powers in exact integer arithmetic,
after scaling the dyadic float entries by a common power of two.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .algebra import DivisionAlgebra, HermitianMatrix, embed_quaternion_blocks
from .ensembles import HollowParams, sample_hollow_batch
from .exceptions import EnumerationBudgetError, ParameterError
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


# Per-algebra Wick rules.  A step from block I to block J != I, leaving row
# parity s for column parity t, reads one slot of edge {I, J} with a sign:
# steps[I < J][s] lists the (t, slot, sign) choices.  Real and complex walks
# have one parity; quaternion walks run over the 2k x 2k embedding, whose
# blocks hold commuting complex Gaussians.  deficit(counts): how many more
# reads an edge needs before it can be fully paired; score(counts): the number
# of such pairings of a balanced edge.
_WICK_RULES = {
    DivisionAlgebra.REAL: (
        ((((0, 0, 1),),), (((0, 0, 1),),)),  # I > J, I < J: one parity, one slot
        lambda c: c[0] & 1,
        lambda c: math.prod(range(c[0] - 1, 0, -2)),
    ),
    DivisionAlgebra.COMPLEX: (
        ((((0, 1, 1),),), (((0, 0, 1),),)),  # slot z read low-to-high, conj(z) high-to-low
        lambda c: abs(c[0] - c[1]),
        lambda c: math.factorial(c[0]),
    ),
    DivisionAlgebra.QUATERNION: (
        # slots a, conj(a), b, conj(b) of q = a + b j on edge {I < J}: embed_quaternion_blocks
        # puts [[a, b], [-conj(b), conj(a)]] at (I, J) and [[conj(a), -b], [conj(b), a]] at (J, I)
        (
            (((0, 1, 1), (1, 2, -1)), ((0, 3, 1), (1, 0, 1))),  # I > J, from parity 0 and from parity 1
            (((0, 0, 1), (1, 2, 1)), ((0, 3, -1), (1, 1, 1))),  # I < J
        ),
        lambda c: abs(c[0] - c[1]) + abs(c[2] - c[3]),
        lambda c: math.factorial(c[0]) * math.factorial(c[2]),
    ),
}


@lru_cache(maxsize=None)
def _exact_hollow_trace_moment(k: int, m: int, algebra: DivisionAlgebra) -> Fraction:
    """E tr B^m over the k x k hollow GOE, GUE or GSE, exactly.

    Sums over closed walks of length m with no self-loops; a walk scores its
    sign times the number of ways to pair each entry read with an equal one
    (real: the same unordered index pair, (c-1)!! per edge read c times) or
    with its conjugate (complex and quaternion slots: p! per slot read p times
    each way).  Scores depend only on the walk's equality pattern, so blocks
    are labelled in order of first visit and each new label stands for the
    k - used unvisited indices.  Walks start and close at parity 0: both rows
    of a diagonal block carry the same diagonal entry of B^m.
    """
    if m % 2:
        return Fraction(0)  # the deficits sum to m mod 2, so some edge stays unpaired
    steps, deficit, score = _WICK_RULES[algebra]
    closing = tuple(tuple(moves[:1] for moves in side) for side in steps)  # to parity 0, listed first
    counts: dict = defaultdict(lambda: [0, 0, 0, 0])  # (low, high) -> reads per slot

    def walk(pos: int, prev: int, parity: int, used: int, short: int) -> int:
        remaining = m - pos
        if remaining == 0:
            return math.prod(score(c) for c in counts.values())
        acc = 0
        table = steps if remaining > 1 else closing
        for nxt in range(min(used + 1, k)) if remaining > 1 else (0,):  # the last step closes the walk
            if nxt == prev:
                continue
            c = counts[(prev, nxt) if prev < nxt else (nxt, prev)]
            for t, slot, sign in table[prev < nxt][parity]:
                before = deficit(c)
                c[slot] += 1
                after = short - before + deficit(c)
                if after < remaining:  # each later step closes at most one unit of deficit
                    branch = walk(pos + 1, nxt, t, used + (nxt == used), after)
                    acc += sign * (branch if nxt < used else (k - used) * branch)
                c[slot] -= 1  # an unread edge has deficit 0 and scores 1
        return acc

    # the unit entry variance E|q|^2 splits evenly over the parities' slot pairs
    return k * walk(0, 0, 0, 1, 0) * Fraction(1, len(steps[0])) ** (m // 2)


@dataclass(frozen=True)
class OracleResult:
    """Value of (1/k) E tr B^m over a hollow Gaussian ensemble."""

    k: int
    m: int
    algebra: DivisionAlgebra
    value: float
    exact: Fraction


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


def hollow_moment_oracle(k: int, m: int, algebra: "DivisionAlgebra | str" = DivisionAlgebra.REAL) -> OracleResult:
    """(1/k) E tr B^m by exact Wick enumeration, for real, complex and quaternion entries."""
    algebra = DivisionAlgebra.parse(algebra)
    if k < 1 or m < 0:
        raise ParameterError(f"need k >= 1 and m >= 0, got k={k}, m={m}")
    walks = (k * len(_WICK_RULES[algebra][0][0])) ** m  # on the k x k matrix, or its 2k x 2k embedding
    if walks > ENUMERATION_BUDGET and m % 2 == 0:  # odd orders are exactly 0 without a walk
        raise EnumerationBudgetError(
            f"enumeration of {walks} index walks exceeds the {ENUMERATION_BUDGET} budget; "
            "sample instead with the hollow command or monte_carlo_hollow_moment"
        )
    exact = _exact_hollow_trace_moment(k, m, algebra) / k
    return OracleResult(k, m, algebra, float(exact), exact)


def blip_limit_moment(
    k: int, m: int, algebra: "DivisionAlgebra | str" = DivisionAlgebra.REAL, centered: bool = True
) -> float:
    """Limiting m-th moment of the blip measure.

    Centered (about the mean k - 1) it equals the hollow-ensemble moment
    (1/k) E tr B^m; uncentered it is the binomial mixture
    (1/k) sum_j C(m, j) (k-1)^(m-j) E tr B^j.
    """
    algebra = DivisionAlgebra.parse(algebra)
    if centered:
        return float(hollow_moment_oracle(k, m, algebra).exact)
    total = sum(math.comb(m, j) * (k - 1) ** (m - j) * hollow_moment_oracle(k, j, algebra).exact for j in range(m + 1))
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


def trace_expansion_blip_moment(matrix: HermitianMatrix, k: int, cfg: BlipConfig, m: int) -> float:
    """m-th blip moment of one fixed matrix via the binomial trace expansion.

    Algebraically identical to the directly weighted spectral moment
    sum f_n(k*lambda/N) (lambda - N/k)^m / k, but evaluated from traces of
    matrix powers.  The alternating sum cancels terms of size (N/k)^m down to
    an O(1) result, so it is taken in exact rational arithmetic.
    """
    dim = matrix.dim
    cfg.check_dimension(dim, k)
    if m < 0 or m > MAX_MOMENT:
        raise ParameterError(f"need 0 <= m <= {MAX_MOMENT}, got {m}")
    if dim > 16 or cfg.n > 3:
        raise ParameterError(f"desk-scale evaluation requires dim <= 16 and n <= 3, got dim={dim}, n={cfg.n}")
    two_n = 2 * cfg.n
    traces = _exact_power_traces(matrix, 2 * two_n + m)
    base = Fraction(-dim, k)
    acc = Fraction(0)
    for j in range(two_n + 1):
        outer = math.comb(two_n, j)
        for i in range(m + j + 1):
            acc += outer * math.comb(m + j, i) * base ** (m - i) * traces[two_n + i]
    return float(acc * Fraction(k, dim) ** two_n / k)
