"""Moment computations: empirical, closed-form, and exact-enumeration oracles.

The centered limit of the blip measure's m-th moment equals the m-th spectral
moment of the k x k hollow Gaussian ensemble, (1/k) E tr B^m.  That
expectation is computed exactly, for real, complex and quaternion entries, by
one walker over the closed index walks of tr B^m, labelled in order of first
visit and memoized on edge-count states; quaternion walks run over the 2k x 2k
complex embedding.  A per-algebra rule scores each walk by its pairing count.
The per-matrix binomial trace expansion takes every order from one table of
exact integer traces of matrix powers, after scaling the dyadic float entries
by a common power of two.  The sampling counterpart of the oracle,
`hollow_moments`, averages the same traces over sampled hollow spectra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._parallel import parallel_rows
from .algebra import DivisionAlgebra, HermitianMatrix, embed_quaternion_blocks
from .ensembles import _check_modulus
from .exceptions import EnumerationBudgetError, ParameterError
from .spectra import AtomicMeasure, BlipConfig

__all__ = [
    "MAX_MOMENT",
    "MomentVector",
    "measure_moments",
    "average_trial_moments",
    "hollow_moments",
    "catalan",
    "semicircle_moment",
    "alternating_binomial_sum",
    "hollow_moment_oracle",
    "trace_expansion_blip_moments",
]

MAX_MOMENT = 32
ENUMERATION_BUDGET = 10**8
_TRIAL_BLOCK_ROWS = 1_024


@dataclass(frozen=True)
class MomentVector:
    """Moments m = 0..M, with standard errors across trials where there are several."""

    values: np.ndarray
    standard_errors: "np.ndarray | None" = None

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=float))
        if self.standard_errors is not None:
            object.__setattr__(self, "standard_errors", np.asarray(self.standard_errors, dtype=float))

    def __getitem__(self, m: int) -> float:
        return float(self.values[m])


def _check_max_m(max_m: int) -> None:
    if not 0 <= max_m <= MAX_MOMENT:
        raise ParameterError(f"moment order cap is {MAX_MOMENT}, got {max_m}")


def _check_desk_scale(dim: int, n: int) -> None:
    if dim > 16 or n > 3:
        raise ParameterError(f"desk-scale evaluation requires dim <= 16 and n <= 3, got dim={dim}, n={n}")


def _trial_mean(table: np.ndarray) -> MomentVector:
    """Mean of a (trials, orders) table, with standard errors across its rows (None for one row).

    The bits are those of `table.mean(axis=0)` and `table.std(axis=0, ddof=1) / sqrt(trials)`,
    but no table-sized temporary is made.
    """
    trials = len(table)
    mean = table.sum(axis=0) / trials
    if trials == 1:
        return MomentVector(mean)
    # numpy sums axis 0 of a C-ordered table of two or more columns row after row, so carrying each block's
    # sum in as the first row of the next adds the same numbers in the same order; one column it sums pairwise,
    # so that table is one block
    rows = _TRIAL_BLOCK_ROWS if table.shape[1] > 1 else trials
    squares = np.square(table[:rows] - mean).sum(axis=0)
    for start in range(rows, trials, rows):
        squares = np.vstack([squares, np.square(table[start : start + rows] - mean)]).sum(axis=0)
    return MomentVector(mean, np.sqrt(squares / (trials - 1)) / math.sqrt(trials))


def measure_moments(measure: AtomicMeasure, max_m: int, center: "float | None" = None) -> MomentVector:
    """values[m] = sum_i weight_i * (location_i - center)^m for m = 0..max_m."""
    _check_max_m(max_m)
    c = 0.0 if center is None else float(center)
    shifted = measure.locations - c
    powers = shifted[None, :] ** np.arange(max_m + 1)[:, None]
    return MomentVector(powers @ measure.weights)


def average_trial_moments(measures, max_m: int, center: "float | None" = None) -> MomentVector:
    """Mean of per-trial moment vectors with standard errors across trials."""
    table = np.array([measure_moments(m, max_m, center).values for m in measures])
    if table.shape[0] == 0:
        raise ParameterError("need at least one measure")
    return _trial_mean(table)


def hollow_moments(eigs: np.ndarray, max_m: int) -> MomentVector:
    """(1/k) tr B^m for m = 0..max_m, averaged over the sampled spectra of a hollow batch.

    `eigs` has one row of k eigenvalues per trial, as `hollow_eigenvalues`
    returns them; the traces are taken a chunk of trials at a time on the
    trial pool, into one shared table.  Standard errors are across trials,
    None for one trial.
    """
    _check_max_m(max_m)
    trials, k = eigs.shape
    powers = np.arange(max_m + 1)[None, :, None]

    def traces(start: int, stop: int) -> np.ndarray:  # (1/k) tr B^m per trial, m = 0..max_m
        return (eigs[start:stop, None, :] ** powers).sum(axis=2) / k

    return _trial_mean(parallel_rows(trials, max_m + 1, _TRIAL_BLOCK_ROWS, traces))


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
    of a diagonal block carry the same diagonal entry of B^m.  The sum over a
    walk's continuations depends only on its state (position, vertex, parity,
    labels used and per-edge slot reads), so each state is walked once.
    """
    if m % 2:
        return Fraction(0)  # the deficits sum to m mod 2, so some edge stays unpaired
    steps, deficit, score = _WICK_RULES[algebra]
    closing = tuple(tuple(moves[:1] for moves in side) for side in steps)  # to parity 0, listed first
    width = 1 + max(slot for side in steps for moves in side for _, slot, _ in moves)
    # one byte per slot (m <= 26) of each edge {low < high} among the min(k, m) labels a walk can reach,
    # read through the view cells[high(high-1)/2 + low]; each state's key holds a copy of all the reads
    reads = bytearray(min(k, m) * (min(k, m) - 1) // 2 * width)
    cells = [memoryview(reads)[i : i + width] for i in range(0, len(reads), width)]
    memo: dict = {}  # state -> sum over its continuations

    def walk(pos: int, prev: int, parity: int, used: int, short: int) -> int:
        remaining = m - pos
        if remaining == 0:
            return math.prod(score(c) for c in cells)
        key = (pos, prev, parity, used, bytes(reads))  # short, the total deficit, follows from the reads
        if key in memo:
            return memo[key]
        acc = 0
        table = steps if remaining > 1 else closing
        for nxt in range(min(used + 1, k)) if remaining > 1 else (0,):  # the last step closes the walk
            if nxt == prev:
                continue
            c = cells[nxt * (nxt - 1) // 2 + prev if prev < nxt else prev * (prev - 1) // 2 + nxt]
            for t, slot, sign in table[prev < nxt][parity]:
                before = deficit(c)
                c[slot] += 1
                after = short - before + deficit(c)
                if after < remaining:  # each later step closes at most one unit of deficit
                    branch = walk(pos + 1, nxt, t, used + (nxt == used), after)
                    acc += sign * (branch if nxt < used else (k - used) * branch)
                c[slot] -= 1  # an unread edge has deficit 0 and scores 1
        memo[key] = acc
        return acc

    total = walk(0, 0, 0, 1, 0)
    memo.clear()  # walk refers to itself, so without this the memo lives until the cycle collector runs
    # the unit entry variance E|q|^2 splits evenly over the parities' slot pairs
    return k * total * Fraction(1, len(steps[0])) ** (m // 2)


def hollow_moment_oracle(k: int, m: int, algebra: "DivisionAlgebra | str" = DivisionAlgebra.REAL) -> Fraction:
    """(1/k) E tr B^m by exact Wick enumeration, for real, complex and quaternion entries."""
    algebra = DivisionAlgebra.parse(algebra)
    if k < 1 or m < 0:
        raise ParameterError(f"need k >= 1 and m >= 0, got k={k}, m={m}")
    walks = (k * len(_WICK_RULES[algebra][0][0])) ** m  # on the k x k matrix, or its 2k x 2k embedding
    if walks > ENUMERATION_BUDGET and m % 2 == 0:  # odd orders are exactly 0 without a walk
        raise EnumerationBudgetError(
            f"enumeration of {walks} index walks exceeds the {ENUMERATION_BUDGET} budget; "
            "sample instead with the hollow command or hollow_moments"
        )
    return _exact_hollow_trace_moment(k, m, algebra) / k


# ---------------------------------------------------------------------------
# Exact per-matrix evaluation of the binomial trace expansion.
# ---------------------------------------------------------------------------


def _product(a: tuple, b: tuple) -> tuple:
    """The product of two exact matrices, each its (real, imaginary) parts or, when real, (real,) alone."""
    if len(a) == 1:
        return (a[0] @ b[0],)
    (a_re, a_im), (b_re, b_im) = a, b
    return (a_re @ b_re - a_im @ b_im, a_re @ b_im + a_im @ b_re)


def _exact_power_traces(matrix: HermitianMatrix, max_power: int) -> list:
    """[tr A^0, ..., tr A^max_power] exactly, as Fractions.

    Quaternion matrices go through their complex embedding, which doubles the
    trace.  Floats are dyadic rationals, so one common factor 2^e turns the
    real and imaginary parts (a real grid has no imaginary part to carry)
    into Python ints; the powers A^0..A^ceil(P/2) are then exact integer
    matrix products, and tr A^p is the real part of the entrywise sum
    sum_ij (A^ceil(p/2))_ij (A^floor(p/2))_ji, which takes no further product.
    """
    quaternion = matrix.algebra is DivisionAlgebra.QUATERNION
    grid = embed_quaternion_blocks(matrix.data) if quaternion else matrix.data
    ratios = [
        [x.as_integer_ratio() for x in part.ravel().tolist()]
        for part in ((grid.real, grid.imag) if np.iscomplexobj(grid) else (grid,))
    ]
    e = max(den.bit_length() - 1 for part in ratios for _, den in part)
    base = tuple(
        np.array([num << (e + 1 - den.bit_length()) for num, den in part], dtype=object).reshape(grid.shape)
        for part in ratios
    )
    identity = np.identity(len(grid), dtype=int).astype(object)
    powers = [(identity, *(np.zeros_like(identity) for _ in base[1:])), base]
    while len(powers) <= (max_power + 1) // 2:
        powers.append(_product(powers[-1], base))
    traces = []
    for p in range(max_power + 1):
        a, b = powers[(p + 1) // 2], powers[p // 2]
        trace = (a[0] * b[0].T).sum() - sum((x * y.T).sum() for x, y in zip(a[1:], b[1:]))  # real part of tr A^p
        traces.append(Fraction(int(trace), (2 if quaternion else 1) << (e * p)))
    return traces


def trace_expansion_blip_moments(matrix: HermitianMatrix, k: int, cfg: BlipConfig, max_m: int) -> list:
    """Blip moments m = 0..max_m of one fixed matrix via the binomial trace expansion.

    Algebraically identical to the directly weighted spectral moments
    sum f_n(k*lambda/N) (lambda - N/k)^m / k, but evaluated from traces of
    matrix powers, one table for every order.  The alternating sum cancels
    terms of size (N/k)^m down to an O(1) result, so it is taken in exact
    rational arithmetic.
    """
    dim = matrix.dim
    _check_modulus(dim, k)
    _check_max_m(max_m)
    _check_desk_scale(dim, cfg.n)
    two_n = 2 * cfg.n
    traces = _exact_power_traces(matrix, 2 * two_n + max_m)
    base = Fraction(-dim, k)
    moments = []
    for m in range(max_m + 1):
        acc = Fraction(0)
        for j in range(two_n + 1):
            outer = math.comb(two_n, j)
            for i in range(m + j + 1):
                acc += outer * math.comb(m + j, i) * base ** (m - i) * traces[two_n + i]
        moments.append(float(acc * Fraction(k, dim) ** two_n / k))
    return moments
