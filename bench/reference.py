"""Reference values the output checks compare against, computed without the package.

Nothing here imports checkerboard_rmt: eigenvalues come from numpy's eigvalsh
on the benchmark's own complex embedding, the blip window is evaluated as a
plain power, and exact hollow moments come from closed forms or from a table
frozen from the seed implementation.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np

_TABLE = Path(__file__).with_name("hollow_moments.json")


def embed(data: np.ndarray) -> np.ndarray:
    """Quaternion grid (N, N, 4) -> complex [[A, B], [-conj B, conj A]] with q = A + B j."""
    a = data[..., 0] + 1j * data[..., 1]
    b = data[..., 2] + 1j * data[..., 3]
    return np.block([[a, b], [-b.conj(), a.conj()]])


def eigenvalues(data: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a self-adjoint real, complex or quaternion grid."""
    if data.ndim == 3:
        doubled = np.linalg.eigvalsh(embed(data))
        if not np.allclose(doubled[0::2], doubled[1::2], rtol=1e-8, atol=1e-8 * np.abs(doubled).max()):
            raise ValueError("embedded quaternion spectrum is not doubled")
        return doubled[0::2]
    return np.linalg.eigvalsh(data)


def window(x: np.ndarray, n: int) -> np.ndarray:
    """The blip window polynomial x^(2n) (x - 2)^(2n)."""
    return (x * (x - 2.0)) ** (2 * n)


def blip_moments(eigs: np.ndarray, k: int, n: int, center: float, max_m: int) -> tuple:
    """Blip-measure moments about `center` of one spectrum, and their absolute-moment scale."""
    dim = eigs.size
    weights = window(k * eigs / dim, n) / k
    x = eigs - dim / k - center
    powers = x[None, :] ** np.arange(max_m + 1)[:, None]
    return powers @ weights, np.abs(powers) @ weights


def window_count(eigs: np.ndarray, k: int) -> int:
    """Eigenvalues with k*lambda/N within 1/4 of 1, the outlier location N*w/k for w = 1."""
    return int(np.count_nonzero(np.abs(k * eigs / eigs.size - 1.0) < 0.25))


def hollow_moment(k: int, m: int, algebra: str) -> Fraction:
    """(1/k) E tr B^m of the k x k hollow GOE/GUE: closed forms, else the frozen seed table.

    Closed forms: m = 0 gives 1; odd m gives 0; m = 2 gives k - 1; at k = 2 the
    spectrum is +/- a single entry, so real gives (m-1)!! and complex (m/2)!.
    """
    if m == 0:
        return Fraction(1)
    if m % 2:
        return Fraction(0)
    if m == 2:
        return Fraction(k - 1)
    if k == 2:
        if algebra == "real":
            return Fraction(math.prod(range(m - 1, 0, -2)))
        return Fraction(math.factorial(m // 2))
    return Fraction(frozen_table()[algebra][str(k)][str(m)])


def frozen_table() -> dict:
    return json.loads(_TABLE.read_text())


def quaternion_hollow_moment(k: int, m: int) -> float:
    """(1/k) E tr B^m of the hollow GSE at the points the exact workload uses.

    At k = 2 the value is (m/2 + 1)! / 2^(m/2).  At k = 3, m = 4, counting the
    closed walks of length 4 that use one edge four times (E|b|^4 = 3/2 for a
    unit quaternion Gaussian) or two edges twice each gives
    (3/2)(k-1) + 2(k-1)(k-2) = 7.
    """
    if k == 2 and m % 2 == 0:
        return math.factorial(m // 2 + 1) / 2 ** (m // 2)
    if (k, m) == (3, 4):
        return 7.0
    raise ValueError(f"no quaternion reference for k={k}, m={m}")
