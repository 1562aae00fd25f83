"""LAPACK's two-stage Hermitian eigenvalue solver, from the OpenBLAS numpy has loaded.

`numpy.linalg.eigvalsh` always calls the one-stage `zheevd`.  The two-stage
`zheevd_2stage` (dense to band with level-3 kernels, then bulge chasing to
tridiagonal; Haidar, Ltaief & Dongarra, SC'11) is faster on large complex
grids, and the ILP64 OpenBLAS inside numpy's wheels exports it through
LAPACKE.  `eigvalsh` sends a single complex grid of order at least
`TWO_STAGE_MIN_ORDER` there and everything else to numpy.  Where the solver
is not found (another platform, MKL, an LP64 build), numpy solves every grid.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os

import numpy as np

# The smallest order at which zheevd_2stage beat numpy's zheevd in at least 9 of 10 alternating solves of a
# complex grid at one BLAS thread, pooled over three runs (57 of 62 at 416, about 3 of 4 at 400).  Its median time
# ratio to zheevd was 1.09 at order 256, 0.91 at 416 and 0.66 at 1200.  Real grids stay on numpy's dsyevd, which
# beat dsyevd_2stage at order 600.
TWO_STAGE_MIN_ORDER = 416

# Only the ILP64 names, whose lapack_int is 64 bits wide; an LP64 build exports neither.
_SYMBOLS = ("scipy_LAPACKE_zheevd_2stage64_", "LAPACKE_zheevd_2stage64_")
_COL_MAJOR = 102  # LAPACK_COL_MAJOR: LAPACKE hands the array to LAPACK as it is, with no transposed copy


@functools.cache
def two_stage_solver():
    """LAPACKE's `zheevd_2stage` from the OpenBLAS numpy has already mapped, or None.

    Bound at the first large solve and kept.  A library is opened only if it
    is loaded already (RTLD_NOLOAD), so a second BLAS is never loaded.
    """
    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:
        return None
    # numpy's Linux wheels keep their OpenBLAS in numpy.libs beside the package, its macOS wheels in numpy/.dylibs
    package = os.path.dirname(np.__file__)
    paths = glob.glob(os.path.join(package, os.pardir, "numpy.libs", "*openblas*"))
    paths += glob.glob(os.path.join(package, ".dylibs", "*openblas*"))
    for path in paths:
        try:
            library = ctypes.CDLL(path, mode=noload)
        except OSError:  # not mapped into this process
            continue
        for name in _SYMBOLS:
            try:
                solver = getattr(library, name)
            except AttributeError:
                continue
            # (layout, jobz, uplo, n, a, lda, w) -> info
            solver.argtypes = (ctypes.c_int, ctypes.c_char, ctypes.c_char, ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64, ctypes.c_void_p)
            solver.restype = ctypes.c_int64
            return solver
    return None


def eigvalsh(grid: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a Hermitian grid, or of each grid in a stack, as `numpy.linalg.eigvalsh` gives them.

    A single complex grid of order at least `TWO_STAGE_MIN_ORDER` is solved by
    `zheevd_2stage` where `two_stage_solver` finds it.  Its eigenvalues agree
    with numpy's to rounding, not bit for bit.  A nonzero LAPACK info is
    raised as `numpy.linalg.LinAlgError`, as numpy raises it.
    """
    large = grid.ndim == 2 and grid.dtype == np.complex128 and len(grid) >= TWO_STAGE_MIN_ORDER
    solver = two_stage_solver() if large else None
    if solver is None:
        return np.linalg.eigvalsh(grid)
    order = len(grid)
    # LAPACK overwrites its input.  It reads this C-order copy column by column, so it solves the
    # transpose, conj(grid), which has the same spectrum.
    work = np.array(grid, order="C")
    vals = np.empty(order)
    info = solver(_COL_MAJOR, b"N", b"L", order, work.ctypes.data, order, vals.ctypes.data)
    if info != 0:
        raise np.linalg.LinAlgError(f"zheevd_2stage returned info={info}")
    return vals
