"""LAPACK's two-stage Hermitian eigenvalue solver, from the OpenBLAS numpy has loaded.

`numpy.linalg.eigvalsh` always calls the one-stage `zheevd`.  The two-stage
`zheevd_2stage` (dense to band with level-3 kernels, then bulge chasing to
tridiagonal; Haidar, Ltaief & Dongarra, SC'11) is faster on large complex
grids, and the ILP64 OpenBLAS inside numpy's wheels exports it through
LAPACKE.  `spectra` sends a single complex grid of order at least
`TWO_STAGE_MIN_ORDER` to `eigvalsh_upper`, which hands the solver only the
triangle it reads, and everything else to numpy.  Where the solver is not
found (another platform, MKL, an LP64 build), numpy solves every grid.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import mmap
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


def copy_upper(grid: np.ndarray, out: np.ndarray) -> None:
    """Copy the C-order upper triangle of a square grid, diagonal included, into `out`, one row at a time."""
    for i in range(len(grid)):
        out[i, i:] = grid[i, i:]


def eigvalsh_upper(order: int, write_upper) -> np.ndarray:
    """Ascending eigenvalues, by `zheevd_2stage`, of the Hermitian grid whose upper triangle `write_upper(out)` writes.

    `out` is a fresh (order, order) complex array in private anonymous
    memory, and `write_upper` fills its C-order upper triangle, diagonal
    included: the triangle LAPACK reads, as it reads a C-order array column
    by column with uplo 'L', and so solves conj(grid), which has the same
    spectrum.  Pages of the other triangle that nothing touches never become
    resident.  LAPACK overwrites the buffer, which is unmapped when this
    returns.  The eigenvalues agree with numpy's to rounding, not bit for
    bit.  A nonzero LAPACK info is raised as `numpy.linalg.LinAlgError`, as
    numpy raises it.
    """
    solver = two_stage_solver()
    buffer = mmap.mmap(-1, order * order * np.dtype(complex).itemsize, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):  # a transparent huge page would make whole 2 MiB runs of rows resident
        buffer.madvise(mmap.MADV_NOHUGEPAGE)
    work = np.frombuffer(buffer, dtype=complex).reshape(order, order)
    write_upper(work)
    vals = np.empty(order)
    info = solver(_COL_MAJOR, b"N", b"L", order, work.ctypes.data, order, vals.ctypes.data)
    if info != 0:
        raise np.linalg.LinAlgError(f"zheevd_2stage returned info={info}")
    return vals
