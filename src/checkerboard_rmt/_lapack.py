"""LAPACK's two-stage Hermitian eigenvalue reduction, from the OpenBLAS numpy has loaded.

`numpy.linalg.eigvalsh` always calls the one-stage `zheevd`.  The two-stage
reduction (dense to band with level-3 kernels, then bulge chasing to
tridiagonal; Haidar, Ltaief & Dongarra, SC'11) is faster on large complex
grids, and the ILP64 OpenBLAS inside numpy's wheels exports its routines.
`spectra` sends a single complex grid of order at least `TWO_STAGE_MIN_ORDER`
that is not bipartite to `eigvalsh_upper`, which runs the three routines
`zheevd_2stage` runs for eigenvalues alone, `zhetrd_he2hb`, `zhetrd_hb2st`
and `dsterf`, on only the triangle LAPACK reads, and everything else to
numpy.  Where the routines are not found (another platform, MKL, an LP64
build), numpy solves every such grid.
"""

from __future__ import annotations

import collections
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

# The band width of stage 1.  zheevd_2stage takes 16 from ilaenv2stage at every order from 416 to 5000.  In
# alternating solves at one BLAS thread, 24 was the fastest of 16, 24, 32 and 40 at orders 600 and 1200 (8.5% faster
# than 16 at each), within 2% of 16 at 416, and 9% slower than 32 at 2000.
_BAND = 24

# The stages in the order they run, each with its count of arguments before INFO and of character flags.
# Only the ILP64 names (scipy_<name>_64_ or <name>_64_), whose integers are 64 bits wide; an LP64 build exports neither.
_STAGES = {"zhetrd_he2hb": (10, 1), "zhetrd_hb2st": (13, 3), "dsterf": (3, 0)}
Stages = collections.namedtuple("Stages", _STAGES)


def _fortran(function, arguments: int, flags: int):
    """`function(*args) -> INFO` for an ILP64 Fortran routine, each argument a bytes flag, an int or an array.

    Every argument goes by reference, then INFO, then the hidden lengths of
    the character flags, as gfortran passes them.
    """
    function.argtypes = (ctypes.c_void_p,) * (arguments + 1) + (ctypes.c_size_t,) * flags
    function.restype = None
    lengths = (1,) * flags

    def call(*args):
        held = [a if isinstance(a, np.ndarray) else np.array(a, dtype=None if isinstance(a, bytes) else np.int64) for a in args]
        info = np.zeros((), np.int64)
        function(*(a.ctypes.data for a in held), info.ctypes.data, *lengths)
        return int(info)

    return call


@functools.cache
def two_stage_routines():
    """The `Stages` from the OpenBLAS numpy has already mapped, or None unless all three are there.

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
        for prefix in ("scipy_", ""):
            try:
                functions = [getattr(library, f"{prefix}{name}_64_") for name in _STAGES]
            except AttributeError:
                continue
            return Stages(*(_fortran(function, *shape) for function, shape in zip(functions, _STAGES.values())))
    return None


def _run(stages: Stages, name: str, *args) -> None:
    info = getattr(stages, name)(*args)
    if info != 0:
        raise np.linalg.LinAlgError(f"{name} returned info={info}")


def _leading_dimension(order: int) -> int:
    """The smallest lda >= order that starts every column's diagonal element, at 16 (lda + 1) bytes apart, on a page."""
    step = mmap.PAGESIZE // np.dtype(complex).itemsize
    return -(-(order + 1) // step) * step - 1


def eigvalsh_upper(order: int, write_upper) -> np.ndarray:
    """Ascending eigenvalues of the Hermitian grid whose upper triangle `write_upper(out)` writes.

    `out` is an (order, order) complex view, rows `_leading_dimension(order)`
    apart, of a fresh buffer in private anonymous memory, and `write_upper`
    fills its C-order upper triangle, diagonal included: the triangle LAPACK
    reads, as it reads a C-order array column by column with uplo 'L', and so
    solves conj(grid), which has the same spectrum.  Each row's diagonal
    element starts a page, and pages that nothing touches never become
    resident.  Stage 1 (`zhetrd_he2hb`) reduces the grid to a band of width
    `_BAND`, and the buffer is unmapped; stage 2 (`zhetrd_hb2st`) reduces the
    band to tridiagonal, whose eigenvalues `dsterf` takes.  They agree with
    numpy's to rounding, not bit for bit.  A nonzero LAPACK info is raised as
    `numpy.linalg.LinAlgError`, as numpy raises it, naming the routine.
    """
    stages = two_stage_routines()
    lda, band = _leading_dimension(order), _BAND
    buffer = mmap.mmap(-1, order * lda * np.dtype(complex).itemsize, flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_NOHUGEPAGE"):  # a transparent huge page would make whole 2 MiB runs of rows resident
        buffer.madvise(mmap.MADV_NOHUGEPAGE)
    triangle = np.frombuffer(buffer, dtype=complex).reshape(order, lda)[:, :order]
    write_upper(triangle)
    ab = np.empty((order, band + 1), complex)  # the band, column-major (band + 1, order)
    tau, query = np.empty(order - band, complex), np.empty(1, complex)
    # a workspace length of -1 is a query, answered in the first slot of the workspace
    _run(stages, "zhetrd_he2hb", b"L", order, band, triangle, lda, ab, band + 1, tau, query, -1)
    work = np.empty(int(query[0].real), complex)
    _run(stages, "zhetrd_he2hb", b"L", order, band, triangle, lda, ab, band + 1, tau, work, len(work))
    del triangle, tau, work
    buffer.close()
    d, e, hous = np.empty(order), np.empty(order - 1), np.empty(1, complex)
    _run(stages, "zhetrd_hb2st", b"Y", b"N", b"L", order, band, ab, band + 1, d, e, hous, -1, query, -1)
    hous, work = np.empty(int(hous[0].real), complex), np.empty(int(query[0].real), complex)
    _run(stages, "zhetrd_hb2st", b"Y", b"N", b"L", order, band, ab, band + 1, d, e, hous, len(hous), work, len(work))
    _run(stages, "dsterf", order, d, e)
    return d
