"""The package's public names: every export in an `__all__` resolves, the package exports each module's, and
the library refuses bad input with a named exception."""

import importlib
import math
import pkgutil

import numpy as np
import pytest

import checkerboard_rmt
from checkerboard_rmt import (
    AtomicMeasure,
    CheckerboardParams,
    DivisionAlgebra,
    HermitianMatrix,
    HollowParams,
    Spectrum,
    average_trial_moments,
    blip_weight,
    bulk_measure,
    catalan,
    compare_blip_to_hollow,
    hollow_moment_oracle,
    sample_checkerboard,
    semicircle_moment,
    weighted_ks_statistic,
)
from checkerboard_rmt.exceptions import AlgebraMismatchError, DimensionError, ParameterError

MODULES = ["checkerboard_rmt"] + [
    f"checkerboard_rmt.{info.name}" for info in pkgutil.iter_modules(checkerboard_rmt.__path__) if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


PUBLIC_MODULES = ("algebra", "ensembles", "spectra", "moments", "analysis")


def test_package_exports_every_public_module_name_once():
    modules = [importlib.import_module(f"checkerboard_rmt.{name}") for name in PUBLIC_MODULES]
    expected = ["__version__", *(export for module in modules for export in module.__all__)]
    assert checkerboard_rmt.__all__ == expected
    assert len(set(expected)) == len(expected)
    for module in modules:
        for export in module.__all__:
            value = getattr(module, export)
            assert getattr(checkerboard_rmt, export) is value, export
            assert getattr(value, "__module__", module.__name__) == module.__name__, export  # defined there


_REFUSALS = {
    "algebra": (lambda: DivisionAlgebra.parse("octonion"), AlgebraMismatchError,
                "unknown division algebra 'octonion'; expected real, complex, or quaternion"),
    "matrix-shape": (lambda: HermitianMatrix(np.zeros((2, 3)), "real"), DimensionError,
                     "matrix needs a square shape, got (2, 3)"),
    "quaternion-shape": (lambda: HermitianMatrix(np.zeros((2, 2, 3)), "quaternion"), DimensionError,
                         "quaternion matrix needs shape (N, N, 4), got (2, 2, 3)"),
    "dim": (lambda: CheckerboardParams(dim=0, k=1), ParameterError, "dimension must be positive, got 0"),
    "w": (lambda: CheckerboardParams(dim=4, k=2, w=math.inf), ParameterError, "w must be finite, got inf"),
    "distribution": (lambda: CheckerboardParams(dim=4, k=2, distribution="cauchy"), ParameterError,
                     "unknown distribution 'cauchy'; expected one of ('normal', 'rademacher')"),
    "seed": (lambda: CheckerboardParams(dim=4, k=2, seed=2**64), ParameterError,
             "seed 18446744073709551616 outside the unsigned 64-bit range"),
    "hollow-k": (lambda: HollowParams(0), ParameterError, "dimension must be positive, got 0"),
    "trial": (lambda: sample_checkerboard(CheckerboardParams(dim=4, k=2), 2**48), ParameterError,
              "stream index 281474976710656 outside [0, 2**48)"),
    "spectrum-2d": (lambda: Spectrum(np.zeros((2, 2))), ParameterError,
                    "expected a 1-d array of eigenvalues, got shape (2, 2)"),
    "spectrum-unsorted": (lambda: Spectrum(np.array([1.0, 0.0])), ParameterError,
                          "eigenvalues must be sorted ascending"),
    "measure-shapes": (lambda: AtomicMeasure(np.zeros(2), np.ones(3)), ParameterError,
                       "locations and weights must be matching 1-d arrays, got (2,) and (3,)"),
    "measure-weight": (lambda: AtomicMeasure(np.zeros(2), np.array([1.0, -1.0])), ParameterError,
                       "atom weights must be nonnegative"),
    "bulk-empty": (lambda: bulk_measure(Spectrum(np.zeros(0))), ParameterError, "empty spectrum"),
    "blip-n": (lambda: blip_weight(1.0, 0), ParameterError, "weight half-degree must be >= 1, got 0"),
    "no-measures": (lambda: average_trial_moments([], 2), ParameterError, "need at least one measure"),
    "catalan": (lambda: catalan(-1), ParameterError, "need n >= 0, got -1"),
    "semicircle-ell": (lambda: semicircle_moment(-1, 2), ParameterError, "need ell >= 0, got -1"),
    "semicircle-k": (lambda: semicircle_moment(2, 0), ParameterError, "need k >= 1, got 0"),
    "oracle-k": (lambda: hollow_moment_oracle(0, 2), ParameterError, "need k >= 1 and m >= 0, got k=0, m=2"),
    "oracle-m": (lambda: hollow_moment_oracle(2, -1), ParameterError, "need k >= 1 and m >= 0, got k=2, m=-1"),
    "ks-empty": (lambda: weighted_ks_statistic([], [], [0.0], [1.0]), ParameterError,
                 "need nonempty samples for a KS statistic"),
    "compare-no-mass": (lambda: compare_blip_to_hollow(AtomicMeasure(np.zeros(2), np.zeros(2)), np.zeros((3, 2))),
                        ParameterError, "blip sample has zero mass"),
}


@pytest.mark.parametrize("call, error, message", list(_REFUSALS.values()), ids=list(_REFUSALS))
def test_library_refuses_bad_input(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
