"""Checkerboard random matrix laboratory.

Random Hermitian matrices whose entries are i.i.d. except for a constant w at
every position with i = j (mod k) split into two spectral regimes: a bulk of
N-k eigenvalues converging (scaled by 1/sqrt(N)) to a semicircle of radius
2*sqrt(1 - 1/k), and k outliers near N*w/k whose centered fluctuations match
the spectrum of the k x k hollow (zero-diagonal) Gaussian ensembles.  This
package samples the ensembles over the reals, complexes, and quaternions,
builds the weighted spectral measures isolating each regime, and verifies the
limits against exact combinatorial oracles.
"""

__version__ = "0.1.0"

from .algebra import DivisionAlgebra, HermitianMatrix
from .ensembles import (
    CheckerboardParams,
    HollowParams,
    congruence_indicator_matrix,
    sample_checkerboard,
    sample_hollow_chunk,
)
from .spectra import (
    AtomicMeasure,
    BlipConfig,
    Spectrum,
    average_measures,
    blip_measure,
    blip_weight,
    bulk_measure,
    eigensolve,
    histogram,
    hollow_eigenvalues,
    trial_spectra,
)
from .moments import (
    MomentVector,
    alternating_binomial_sum,
    average_trial_moments,
    hollow_moment_oracle,
    hollow_moments,
    measure_moments,
    semicircle_moment,
    trace_expansion_blip_moments,
)
from .analysis import (
    ComparisonReport,
    RegimeSplit,
    SweepReport,
    bulk_moment_sweep,
    compare_blip_to_hollow,
    split_regimes,
)

__all__ = [
    "__version__",
    "DivisionAlgebra",
    "HermitianMatrix",
    "CheckerboardParams",
    "HollowParams",
    "congruence_indicator_matrix",
    "sample_checkerboard",
    "sample_hollow_chunk",
    "AtomicMeasure",
    "BlipConfig",
    "Spectrum",
    "average_measures",
    "blip_measure",
    "blip_weight",
    "bulk_measure",
    "eigensolve",
    "histogram",
    "hollow_eigenvalues",
    "trial_spectra",
    "MomentVector",
    "alternating_binomial_sum",
    "average_trial_moments",
    "hollow_moment_oracle",
    "hollow_moments",
    "measure_moments",
    "semicircle_moment",
    "trace_expansion_blip_moments",
    "ComparisonReport",
    "RegimeSplit",
    "SweepReport",
    "bulk_moment_sweep",
    "compare_blip_to_hollow",
    "split_regimes",
]
