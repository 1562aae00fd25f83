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

from . import algebra, analysis, ensembles, moments, spectra
from .algebra import *
from .ensembles import *
from .spectra import *
from .moments import *
from .analysis import *

__all__ = ["__version__", *algebra.__all__, *ensembles.__all__, *spectra.__all__, *moments.__all__, *analysis.__all__]
