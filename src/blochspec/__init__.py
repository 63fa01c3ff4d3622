"""Spectra of periodic and magnetic lattice operators via Bloch fibering.

Band structures of 1d periodic Schroedinger operators in a plane-wave basis,
Harper/almost-Mathieu spectra and Hofstadter butterflies at rational flux,
integrated density of states, and finite-dimensional verification of the
trace-quantization mechanism behind band structure.
"""

__version__ = "0.1.0"

import os

# OpenBLAS reads its thread count as numpy loads; 300-row solves print other bytes at other counts
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .model import (
    BandSet,
    EigensolverError,
    FourierPotential,
    RationalFlux,
    clock_shift,
    commutation_residual,
    interior_gaps,
    uniform_k_grid,
)
from .fibering import (
    DiscreteCell,
    band_structure,
    band_sweep,
    discrete_bloch_transform,
    fiber_union_spectrum,
    periodic_truncation_spectrum,
)
from .harper import (
    HarperParams,
    butterfly,
    cantor_proxy,
    farey_fractions,
    harper_spectrum,
    ids,
)

__all__ = [
    "__version__",
    "BandSet",
    "DiscreteCell",
    "EigensolverError",
    "FourierPotential",
    "HarperParams",
    "RationalFlux",
    "band_structure",
    "band_sweep",
    "butterfly",
    "cantor_proxy",
    "clock_shift",
    "commutation_residual",
    "discrete_bloch_transform",
    "farey_fractions",
    "fiber_union_spectrum",
    "harper_spectrum",
    "ids",
    "interior_gaps",
    "periodic_truncation_spectrum",
    "uniform_k_grid",
]
