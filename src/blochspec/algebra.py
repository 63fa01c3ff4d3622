"""Finite-dimensional checks of the operator-algebraic band-structure inputs.

At rational flux p/q the magnetic translation phases are generated by the
q x q clock and shift matrices, whose commutation defect is the scalar
omega = exp(2*pi*i*p/q).  The normalized k-averaged matrix trace realizes the
canonical trace; applied to spectral projections it quantizes in units of 1/q,
which is what caps the number of bands at q.
"""

from __future__ import annotations

import math

import numpy as np

from . import assembly, harper
from .model import RationalFlux


def _frobenius(mat) -> float:
    """Frobenius norm, summed as numpy.linalg.norm sums it: real parts, then imaginary."""
    x = np.ravel(mat)
    return math.sqrt(x.real @ x.real + x.imag @ x.imag)


def unitarity_residual(U) -> float:
    """Frobenius norm of U U* - 1."""
    U = np.asarray(U, dtype=complex)
    return _frobenius(U @ U.conj().T - np.eye(U.shape[0]))


def commutation_residual(U, V, omega) -> float:
    """Frobenius norm of U V - omega V U."""
    U = np.asarray(U, dtype=complex)
    V = np.asarray(V, dtype=complex)
    return _frobenius(U @ V - omega * (V @ U))


def clock_shift(flux: RationalFlux) -> tuple:
    """Clock and shift matrices (U, V, omega): the standard q-dimensional pair for flux p/q.

    U = diag(omega^j), V the cyclic shift, omega = exp(2*pi*i*p/q), so that
    U V = omega V U; both are unitary by construction.  omega is a Python
    complex.  For q = 1 this degenerates to the commuting pair ([1], [1]).
    """
    q = flux.q
    omega = np.exp(2j * np.pi * flux.p / q)
    U = np.diag(omega ** np.arange(q))
    V = np.zeros((q, q), dtype=complex)
    V[(np.arange(q) + 1) % q, np.arange(q)] = 1.0
    return U, V, complex(omega)


def canonical_trace(element) -> float:
    """Normalized trace of a k-indexed family: (1/q) * k-average of tr.

    Equals 1 on the identity family.  ``element`` is an array of shape
    (..., q, q); ragged, empty and non-square input is rejected.
    """
    fam = np.asarray(element, dtype=complex)  # raises ValueError when ragged
    if fam.size == 0:
        raise ValueError("empty operator family")
    if fam.ndim < 2 or fam.shape[-1] != fam.shape[-2]:
        raise ValueError(f"expected matrices of shape (..., q, q), got {fam.shape}")
    traces = np.trace(fam, axis1=-2, axis2=-1)
    return float(traces.mean().real) / fam.shape[-1]


def spectral_projection_trace(params: harper.HarperParams, energies):
    """Normalized traces of the spectral projections below energies in gaps.

    ``energies`` is a scalar or an array.  Every energy must avoid the exact
    bands of ``harper_spectrum`` (inside a gap, below, or above the whole
    spectrum); inside a band the projection rank varies with k, so that input
    is rejected.  In gap j the rank is j at every k, so the trace is exactly
    j/q, where 2j is the number of band edges below the energy.  A NaN
    energy is rejected; -inf and +inf give 0 and 1.
    """
    e = np.asarray(energies, dtype=float)
    if np.isnan(e).any():
        raise ValueError("projection trace requested at a NaN energy")
    edges = harper.band_edges(params)
    inside = e[assembly.distance_to_bands(assembly.bands_from_edges(edges), e) == 0.0]
    if inside.size:
        raise ValueError(
            f"energy {inside.flat[0]} lies inside a band; projection trace undefined there")
    values = (np.searchsorted(edges, e, side="right") // 2) / params.flux.q
    return values if values.ndim else float(values)

