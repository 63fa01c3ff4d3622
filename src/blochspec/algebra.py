"""Finite-dimensional checks of the operator-algebraic band-structure inputs.

At rational flux p/q the magnetic translation phases are generated by the
q x q clock and shift matrices, whose commutation defect is the scalar
omega = exp(2*pi*i*p/q).  The canonical trace of a spectral projection below
an energy in a gap is the IDS there (``harper.ids``); it quantizes in units
of 1/q, which is what caps the number of bands at q.
"""

from __future__ import annotations

import math

import numpy as np

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
