"""Shared domain types and the dense Hermitian eigensolver contract.

Everything downstream (fiber matrices, Harper sweeps, trace checks) reduces
to diagonalizing dense Hermitian matrices, so the tolerances that define
"Hermitian" and "converged eigenpair" live here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

# Hermiticity is checked relative to the largest entry magnitude; the
# eigensolver residual contract is relative to the spectral norm.
HERMITICITY_TOL = 1e-12
EIG_TOL = 1e-10

TWO_PI = 2.0 * math.pi


class EigensolverError(RuntimeError):
    """Dense diagonalization failed to converge.

    Carries the flux / quasimomentum at which the failure occurred so batch
    sweeps can report the offending fiber.
    """

    def __init__(self, message, flux=None, k=None):
        super().__init__(message)
        self.flux = flux
        self.k = k


def uniform_k_grid(n: int) -> np.ndarray:
    """n equally spaced quasimomenta in [0, 2*pi), endpoint excluded."""
    if n < 1:
        raise ValueError("k-grid needs at least one point")
    return TWO_PI * np.arange(n) / n


def tridiagonal(diag, corner_phase=None) -> np.ndarray:
    """Nearest-neighbour matrices of shape (..., n, n) with unit hopping.

    ``diag`` of shape (..., n) goes on the diagonal.  A ``corner_phase``
    closes the cycle: it goes at (n-1, 0) and its conjugate at (0, n-1), and
    its shape broadcasts against the batch axes of ``diag``.  Terms add, so
    n = 1 and n = 2 (where the corners meet the diagonal or a bond) come out
    right.  The result is real unless ``diag`` or the phase is complex.
    """
    d = np.asarray(diag)
    n = d.shape[-1]
    phase = np.asarray(0.0 if corner_phase is None else corner_phase)
    shape = np.broadcast_shapes(d.shape[:-1], phase.shape) + (n, n)
    mat = np.zeros(shape, dtype=np.result_type(d, phase, float))
    i = np.arange(n)
    mat[..., i, i] = d
    mat[..., i[:-1], i[1:]] += 1.0
    mat[..., i[1:], i[:-1]] += 1.0
    if corner_phase is not None:
        mat[..., n - 1, 0] += phase
        mat[..., 0, n - 1] += phase.conj()
    return mat


@dataclass(frozen=True)
class FourierPotential:
    """Real periodic potential given by finitely many Fourier coefficients.

    ``coefficients[n]`` is the amplitude of exp(2*pi*i*n*x); the period is
    normalized to 1.  Reality of the potential requires v(-n) == conj(v(n)),
    which is validated on construction.  Missing frequencies are exactly zero.
    """

    coefficients: dict = field(default_factory=dict)

    def __post_init__(self):
        clean = {}
        for n, v in self.coefficients.items():
            if n != int(n):
                raise ValueError(f"frequency {n!r} is not an integer")
            v = complex(v)
            if not cmath.isfinite(v):
                raise ValueError(f"coefficient v({n}) = {v} is not finite")
            if v != 0:
                clean[int(n)] = v
        for n, v in clean.items():
            if not np.isclose(clean.get(-n, 0.0), v.conjugate(), rtol=0, atol=1e-14):
                raise ValueError(
                    f"coefficients break Hermitian symmetry at n={n}: "
                    f"v({-n}) != conj(v({n}))"
                )
        object.__setattr__(self, "coefficients", clean)

    @classmethod
    def zero(cls) -> "FourierPotential":
        return cls({})

    @classmethod
    def from_positive(cls, positive: dict) -> "FourierPotential":
        """Build from coefficients for n >= 0, filling v(-n) = conj(v(n))."""
        coeffs = {}
        for n, v in positive.items():
            if n < 0:
                raise ValueError("from_positive expects frequencies n >= 0")
            coeffs[n] = complex(v)
            if n > 0:
                coeffs[-n] = complex(v).conjugate()
        return cls(coeffs)

    @property
    def max_frequency(self) -> int:
        if not self.coefficients:
            return 0
        return max(abs(n) for n in self.coefficients)

    def coefficient(self, n: int) -> complex:
        return self.coefficients.get(n, 0.0 + 0.0j)

    def sample(self, x) -> np.ndarray:
        """Evaluate V(x); always real up to roundoff."""
        x = np.asarray(x, dtype=float)
        total = np.zeros_like(x, dtype=complex)
        for n, v in self.coefficients.items():
            total += v * np.exp(2j * np.pi * n * x)
        return total.real


@dataclass(frozen=True, order=True)
class RationalFlux:
    """Reduced fraction p/q: magnetic flux quanta per unit cell, mod 1."""

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        if not (isinstance(p, int) and isinstance(q, int)):
            raise ValueError("flux numerator and denominator must be integers")
        if q <= 0:
            raise ValueError(f"flux denominator must be positive, got {q}")
        if not (0 <= p < q):
            raise ValueError(f"flux must satisfy 0 <= p < q, got {p}/{q}")
        if math.gcd(p, q) != 1:
            raise ValueError(f"flux {p}/{q} is not reduced")

    @classmethod
    def parse(cls, text: str) -> "RationalFlux":
        """Parse 'p/q'.  Unreduced input is an error, not silently reduced."""
        parts = text.strip().split("/")
        if len(parts) != 2:
            raise ValueError(f"flux must be written p/q, got {text!r}")
        try:
            p, q = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"flux must be written p/q with integers, got {text!r}") from None
        return cls(p, q)

    @property
    def value(self) -> float:
        return self.p / self.q

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def _as_square(a) -> np.ndarray:
    """Square float or complex array; real input stays real."""
    m = np.asarray(a, dtype=complex if np.iscomplexobj(a) else float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def hermiticity_defect(a) -> float:
    """max |A - A*| relative to the largest entry magnitude (0 for A = 0)."""
    m = _as_square(a)
    scale = np.abs(m).max()
    if scale == 0.0:
        return 0.0
    return float(np.abs(m - m.conj().T).max() / scale)


def require_hermitian(a) -> np.ndarray:
    """``a`` as a square array, if its hermiticity defect is within tolerance."""
    m = _as_square(a)
    defect = hermiticity_defect(m)
    if defect > HERMITICITY_TOL:
        raise ValueError(f"matrix is not Hermitian: relative defect {defect:.3e}")
    return m


def eig_hermitian(a, vectors: bool = False):
    """Eigenvalues (ascending) of a Hermitian matrix, optionally with vectors.

    The input is validated against the hermiticity tolerance, and a real
    symmetric array stays real.  Backed by LAPACK via numpy.linalg; the
    contract (residual and orthonormality within EIG_TOL * ||A||) is what the
    rest of the package relies on, not the algorithm.
    """
    m = require_hermitian(a)
    try:
        if vectors:
            w, v = np.linalg.eigh(m)
            return w, v
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise EigensolverError(f"eigensolver failed on a {m.shape[0]}x{m.shape[0]} matrix: {exc}")
