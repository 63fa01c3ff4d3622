"""Shared domain types, the tridiagonal fiber builder, the clock/shift pair and
the eigensolver boundary.

Everything downstream (fiber matrices, Harper band edges, the truncation
oracles) reduces to diagonalizing dense Hermitian matrices.  The types that
describe an operator make it self-adjoint (a real potential, real onsite
energies, unit hopping), so every builder's matrices are Hermitian by
construction, and ``eigensolve`` is the one place that calls LAPACK.  The
clock/shift residuals take their norms here too, so ``numpy.linalg`` stays in
this one module.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi
# largest sum |v(n)| of a potential's coefficients: it bounds |V|, so every
# fiber's eigenvalues stay finite
POTENTIAL_MAX = float(np.finfo(float).max) / 8


class EigensolverError(RuntimeError):
    """Dense diagonalization failed to converge.

    Carries the flux / quasimomentum at which the failure occurred so batch
    sweeps can report the offending fiber.
    """

    def __init__(self, message, flux=None, k=None):
        super().__init__(message)
        self.flux = flux
        self.k = k


def checked_int(value, what: str, least: int = 1) -> int:
    """``value`` as an int: a Python or numpy integer, not a bool, of at least ``least``.

    Anything else raises ValueError, so a float or bool size never becomes a
    silent wrong number (np.arange(2.5) has 3 points; True counts as 1).
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"need an integer {what} >= {least}, got {value!r}")
    return int(value)


def checked_energies(values, what: str) -> np.ndarray:
    """``values`` as a 1-d float array with no NaN (infinities pass), else ValueError."""
    energies = np.asarray(values, dtype=float)
    if energies.ndim != 1:
        raise ValueError(f"{what} must be one-dimensional, got shape {energies.shape}")
    if np.isnan(energies).any():
        raise ValueError(f"{what} must hold no NaN")
    return energies


def uniform_k_grid(n: int) -> np.ndarray:
    """n equally spaced quasimomenta in [0, 2*pi), endpoint excluded."""
    n = checked_int(n, "k-grid size")
    return TWO_PI * np.arange(n) / n


def tridiagonal(diag, corner_phase) -> np.ndarray:
    """Nearest-neighbour matrices of shape (..., n, n) with unit hopping.

    ``diag`` of shape (..., n) goes on the diagonal.  The ``corner_phase``
    closes the cycle: it goes at (n-1, 0) and its conjugate at (0, n-1), and
    its shape broadcasts against the batch axes of ``diag``; a phase of 0
    leaves the chain open.  Terms add, so n = 1 and n = 2 (where the corners
    meet the diagonal or a bond) come out right.  The result is real unless
    ``diag`` or the phase is complex.
    """
    d = np.asarray(diag)
    n = d.shape[-1]
    phase = np.asarray(corner_phase)
    shape = np.broadcast_shapes(d.shape[:-1], phase.shape) + (n, n)
    mat = np.zeros(shape, dtype=np.result_type(d, phase, float))
    i = np.arange(n)
    mat[..., i, i] = d
    mat[..., i[:-1], i[1:]] += 1.0
    mat[..., i[1:], i[:-1]] += 1.0
    mat[..., n - 1, 0] += phase
    mat[..., 0, n - 1] += phase.conj()
    return mat


@dataclass(frozen=True)
class FourierPotential:
    """Real periodic potential given by finitely many Fourier coefficients.

    ``coefficients[n]`` is the amplitude of exp(2*pi*i*n*x); the period is
    normalized to 1.  Reality of the potential requires v(-n) == conj(v(n)).
    A missing partner is filled with its conjugate, so {1: 1.0} is
    2 cos(2 pi x); a given pair, zeros included, must agree to 1e-14.  Each
    pair is then stored exactly: v(n) for n >= 0 fixes both members, v(0) is
    real, and a zero pair is dropped.  So every plane-wave fiber is Hermitian
    by construction.  Missing frequencies are exactly zero.  The sum of
    |v(n)| over all n, both members of each pair, must stay at most
    POTENTIAL_MAX.
    """

    coefficients: dict

    def __post_init__(self):
        clean = {}
        for n, v in self.coefficients.items():
            n = checked_int(n, "frequency", least=-math.inf)
            v = complex(v)
            if not cmath.isfinite(v):
                raise ValueError(f"coefficient v({n}) = {v} is not finite")
            clean[n] = v
        for n in list(clean):
            clean.setdefault(-n, clean[n].conjugate())
        if 8 * sum(abs(v / 8) for v in clean.values()) > POTENTIAL_MAX:  # v / 8: abs stays finite
            raise ValueError(f"coefficients sum |v(n)| above {POTENTIAL_MAX!r}: the fiber "
                             f"eigenvalues would overflow")
        for n, v in clean.items():
            if not np.isclose(clean[-n], v.conjugate(), rtol=0, atol=1e-14):
                raise ValueError(
                    f"coefficients break Hermitian symmetry at n={n}: "
                    f"v({-n}) != conj(v({n}))"
                )
        exact = {}
        for n in sorted({abs(m) for m in clean}):
            v = clean[n] if n else complex(clean[0].real)
            if v != 0:
                exact[-n], exact[n] = v.conjugate(), v
        object.__setattr__(self, "coefficients", exact)

    @property
    def max_frequency(self) -> int:
        if not self.coefficients:
            return 0
        return max(abs(n) for n in self.coefficients)


@dataclass(frozen=True)
class RationalFlux:
    """Reduced fraction p/q: magnetic flux quanta per unit cell, mod 1."""

    p: int
    q: int

    def __post_init__(self):
        q, p = checked_int(self.q, "flux denominator"), checked_int(self.p, "flux numerator", 0)
        if p >= q:
            raise ValueError(f"flux must satisfy 0 <= p < q, got {p}/{q}")
        if math.gcd(p, q) != 1:
            raise ValueError(f"flux {p}/{q} is not reduced")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)

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


def unitarity_residual(U) -> float:
    """Frobenius norm of U U* - 1."""
    U = np.asarray(U, dtype=complex)
    return float(np.linalg.norm(U @ U.conj().T - np.eye(U.shape[0])))


def commutation_residual(U, V, omega) -> float:
    """Frobenius norm of U V - omega V U."""
    U = np.asarray(U, dtype=complex)
    V = np.asarray(V, dtype=complex)
    return float(np.linalg.norm(U @ V - omega * (V @ U)))


def eigensolve(mats, flux=None, k=None) -> np.ndarray:
    """Ascending eigenvalues of a stack of Hermitian matrices, shape (..., n, n).

    The input is not re-checked: the builders make it Hermitian.  A LAPACK
    failure becomes an EigensolverError carrying the ``flux`` or ``k`` of the
    matrices.
    """
    try:
        return np.linalg.eigvalsh(mats)
    except np.linalg.LinAlgError as exc:
        where = "".join(f" at {name} {value}" for name, value in (("flux", flux), ("k", k))
                        if value is not None)
        n = np.shape(mats)[-1]
        raise EigensolverError(f"eigensolver failed on {n}x{n} matrices{where}: {exc}",
                               flux=flux, k=k) from exc
