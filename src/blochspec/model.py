"""Shared domain types, band sets, the tridiagonal fiber builder, the clock/shift
pair and the eigensolver boundary.

The spectra downstream (fiber matrices, Harper band edges, the truncation
oracles) come from diagonalizing dense Hermitian matrices; the direct-space
count in ``harper`` builds no matrix and counts LDL^T pivots.  The types that
describe an operator make it self-adjoint (a real potential, real onsite
energies, unit hopping), so every builder's matrices are Hermitian by
construction, and ``eigensolve`` is the one place that calls LAPACK.  The
clock/shift residuals take their norms here too, so ``numpy.linalg`` stays in
this one module.  Band edges come in as the eigenvalues of the few fibers
where the band functions are extremal, and ``bands_from_edges`` pairs them
into a ``BandSet``.
"""

from __future__ import annotations

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
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"coefficient v({n}) = {v} is not finite")
            clean[n] = v
        exact, total = {}, 0.0
        for n in sorted({abs(m) for m in clean}):
            v = clean[n] if n in clean else clean[-n].conjugate()
            w = clean.get(-n, v.conjugate())
            if not abs(w - v.conjugate()) <= 1e-14:
                raise ValueError(f"coefficients break Hermitian symmetry at n={n}: "
                                 f"v({-n}) != conj(v({n}))")
            total += abs(v / 8) + (abs(w / 8) if n else 0.0)  # v / 8: abs stays finite
            v = v if n else complex(v.real)
            if v != 0:
                exact[-n], exact[n] = v.conjugate(), v
        if 8 * total > POTENTIAL_MAX:
            raise ValueError(f"coefficients sum |v(n)| above {POTENTIAL_MAX!r}: the fiber "
                             f"eigenvalues would overflow")
        object.__setattr__(self, "coefficients", exact)


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


@dataclass(frozen=True)
class BandSet:
    """Finite closed intervals [a_i, b_i]: bands in ascending order; neighbours may touch."""

    intervals: tuple

    def __post_init__(self):
        clean = []
        for iv in self.intervals:
            a, b = float(iv[0]), float(iv[1])
            if not -math.inf < a <= b < math.inf:  # a NaN edge fails too
                raise ValueError(f"interval [{a}, {b}] is not finite and ordered")
            if clean and not clean[-1][1] <= a:
                a0, b0 = clean[-1]
                raise ValueError(f"intervals [{a0}, {b0}] and [{a}, {b}] overlap")
            clean.append((a, b))
        object.__setattr__(self, "intervals", tuple(clean))


def bands_from_edges(edges, closed=()) -> BandSet:
    """Band set from 2n band edges: sorted and paired as [e0, e1], [e2, e3], ...

    Gap j lies between bands j - 1 and j.  It merges only if ``closed`` (a
    container of gap indices) names it: which gaps close is a theorem about the
    operator, not a float comparison.  An open gap whose two edges are the same
    double stays, as two bands that touch.
    """
    e = np.sort(np.asarray(edges, dtype=float), axis=None)
    if e.size == 0 or e.size % 2:
        raise ValueError(f"need a positive, even number of band edges, got {e.size}")
    merged = []
    for j, (a, b) in enumerate(zip(e[0::2].tolist(), e[1::2].tolist())):
        if merged and j in closed:  # sorted pairs never overlap
            merged[-1][1] = b
        else:
            merged.append([a, b])
    return BandSet(merged)


def interior_gaps(bands: BandSet) -> list:
    """Gaps between the first and last band: (b_i, a_i+1) for consecutive
    bands [a_i, b_i] and [a_i+1, b_i+1]; touching bands give width 0."""
    return [(b, a) for (_, b), (a, _) in zip(bands.intervals, bands.intervals[1:])]


def clock_shift(flux: RationalFlux) -> tuple:
    """The clock/shift pair for flux p/q as (u, omega): u = omega^j for j < q.

    The clock is U = diag(u) and the shift V the cyclic map e_j -> e_(j+1 mod q),
    left implicit; omega = exp(2*pi*i*p/q), a Python complex, so that
    U V = omega V U.  For q = 1 this degenerates to the commuting pair.
    """
    omega = np.exp(2j * np.pi * flux.p / flux.q)
    return omega ** np.arange(flux.q), complex(omega)


def unitarity_residual(u) -> float:
    """Frobenius norm of U U* - 1 for the clock U = diag(u)."""
    return float(np.linalg.norm(u * np.conj(u) - 1))


def commutation_residual(u, omega) -> float:
    """Frobenius norm of U V - omega V U for U = diag(u) and the cyclic shift V.

    Both products map e_j to a multiple of e_(j+1), u_(j+1) and u_j, so the
    difference has the q nonzero entries u_(j+1) - omega u_j.
    """
    return float(np.linalg.norm(np.roll(u, -1) - omega * u))


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
