"""Bloch decomposition of periodic operators on the line and on the integer lattice.

Two concrete settings share the same structure:

* 1d continuum Schroedinger operators -d^2/dx^2 + V with V given by Fourier
  coefficients: each quasimomentum k yields a plane-wave fiber matrix whose
  low eigenvalues are the band functions.  Band functions are monotone on
  [0, pi], so the band edges are the eigenvalues of the periodic (k = 0) and
  antiperiodic (k = pi) fibers.
* period-q nearest-neighbor operators on Z with M cells and periodic
  boundary: a finite Bloch transform block-diagonalizes the q*M operator
  into M fibers of size q, exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import assembly
from .model import TWO_PI, FourierPotential, eigensolve, tridiagonal, uniform_k_grid

DEFAULT_CUTOFF = 32
DEFAULT_BANDS = 8
DEFAULT_KPOINTS = 101


@dataclass(frozen=True)
class DiscreteCell:
    """Period-q nearest-neighbor operator on q*M sites with unit hopping."""

    q: int
    M: int
    onsite: tuple

    def __post_init__(self):
        if self.q < 1 or self.M < 1:
            raise ValueError("need q >= 1 sites per cell and M >= 1 cells")
        onsite = tuple(float(v) for v in self.onsite)
        if len(onsite) != self.q:
            raise ValueError(f"expected {self.q} onsite energies, got {len(onsite)}")
        if not all(math.isfinite(v) for v in onsite):
            raise ValueError(f"onsite energies {onsite} are not all finite")
        object.__setattr__(self, "onsite", onsite)

    @property
    def sites(self) -> int:
        return self.q * self.M


def _fibers(potential: FourierPotential, cutoff: int, ks):
    """Plane-wave fiber at each k in ``ks``, written into one reused array.

    Entry (m, n) = delta_mn (2*pi*m + k)^2 + v(m - n) for m, n in -N..N with
    N = cutoff, so the fiber dimension is 2N+1.  The Toeplitz part v(m - n) is built once
    and is real when every coefficient is; only the diagonal changes with k.
    N must cover every stored potential frequency.  Entry (n, m) is
    v(n - m) = conj v(m - n) exactly and v(0) is real (``FourierPotential``),
    so every fiber is Hermitian.
    """
    N = cutoff
    # v-lookup table indexed by frequency difference m - n in [-2N, 2N]
    table = np.zeros(4 * N + 1, dtype=complex)
    for n, v in potential.coefficients.items():
        table[n + 2 * N] = v
    table = table if table.imag.any() else table.real
    freqs = TWO_PI * np.arange(-N, N + 1)
    idx = np.arange(2 * N + 1)
    fiber = table[idx[:, None] - idx[None, :] + 2 * N]
    for kval in ks:
        np.fill_diagonal(fiber, table[2 * N] + (freqs + kval) ** 2)
        yield fiber


def _fiber_eigenvalues(potential: FourierPotential, cutoff: int, ks, bands: int):
    """Lowest ``bands`` fiber eigenvalues at each k in ``ks``, shape (len(ks), bands).

    The cutoff must cover every potential frequency, which rejects every
    negative cutoff before the band count is checked against 2*cutoff + 1.
    """
    if cutoff < potential.max_frequency:
        raise ValueError(f"cutoff N={cutoff} cannot represent the potential "
                         f"(max frequency {potential.max_frequency})")
    if bands < 1:
        raise ValueError("need at least one band")
    if bands > 2 * cutoff + 1:
        raise ValueError(f"requested {bands} bands from a {2 * cutoff + 1}-dimensional fiber")
    energies = np.empty((len(ks), bands))
    for i, (kval, fiber) in enumerate(zip(ks, _fibers(potential, cutoff, ks))):
        energies[i] = eigensolve(fiber, k=float(kval))[:bands]
    return energies


def band_sweep(potential: FourierPotential, cutoff: int,
               bands: int = DEFAULT_BANDS, kpoints: int = DEFAULT_KPOINTS):
    """Band functions on the uniform k-grid, in the plane-wave basis -cutoff..cutoff.

    Returns (ks, energies) with energies[i, b] the b-th band at ks[i].  Only
    the fibers at ks[i] in [0, pi] (i <= kpoints // 2) are solved, where
    -cutoff..cutoff holds the plane waves of lowest kinetic energy
    (2*pi*m + k)^2.  Since the potential is real, E(k) = E(-k) = E(2*pi - k),
    so every row i past the middle is an exact copy of row kpoints - i: the
    fiber at k on the lowest-kinetic window -cutoff-1..cutoff-1.
    """
    ks = uniform_k_grid(kpoints)
    half = kpoints // 2 + 1
    energies = np.empty((kpoints, bands))
    energies[:half] = _fiber_eigenvalues(potential, cutoff, ks[:half], bands)
    energies[half:] = energies[kpoints - half:0:-1]
    return ks, energies


def band_structure(potential: FourierPotential, cutoff: int,
                   bands: int = DEFAULT_BANDS) -> assembly.BandSet:
    """Lowest ``bands`` bands of the periodic operator, closed gaps merged.

    The band edges are the eigenvalues of the fibers at k = 0 and k = pi
    (Floquet/Hill theory), from the ``band_sweep`` builder.  Which gaps close is
    a theorem, not a tolerance: if g is the gcd of the potential's frequencies,
    V has period 1/g, so every gap n that is not a multiple of g is closed
    (Magnus-Winkler, Hill's Equation, ch. 1); g = 0 (constant V) closes them
    all, and a single frequency closes no other (Ince).  No other gap merges.
    """
    edges = _fiber_eigenvalues(potential, cutoff, (0.0, math.pi), bands)
    g = math.gcd(*potential.coefficients)
    return assembly.bands_from_edges(edges, {n for n in range(bands) if not g or n % g})


# ---------------------------------------------------------------------------
# discrete lattice: finite Bloch transform and the periodic-truncation oracle
# ---------------------------------------------------------------------------

def discrete_bloch_transform(f, cell: DiscreteCell) -> np.ndarray:
    """Finite Bloch transform: M blocks of length q, unitarily.

    Block m, entry j is (1/sqrt(M)) * sum_g exp(2*pi*i*m*g/M) f[(j - q*g) mod q*M];
    the 1/sqrt(M) normalization makes the map an isometry (Parseval).
    """
    vec = np.asarray(f, dtype=complex)
    if vec.shape != (cell.sites,):
        raise ValueError(f"expected a vector of length {cell.sites}, got shape {vec.shape}")
    q, M = cell.q, cell.M
    shifts = vec[(np.arange(q) - q * np.arange(M)[:, None]) % (q * M)]
    phases = np.exp(2j * np.pi * np.outer(np.arange(M), np.arange(M)) / M)
    return phases @ shifts / np.sqrt(M)


def dense_periodic_matrix(cell: DiscreteCell) -> np.ndarray:
    """Real-space q*M operator with periodic boundary, built bond by bond.

    Deliberately not built with ``tridiagonal``: it is the independent
    reference that the union-of-fibers oracle checks the fibers against.
    """
    n = cell.sites
    mat = np.diag(np.tile(np.asarray(cell.onsite, dtype=complex), cell.M))
    for x in range(n):
        y = (x + 1) % n
        mat[x, y] += 1.0
        mat[y, x] += 1.0
    return mat


def periodic_truncation_spectrum(cell: DiscreteCell) -> np.ndarray:
    """Ascending spectrum of the q*M periodic operator, assembled in real space."""
    return eigensolve(dense_periodic_matrix(cell))


def fiber_union_spectrum(cell: DiscreteCell) -> np.ndarray:
    """Sorted multiset union of fiber spectra over the M-point phase grid.

    Fiber m is the q x q cell operator whose wrapping bond carries the Bloch
    phase exp(2*pi*i*m/M) (``tridiagonal``).
    """
    fibers = tridiagonal(cell.onsite, np.exp(1j * uniform_k_grid(cell.M)))
    return np.sort(eigensolve(fibers), axis=None)
