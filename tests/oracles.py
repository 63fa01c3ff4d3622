"""Test oracles that no production path calls: k-grid sweeps of the Harper
Bloch matrices, per-branch ranges of such a sweep, the canonical trace of
their spectral projections, block-circulant synthesis, the eigenvalues of the
open direct-space chain, the distance from values to a band set, and the
Chambers discriminant in high-precision decimal arithmetic.

The matrices are written here entry by entry, so these oracles share no code
with ``harper.band_edges``, ``harper.direct_space_count``, ``harper.ids`` or
``model.tridiagonal``.
"""

import decimal
from decimal import Decimal

import numpy as np

DEFAULT_KGRID = (64, 64)


def k_grid(n: int) -> np.ndarray:
    """n equally spaced quasimomenta in [0, 2*pi), endpoint excluded."""
    return 2 * np.pi * np.arange(n) / n


def bloch_matrices(params, k1, k2) -> np.ndarray:
    """Harper Bloch matrices at quasimomenta (k1, k2), shape (..., q, q).

    Diagonal 2 lam cos(k2 + 2 pi j p / q), unit hopping, and the corner phase
    exp(i k1) closing the cycle; the arrays k1 and k2 broadcast together.
    """
    p, q = params.flux.p, params.flux.q
    k1, k2 = np.broadcast_arrays(np.asarray(k1, dtype=float), np.asarray(k2, dtype=float))
    mats = np.zeros(k1.shape + (q, q), dtype=complex)
    j = np.arange(q)
    mats[..., j, j] = 2.0 * params.lam * np.cos(k2[..., None] + 2 * np.pi * p * j / q)
    mats[..., j[:-1], j[:-1] + 1] += 1.0
    mats[..., j[:-1] + 1, j[:-1]] += 1.0
    mats[..., q - 1, 0] += np.exp(1j * k1)
    mats[..., 0, q - 1] += np.exp(-1j * k1)
    return mats


def bloch_matrix_family(params, kgrid=DEFAULT_KGRID) -> np.ndarray:
    """All Bloch matrices on the n1 x n2 k-grid, shape (n1, n2, q, q)."""
    n1, n2 = kgrid
    return bloch_matrices(params, k_grid(n1)[:, None], k_grid(n2)[None, :])


def eigenvalue_grid(params, kgrid=DEFAULT_KGRID) -> np.ndarray:
    """Eigenvalue branches over the k-grid, shape (n1, n2, q), ascending in q."""
    return np.linalg.eigvalsh(bloch_matrix_family(params, kgrid))


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


def spectral_projections(params, energies, kgrid=DEFAULT_KGRID) -> np.ndarray:
    """Spectral projection of each Bloch matrix on the k-grid onto its eigenvalues
    up to each energy, built from the eigenvectors, shape (len(energies), n1, n2, q, q)."""
    w, v = np.linalg.eigh(bloch_matrix_family(params, kgrid))
    below = w <= np.asarray(energies, dtype=float)[:, None, None, None]
    return (v * below[..., None, :]) @ v.conj().swapaxes(-1, -2)


def branch_ranges(energies) -> list:
    """Per-branch (min, max) over all sampled quasimomenta.

    ``energies`` has branch index last; any leading axes enumerate the k-grid.
    """
    e = np.asarray(energies, dtype=float)
    if e.ndim < 2:
        raise ValueError("expected an array of eigenvalue branches over a k-grid")
    flat = e.reshape(-1, e.shape[-1])
    if flat.shape[0] == 0:
        raise ValueError("cannot assemble bands from an empty sweep")
    return list(zip(flat.min(axis=0).tolist(), flat.max(axis=0).tolist()))


def block_circulant_from_fibers(fibers: np.ndarray) -> np.ndarray:
    """Assemble the q*M block-circulant whose Bloch symbol is the fiber family.

    ``fibers[m]`` is the q x q fiber at phase 2*pi*m/M; the hopping blocks are
    its inverse discrete Fourier transform.
    """
    M, q = fibers.shape[0], fibers.shape[1]
    hop = np.fft.fft(fibers, axis=0) / M  # hop[d] = (1/M) sum_m e^{-2pi i m d / M} H_m
    big = np.zeros((q * M, q * M), dtype=complex)
    for g in range(M):
        for d in range(M):
            big[g * q:(g + 1) * q, ((g + d) % M) * q:((g + d) % M + 1) * q] += hop[d]
    return big


def chain_eigenvalues(params, sites, phase):
    """Ascending eigenvalues of the open direct-space Harper chain with onsite
    energies 2 lam cos(2 pi n p/q + phase), from ``numpy.linalg.eigvalsh`` on
    the chain written out here."""
    p, q = params.flux.p, params.flux.q
    n = np.arange(sites)
    chain = np.diag(2.0 * params.lam * np.cos(2 * np.pi * n * p / q + phase))
    chain += np.diag(np.ones(sites - 1), 1) + np.diag(np.ones(sites - 1), -1)
    return np.linalg.eigvalsh(chain)


def distance_to_bands(bands, values) -> np.ndarray:
    """Distance from each value to the band set (0 inside a band)."""
    x = np.asarray(values, dtype=float)
    d = np.full_like(x, np.inf)
    for a, b in bands.intervals:
        outside = np.minimum(np.abs(x - a), np.abs(x - b))
        d = np.minimum(d, np.where((x >= a) & (x <= b), 0.0, outside))
    return d


def _decimal_pi() -> Decimal:
    """pi to the current precision (the ``decimal`` documentation's recipe)."""
    decimal.getcontext().prec += 2
    lasts, t, s, n, na, d, da = 0, Decimal(3), 3, 1, 0, 0, 24
    while s != lasts:
        lasts = s
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        t = (t * n) / d
        s += t
    decimal.getcontext().prec -= 2
    return +s


def _decimal_cos(x: Decimal) -> Decimal:
    """cos(x) to the current precision by its Taylor series (the ``decimal``
    documentation's recipe); meant for |x| <= pi."""
    decimal.getcontext().prec += 2
    i, lasts, s, fact, num, sign = 0, 0, 1, 1, 1, 1
    while s != lasts:
        lasts = s
        i += 2
        fact *= i * (i - 1)
        num *= x * x
        sign *= -1
        s += num / fact * sign
    decimal.getcontext().prec -= 2
    return +s


def decimal_discriminant(p, q, lam, energies) -> np.ndarray:
    """Chambers' discriminant Delta(E) / (2 max(1, lam^q)) at flux p/q, as floats.

    Delta is the mean over k2 = 0 and pi/q of the trace of the period-q
    transfer-matrix product prod_n [[E - d_n(k2), -1], [1, 0]], with d_n(k2) =
    2 lam cos(k2 + 2 pi p n / q).  The recurrence runs in ``decimal`` at
    50 + q digits, from the exact binary values of ``lam`` and the energies;
    the 2q onsite cosines take angles pi m / q reduced to [0, pi].
    """
    with decimal.localcontext() as ctx:
        ctx.prec = 50 + q
        pi, lam = _decimal_pi(), Decimal(lam)
        fibers = []
        for shift in (0, 1):  # k2 = shift * pi / q
            diag = []
            for n in range(q):
                m = 2 * (p * n % q) + shift
                diag.append(2 * lam * _decimal_cos(pi * min(m, 2 * q - m) / q))
            fibers.append(diag)
        scale = 4 * max(Decimal(1), lam ** q)
        out = []
        for energy in np.asarray(energies, dtype=float).tolist():
            e, total = Decimal(energy), Decimal(0)
            for diag in fibers:
                a, b, c, d = Decimal(1), Decimal(0), Decimal(0), Decimal(1)
                for dn in diag:
                    x = e - dn
                    a, b, c, d = x * a - c, x * b - d, a, b
                total += a + d
            out.append(float(total / scale))
    return np.array(out)
