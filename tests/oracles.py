"""Test oracles that no production path calls: k-grid sweeps of the Harper
Bloch matrices, per-branch ranges of such a sweep, the canonical trace of
their spectral projections, block-circulant synthesis, the eigenvalues of the
open direct-space chain and of the closed ring, a misplaced second edge fiber
to plant in place of the true ones, the lattice Chern number of the lowest
bands, the distance from values to a band set, the Chambers discriminant
in high-precision decimal arithmetic, and Hill's half-period functions of a
1d potential, integrated as an ODE with no plane-wave basis.

The matrices are written here entry by entry, so these oracles share no code
with ``harper._edge_fibers``, ``harper.direct_space_count``, ``harper.ids`` or
``model.tridiagonal``.
"""

import decimal
import math
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


def ring_eigenvalues(params, cells, phase):
    """Ascending eigenvalues of the direct-space Harper ring of q * cells sites
    with onsite energies 2 lam cos(2 pi n p/q + phase): the open chain of
    ``chain_eigenvalues`` with a unit bond closing it, from
    ``numpy.linalg.eigvalsh`` on the ring written out here."""
    p, q = params.flux.p, params.flux.q
    sites = q * cells
    n = np.arange(sites)
    ring = np.diag(2.0 * params.lam * np.cos(2 * np.pi * n * p / q + phase))
    ring += np.diag(np.ones(sites - 1), 1) + np.diag(np.ones(sites - 1), -1)
    ring[0, sites - 1] += 1.0
    ring[sites - 1, 0] += 1.0
    return np.linalg.eigvalsh(ring)


def second_fiber_at_k2_zero(params):
    """Eigenvalues of the fibers (0, 0) and (pi, 0) in place of the edge fibers
    (0, 0) and (pi, pi/q), shape (2, q): the Chambers extremum put in the
    wrong place."""
    return np.linalg.eigvalsh(bloch_matrices(params, [0.0, np.pi], [0.0, 0.0]))


def lattice_chern(params, j: int, n: int) -> float:
    """Chern number of the lowest j Bloch bands on the n x n grid of (k1, k2) in
    [0, 2 pi)^2 (Fukui-Hatsugai-Suzuki 2005).

    A link is det(Psi(k)^dagger Psi(k + delta)) / |det| for the lowest j
    eigenvectors Psi of ``bloch_matrices``, which are 2 pi periodic in k1 and
    k2, so the grid closes.  A plaquette's field strength is the argument of
    its four links, U1(k) U2(k + delta1) U1(k + delta2)* U2(k)*, and the sum
    over the grid is 2 pi C.  Band j must not touch band j + 1, or a link is 0/0.
    """
    k = k_grid(n)
    psi = np.linalg.eigh(bloch_matrices(params, k[:, None], k[None, :]))[1][..., :j]

    def link(axis):
        u = np.linalg.det(psi.conj().swapaxes(-1, -2) @ np.roll(psi, -1, axis=axis))
        return u / np.abs(u)

    u1, u2 = link(0), link(1)
    field = np.angle(u1 * np.roll(u2, -1, axis=0) * np.roll(u1, -1, axis=1).conj() * u2.conj())
    return float(field.sum()) / (2 * np.pi)


def distance_to_bands(bands, values) -> np.ndarray:
    """Distance from each value to the band set (0 inside a band)."""
    x = np.asarray(values, dtype=float)
    d = np.full_like(x, np.inf)
    for a, b in bands.intervals:
        outside = np.minimum(np.abs(x - a), np.abs(x - b))
        d = np.minimum(d, np.where((x >= a) & (x <= b), 0.0, outside))
    return d


def plane_wave_radius(potential, cutoff: int) -> float:
    """The eigensolver's error 8 n eps ||H|| on the n = 2 cutoff + 1 plane-wave
    fibers at k in [0, pi], with ||H|| <= (pi n)^2 + sum |v(n)|."""
    n = 2 * cutoff + 1
    norm = (np.pi * n) ** 2 + sum(abs(v) for v in potential.coefficients.values())
    return 8 * n * np.finfo(float).eps * norm


def hill_half_period(potential, energies, steps: int) -> np.ndarray:
    """u1, u1', u2 and u2' at x = 1/2 for -u'' + V u = E u, shape (4, len(energies)).

    u1 and u2 start from (u, u') = (1, 0) and (0, 1) at x = 0.  The coefficients
    must be real, so that V(x) = sum_n v(n) cos(2 pi n x) is even; then Hill's
    discriminant splits at the half period, Delta - 2 = 4 u1'(1/2) u2(1/2) and
    Delta + 2 = 4 u1(1/2) u2'(1/2) (Magnus-Winkler, Hill's Equation, 1966).  A
    complex coefficient makes V real but not even, and the split fails.

    Each of the ``steps`` steps of length h over [0, 1/2] is a fourth-order Magnus
    step with two Gauss points: y = (u, u') solves y' = A y, A = [[0, 1], [V - E, 0]],
    and the step's exponent h/2 (A1 + A2) + sqrt(3)/12 h^2 [A2, A1] = [[c, h], [b, -c]]
    is traceless, so its exponential is C + S times it, with C = cosh s and
    S = sinh(s)/s for s^2 = c^2 + h b (cos s and sin(s)/s where s^2 <= 0).
    """
    if any(v.imag for v in potential.coefficients.values()):
        raise ValueError("the half-period split needs an even potential: real coefficients")
    energies = np.asarray(energies, dtype=float)
    h = 0.5 / steps
    x = h * (np.arange(steps)[:, None] + 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3) / 6)
    V = sum((v.real * np.cos(2 * np.pi * n * x) for n, v in potential.coefficients.items()),
            np.zeros_like(x))
    u = np.stack([np.ones_like(energies), np.zeros_like(energies)])  # u1, u2
    du = np.stack([np.zeros_like(energies), np.ones_like(energies)])  # u1', u2'
    for v1, v2 in V:
        c = math.sqrt(3) / 12 * h * h * (v1 - v2)
        b = 0.5 * h * (v1 + v2) - h * energies
        s2 = c * c + h * b
        s = np.sqrt(np.abs(s2))
        osc = s2 <= 0
        C = np.where(osc, np.cos(s), np.cosh(s))
        S = np.where(osc, np.sinc(s / np.pi),
                     np.divide(np.sinh(s), s, out=np.ones_like(s), where=~osc))
        u, du = (C + S * c) * u + (S * h) * du, (S * b) * u + (C - S * c) * du
    return np.stack([u[0], du[0], u[1], du[1]])


# rows of ``hill_half_period`` that vanish at the periodic (k = 0) and the
# antiperiodic (k = pi) band edges
HILL_PARITY = ((1, 2), (0, 3))


def hill_edge_misses(potential, edges, radius, steps: int = 1600) -> tuple:
    """Which 1d band edges no parity function of their fiber brackets.

    ``edges`` has shape (2, m): row 0 from the k = 0 fiber, row 1 from k = pi;
    ``radius`` broadcasts against it.  Edge e passes when one of its fiber's two
    functions f changes sign within r = radius + d / |f'| of e, where d, the
    larger step-halving difference |f_steps - f_2steps| at e -/+ radius, is the
    ODE's error.  Taking f linear on [e - radius, e + radius], that holds
    exactly when f(e - radius) and f(e + radius) have opposite signs or one of
    them lies within d of zero.  Returns (missed, r), each of the shape of
    ``edges``, with r from the function of the two that gives the smaller.
    """
    edges = np.asarray(edges, dtype=float)
    radius = np.broadcast_to(radius, edges.shape)
    ends = edges + np.multiply.outer([-1.0, 1.0], radius)  # (end, fiber, edge)

    def parity_values(n):  # (function, end, fiber, edge)
        u = hill_half_period(potential, ends.ravel(), n).reshape((4,) + ends.shape)
        return np.stack([u[list(rows), :, k] for k, rows in enumerate(HILL_PARITY)], axis=2)

    coarse, fine = parity_values(steps), parity_values(2 * steps)
    err = np.abs(fine - coarse).max(axis=1)
    lo, hi = fine[:, 0], fine[:, 1]
    bracketed = np.abs(lo + hi) <= np.abs(lo - hi) + 2 * err
    r = radius + np.min(2 * radius * err / np.abs(hi - lo), axis=0)
    return ~bracketed.any(axis=0), r


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
