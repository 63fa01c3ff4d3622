"""Test oracles that no production path calls, and the Harper parameters they
take: k-grid sweeps of the Harper Bloch matrices, per-branch ranges of such a
sweep, the canonical trace of their spectral projections, block-circulant
synthesis, the eigenvalues of the direct-space chain, open or closed into a
ring, a misplaced second edge fiber to plant in place of the true ones, the
lattice Chern number of the lowest bands, the exact Harper band count, the
distance from values to a band set, the padded residual radius of a
plane-wave eigenvalue and its width bound, the Chambers discriminant in
high-precision decimal arithmetic, Hill's half-period functions and
full-period discriminant of a 1d potential, integrated as an ODE with no
plane-wave basis, and the dense clock and shift matrices with their
residuals.  ``run_python`` starts the one kind of child
process the tests use: Python importing the package from ``src/``;
``traced_peak`` is the one in-process peak-memory harness.

The matrices are written here entry by entry, so these oracles share no code
with ``harper._edge_fibers``, ``harper.direct_space_count``, ``harper.ids``,
``fibering._fiber_eigenvalues``, ``model.tridiagonal`` or ``model.clock_shift``.
"""

import decimal
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from pathlib import Path

import numpy as np

from blochspec.harper import HarperParams
from blochspec.model import RationalFlux

DEFAULT_KGRID = (64, 64)
SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(args, env=None, **kwargs) -> subprocess.CompletedProcess:
    """``python *args`` in a child that imports the package from ``src/``, with ``env``
    over the inherited environment (None removes a variable); stdout and stderr are
    captured as text unless ``kwargs``, which go to ``subprocess.run``, say otherwise."""
    options = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True,
               "timeout": 120, **kwargs}
    child = dict(os.environ, PYTHONPATH=str(SRC), **(env or {}))
    return subprocess.run([sys.executable, *args],
                          env={k: v for k, v in child.items() if v is not None}, **options)


def traced_peak(fn, *args, **kwargs) -> tuple:
    """(fn(*args, **kwargs), the peak bytes ``tracemalloc`` traced during the call)."""
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def params(p, q, lam=1.0):
    """Harper parameters at flux p/q and coupling lam."""
    return HarperParams(flux=RationalFlux(p, q), lam=lam)


def expected_bands(q):
    """q bands for odd q, q - 1 for even q where the centre pair touches
    (van Mouche, CMP 1989; Choi-Elliott-Yui, Invent. Math. 1990)."""
    return q if q % 2 else q - 1


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
    """Normalized trace of a k-indexed family of shape (..., q, q): (1/q) * k-average
    of tr.  Equals 1 on the identity family."""
    fam = np.asarray(element, dtype=complex)
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
    flat = e.reshape(-1, e.shape[-1])
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


def chain_eigenvalues(params, sites, phase, closed=False):
    """Ascending eigenvalues of the direct-space Harper chain with onsite
    energies 2 lam cos(2 pi n p/q + phase), open or ``closed`` into a ring by a
    unit bond, from ``numpy.linalg.eigvalsh`` on the chain written out here."""
    p, q = params.flux.p, params.flux.q
    n = np.arange(sites)
    chain = np.diag(2.0 * params.lam * np.cos(2 * np.pi * n * p / q + phase))
    chain += np.diag(np.ones(sites - 1), 1) + np.diag(np.ones(sites - 1), -1)
    if closed:
        chain[0, sites - 1] += 1.0
        chain[sites - 1, 0] += 1.0
    return np.linalg.eigvalsh(chain)


def ring_eigenvalues(params, cells, phase):
    """Ascending eigenvalues of the direct-space Harper ring of q * cells sites:
    the chain of ``chain_eigenvalues`` closed."""
    return chain_eigenvalues(params, params.flux.q * cells, phase, closed=True)


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


def dense_clock_shift(flux) -> tuple:
    """The clock U = diag(omega^j) and the cyclic shift V, V e_j = e_(j+1 mod q),
    as dense complex q x q matrices, with omega = exp(2 pi i p/q): (U, V, omega)."""
    q = flux.q
    omega = np.exp(2j * np.pi * flux.p / q)
    U = np.diag(omega ** np.arange(q))
    V = np.zeros((q, q), dtype=complex)
    V[(np.arange(q) + 1) % q, np.arange(q)] = 1.0
    return U, V, omega


def dense_clock_shift_residuals(flux) -> tuple:
    """Frobenius norms of U U* - 1, V V* - 1 and U V - omega V U from the dense
    pair of ``dense_clock_shift``."""
    U, V, omega = dense_clock_shift(flux)
    eye = np.eye(flux.q)
    return (float(np.linalg.norm(U @ U.conj().T - eye)),
            float(np.linalg.norm(V @ V.conj().T - eye)),
            float(np.linalg.norm(U @ V - omega * (V @ U))))


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


def plane_wave_residual_radius(potential, cutoff: int, k: float, energies) -> np.ndarray:
    """Radius about each of the lowest fiber eigenvalues ``energies`` at k, taken
    on -cutoff..cutoff, within which the untruncated fiber H has an eigenvalue.

    The window -N-M..N+M, N = cutoff and M = max |n| of the potential, is written
    out here entry by entry.  The eigenvector x of each energy mu comes from
    ``numpy.linalg.eigh`` on its middle -N..N and is zero outside it, so the
    padded window holds every entry of H that x meets and H x is exact up to
    rounding.  Some eigenvalue of H lies within
    (||H x - mu x|| + (n + 2) eps || |H| |x| + |mu| |x| ||) / ||x|| of mu, with n
    the padded dimension (Parlett, The Symmetric Eigenvalue Problem, ch. 4).
    The radius is taken at the value under test, so it bounds that value's own
    error and grows with it: its bracket always encloses some eigenvalue, and
    only its width says how accurate mu is.  So an accuracy check must bound
    the width, not just the bracket (``plane_wave_residual_radii``), and an
    error estimate must not be a radius taken at the printed values.
    """
    mu = np.asarray(energies, dtype=float)
    N, M = cutoff, max(map(abs, potential.coefficients), default=0)
    freqs = np.arange(-N - M, N + M + 1)
    H = np.array([[potential.coefficients.get(m - n, 0) for n in freqs] for m in freqs],
                 dtype=complex) + np.diag((2 * np.pi * freqs + k) ** 2)
    H = H if H.imag.any() else H.real
    x = np.zeros((len(freqs), len(mu)), dtype=H.dtype)
    x[M:M + 2 * N + 1] = np.linalg.eigh(H[M:M + 2 * N + 1, M:M + 2 * N + 1])[1][:, :len(mu)]
    residual = np.linalg.norm(H @ x - mu * x, axis=0)
    rounding = (len(freqs) + 2) * np.finfo(float).eps * np.linalg.norm(
        np.abs(H) @ np.abs(x) + np.abs(mu) * np.abs(x), axis=0)
    return (residual + rounding) / np.linalg.norm(x, axis=0)


def plane_wave_residual_radii(potential, cutoff: int, ks, energies) -> tuple:
    """(radius, wide): ``plane_wave_residual_radius`` of each row of ``energies``
    at its k in ``ks``, and where that radius exceeds 16 eps (2 pi cutoff)^2,
    a few rounding errors on the top kinetic term.  The radius is at least mu's
    distance to the nearest eigenvalue of the padded window, so a value that
    far off is ``wide`` even where its bracket encloses an eigenvalue.
    """
    radius = np.array([plane_wave_residual_radius(potential, cutoff, k, row)
                       for k, row in zip(ks, energies)])
    return radius, radius > 16 * np.finfo(float).eps * (2 * np.pi * cutoff) ** 2


# steps whose (step, energy) coefficients ``_magnus_solutions`` holds at once
MAGNUS_BLOCK = 256


def _magnus_solutions(potential, length: float, energies, steps: int) -> np.ndarray:
    """u1, u1', u2 and u2' at x = ``length`` for -u'' + V u = E u, shape
    (4, len(energies)), with V(x) = sum_n (v(n) exp(2 pi i n x)).real, which is
    real for every ``FourierPotential``, even or not.

    u1 and u2 start from (u, u') = (1, 0) and (0, 1) at x = 0.  Each of the
    ``steps`` equal steps h is a fourth-order Magnus step with two Gauss points:
    y = (u, u') solves y' = A y, A = [[0, 1], [V - E, 0]], and the step's
    exponent h/2 (A1 + A2) + sqrt(3)/12 h^2 [A2, A1] = [[c, h], [b, -c]] is
    traceless, so its exponential is C + S times it, with C = cosh s and
    S = sinh(s)/s for s^2 = c^2 + h b (cos s and sin(s)/s where s^2 <= 0).  The
    coefficients of ``MAGNUS_BLOCK`` steps at a time are formed and applied, so
    the memory grows with the energies, not with steps times energies.
    """
    h = length / steps
    x = h * (np.arange(steps)[:, None] + 0.5 + np.array([-1.0, 1.0]) * math.sqrt(3) / 6)
    V = sum(((v * np.exp(2j * np.pi * n * x)).real for n, v in potential.coefficients.items()),
            np.zeros_like(x))
    energies = np.asarray(energies, dtype=float)
    u = np.stack([np.ones_like(energies), np.zeros_like(energies)])  # u1, u2
    du = np.stack([np.zeros_like(energies), np.ones_like(energies)])  # u1', u2'
    for block in np.split(V, range(MAGNUS_BLOCK, steps, MAGNUS_BLOCK)):
        c = (math.sqrt(3) / 12 * h * h * (block[:, 0] - block[:, 1]))[:, None]  # (step, energy)
        b = (0.5 * h * (block[:, 0] + block[:, 1]))[:, None] - h * energies
        s2 = c * c + h * b
        s = np.sqrt(np.abs(s2))
        osc = s2 <= 0
        C = np.where(osc, np.cos(s), np.cosh(s))
        S = np.where(osc, np.sinc(s / np.pi),
                     np.divide(np.sinh(s), s, out=np.ones_like(s), where=~osc))
        for m11, m12, m21, m22 in zip(C + S * c, S * h, S * b, C - S * c):
            u, du = m11 * u + m12 * du, m21 * u + m22 * du
    return np.stack([u[0], du[0], u[1], du[1]])


def hill_half_period(potential, energies, steps: int) -> np.ndarray:
    """u1, u1', u2 and u2' at x = 1/2 of ``_magnus_solutions``, shape (4, len(energies)).

    The coefficients must be real, so that V(x) = sum_n v(n) cos(2 pi n x) is
    even; then Hill's discriminant splits at the half period,
    Delta - 2 = 4 u1'(1/2) u2(1/2) and Delta + 2 = 4 u1(1/2) u2'(1/2)
    (Magnus-Winkler, Hill's Equation, 1966).  A complex coefficient makes V real
    but not even, and the split fails (``hill_discriminant`` takes the full
    period instead).
    """
    if any(v.imag for v in potential.coefficients.values()):
        raise ValueError("the half-period split needs an even potential: real coefficients")
    return _magnus_solutions(potential, 0.5, energies, steps)


def hill_discriminant(potential, energies, steps: int) -> np.ndarray:
    """Hill's discriminant Delta(E) = u1(1) + u2'(1), the trace of the monodromy.

    ``_magnus_solutions`` runs over the full period [0, 1], so complex
    coefficients need no split.
    """
    u = _magnus_solutions(potential, 1.0, energies, steps)
    return u[0] + u[3]


# rows of ``hill_half_period`` that vanish at the periodic (k = 0) and the
# antiperiodic (k = pi) band edges
HILL_PARITY = ((1, 2), (0, 3))


def _bracket_misses(functions, edges, radius, steps: int) -> tuple:
    """Which band edges lie near no zero of their fiber's functions.

    ``functions(energies, n)`` gives, for energies of shape (end, fiber, edge),
    the values at n ODE steps, shape (function, end, fiber, edge).  Edge e passes
    when one of its fiber's functions f changes sign within r = radius + d / |f'|
    of e, where d, the larger step-halving difference |f_steps - f_2steps| at
    e -/+ radius, is the ODE's error.  Taking f linear on [e - radius, e + radius],
    that holds exactly when f(e - radius) and f(e + radius) have opposite signs or
    one of them lies within d of zero.  Returns (missed, r), each of the shape of
    ``edges``, with r from the function that gives the smallest; r is inf where
    every function takes one value at both ends, which leaves no slope to bound by.
    """
    edges = np.asarray(edges, dtype=float)
    radius = np.broadcast_to(radius, edges.shape)
    ends = edges + np.multiply.outer([-1.0, 1.0], radius)  # (end, fiber, edge)
    coarse, fine = functions(ends, steps), functions(ends, 2 * steps)
    err = np.abs(fine - coarse).max(axis=1)
    lo, hi = fine[:, 0], fine[:, 1]
    bracketed = np.abs(lo + hi) <= np.abs(lo - hi) + 2 * err
    with np.errstate(divide="ignore"):
        r = radius + np.min(2 * radius * err / np.abs(hi - lo), axis=0)
    return ~bracketed.any(axis=0), r


def hill_edge_misses(potential, edges, radius, steps: int = 1600) -> tuple:
    """Which 1d band edges no parity function of their fiber brackets.

    ``edges`` has shape (2, m): row 0 from the k = 0 fiber, row 1 from k = pi;
    ``radius`` broadcasts against it.  The functions are the two rows of
    ``hill_half_period`` that ``HILL_PARITY`` names for the fiber, so the
    coefficients must be real; the test is ``_bracket_misses``.
    """
    def parity_values(ends, n):  # (function, end, fiber, edge)
        u = hill_half_period(potential, ends.ravel(), n).reshape((4,) + ends.shape)
        return np.stack([u[list(rows), :, k] for k, rows in enumerate(HILL_PARITY)], axis=2)

    return _bracket_misses(parity_values, edges, radius, steps)


def hill_discriminant_misses(potential, edges, radius, steps: int = 3200) -> tuple:
    """Which 1d band edges no zero of Delta - 2 (k = 0) or Delta + 2 (k = pi) brackets.

    ``edges`` and ``radius`` are as in ``hill_edge_misses``, but the one function of
    each fiber is ``hill_discriminant`` over the full period, so complex
    coefficients are checked too; the test is ``_bracket_misses``.  At a gap much
    narrower than sqrt(ODE error / |Delta''|) both zeros fall in the noise, and
    the test cannot tell a moved edge from a true one.
    """
    def discriminant_values(ends, n):  # (1, end, fiber, edge)
        delta = hill_discriminant(potential, ends.ravel(), n).reshape(ends.shape)
        return (delta - np.array([2.0, -2.0])[:, None])[None]

    return _bracket_misses(discriminant_values, edges, radius, steps)


def hill_sample_misses(potential, ks, energies, radius, steps: int = 1600) -> tuple:
    """Which band samples lie near no root of Delta(E) - 2 cos k.

    ``energies`` has one row per k in ``ks``; ``radius`` broadcasts against it.
    Take every k strictly inside (0, pi): there Delta is strictly monotone
    in each band, so the root is simple, while at k = 0 and pi the roots are
    near-double at tiny gaps (``hill_edge_misses`` checks those).  Delta is the
    half-period split 2 (u1 u2' + u1' u2) of ``hill_half_period`` when every
    coefficient is real, else ``hill_discriminant`` with twice the steps, so
    both step with the same length; the test is ``_bracket_misses``.
    """
    even = not any(v.imag for v in potential.coefficients.values())

    def discriminant_values(ends, n):  # (1, end, k, sample)
        if even:
            u1, du1, u2, du2 = hill_half_period(potential, ends.ravel(), n)
            delta = 2 * (u1 * du2 + du1 * u2)
        else:
            delta = hill_discriminant(potential, ends.ravel(), 2 * n)
        return (delta.reshape(ends.shape) - 2 * np.cos(np.asarray(ks))[:, None])[None]

    return _bracket_misses(discriminant_values, energies, radius, steps)


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
