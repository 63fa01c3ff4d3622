"""Harper (almost-Mathieu) operators at rational flux and Hofstadter butterflies.

At flux p/q the magnetic translations reduce the lattice operator to a q x q
Bloch matrix over the magnetic Brillouin zone.  The spectrum is exactly q
bands, q - 1 for even q where the centre pair touches (van Mouche, CMP 122,
1989; Choi-Elliott-Yui, Invent. Math. 1990).  By the Chambers relation their
edges are the eigenvalues of two real Bloch matrices, the edge fibers H_0 and
H_pi, and det(E - H_0) + det(E - H_pi) = 2 Delta(E) gives the IDS from the same
eigenvalues through the discriminant Delta (``ids``); ``cantor_proxy``
follows the band measure along rational approximants.  An independent
oracle for both is the pair of long open direct-space chains at the phases 0
and pi/q, those of the two edge fibers: ``direct_space_count`` counts the
eigenvalues of both below any energy by Sylvester's law of inertia, and in
gap j a chain of m cells has j*m of them up to a fixed boundary slack.
No path here diagonalises a k-grid or the chain, or forms an eigenvector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import assembly
from .model import TWO_PI, RationalFlux, eigensolve, tridiagonal

# largest coupling: the IDS energy grid spans 1.1 * (4 + 4 lam), which must
# stay finite with room for eigensolver roundoff in the band edges
LAM_MAX = float(np.finfo(float).max) / 8

IDS_DEFAULT_POINTS = 512
IDS_DEFAULT_NODES = 64
IDS_HULL_PADDING = 0.05


@dataclass(frozen=True)
class HarperParams:
    """Almost-Mathieu parameters: flux p/q and coupling lam (lam = 1: isotropic Hofstadter)."""

    flux: RationalFlux
    lam: float = 1.0

    def __post_init__(self):
        if not 0 < self.lam <= LAM_MAX:
            raise ValueError(f"coupling lam must lie in (0, {LAM_MAX!r}], got {self.lam}")


def _edge_fibers(params: HarperParams) -> np.ndarray:
    """Eigenvalues of the two edge fibers, shape (2, q), each row ascending.

    The fibers are the real Bloch matrices at (k1, k2) = (0, 0) and
    (pi, pi/q): onsite energies 2*lam*cos(k2 + 2*pi*p*j/q) for j < q, unit
    hopping, and corner phases +1 and -1.  Chambers (Phys. Rev. 140, A135,
    1965): det(E - H(k)) = Delta(E) - c(k), where c(k) = 2 cos k1 + 2 lam^q
    cos(q k2) up to a sign, so every band edge solves Delta(E) = c at an
    extremum of c.  The extrema c = +-(2 + 2 lam^q) are these two fibers, so
    det(E - H_0) + det(E - H_pi) = 2 Delta(E); each fiber contributes one
    edge per band, and all 2q values sorted are the band edges.
    """
    p, q = params.flux.p, params.flux.q
    k2 = np.array([[0.0], [math.pi / q]])
    diag = 2.0 * params.lam * np.cos(k2 + TWO_PI * p * np.arange(q) / q)
    return eigensolve(tridiagonal(diag, [1.0, -1.0]), flux=params.flux)


def _torus_fraction(y, rho: float, nodes: int) -> np.ndarray:
    """F(y) = P(cos u + rho cos v <= y) for (u, v) uniform on the torus, rho <= 1.

    The u integral is closed form, 1 - arccos(clip(y - rho cos v))/pi; the v
    integral is the mean over ``nodes`` midpoint nodes.  Non-decreasing in y.
    """
    total = np.zeros_like(y)
    for c in rho * np.cos(np.pi * (2 * np.arange(nodes) + 1) / nodes):
        total += np.arccos(np.clip(c - y, -1.0, 1.0))
    return np.minimum(total / (np.pi * nodes), 1.0)  # a sum of pi's may round above n*pi


def ids(params: HarperParams, egrid=None, kgrid: int = IDS_DEFAULT_NODES,
        points: int = IDS_DEFAULT_POINTS) -> assembly.IDSCurve:
    """Integrated density of states for a Harper family at rational flux.

    IDS(E) is the normalized trace of the spectral projection below E: the
    k-averaged number of Bloch eigenvalues up to E, divided by q.  By the
    Chambers relation E is an eigenvalue at (k1, k2) exactly when Delta(E) =
    2 cos k1 +- 2 lam^q cos(q k2), and Delta is monotone on each branch
    [e_2j, e_2j+1] of the sorted band edges, increasing on the top one.  So
    inside branch j, IDS(E) = (j + F(s_j y)) / q with y = Delta(E) / (2 max(1,
    lam^q)), s_j = (-1)^(q-1-j) and F the distribution function of cos k1 +
    min(lam^q, lam^-q) cos k2 (``_torus_fraction``, the larger amplitude
    integrated in closed form and ``kgrid`` nodes for the other), and in gap j
    it is exactly j/q.  Delta comes from the edge fibers' eigenvalues mu:
    2 Delta(E) = det(E - H_0) + det(E - H_pi), each the product of E - mu over
    its fiber.  Each factor is divided by max(1, lam) and the running product
    is renormalised by a power of two, so nothing overflows at q near 1000 or
    where lam^q does.  With ``egrid=None`` a uniform grid of ``points``
    energies spans the band hull padded by IDS_HULL_PADDING on each side; a
    given ``egrid`` must be a 1-d, ascending array of energies.  A NaN energy
    is rejected; -inf and +inf give 0 and 1.
    """
    if kgrid < 1:
        raise ValueError(f"need at least one quadrature node, got kgrid={kgrid}")
    if egrid is None and points < 2:
        raise ValueError(f"need at least two energies, got points={points}")
    if egrid is not None and np.ndim(egrid) != 1:
        raise ValueError(f"IDS energy grid must be one-dimensional, got shape {np.shape(egrid)}")
    fibers = _edge_fibers(params)
    edges = np.sort(fibers, axis=None)
    q = params.flux.q
    if egrid is None:
        lo, hi = float(edges[0]), float(edges[-1])
        pad = IDS_HULL_PADDING * (hi - lo)
        egrid = np.linspace(lo - pad, hi + pad, points)
    egrid = np.asarray(egrid, dtype=float)
    if np.isnan(egrid).any():
        raise ValueError("IDS energy grid contains NaN")
    below = np.searchsorted(edges, egrid, side="right")
    values = (below // 2) / q
    # a cast, not ``== 1``: oracle-check then loads no integer comparison loop (128 kB)
    inside = (below % 2).astype(bool)
    j = below[inside] // 2
    scale = max(1.0, params.lam)
    e = egrid[inside] / scale
    # det(E - H_f) / max(1, lam)^q for both fibers f, as mantissa * 2**exponent
    mant, exponent = np.ones((2, e.size)), np.zeros((2, e.size), dtype=np.intc)
    for mu in fibers.T / scale:
        mant, step = np.frexp(mant * (e - mu[:, None]))
        exponent += step
    sign = np.where((q - 1 - j) % 2, -1.0, 1.0)
    y = sign * np.ldexp(mant, exponent).sum(axis=0) / 4.0
    rho = 2.0 ** (-q * abs(math.log2(params.lam)))  # min(lam^q, lam^-q)
    values[inside] = (j + _torus_fraction(y, rho, kgrid)) / q
    return assembly.IDSCurve(egrid, values)


def harper_spectrum(params: HarperParams) -> assembly.BandSet:
    """Spectrum at rational flux: the band edges paired into bands.

    Every gap is open but the centre gap q/2 at even q (van Mouche, CMP 122, 1989;
    Choi-Elliott-Yui, Invent. Math. 1990), which is passed as closed: only it
    merges.
    """
    q = params.flux.q
    return assembly.bands_from_edges(_edge_fibers(params), () if q % 2 else (q // 2,))


def _direct_space_diag(params: HarperParams, sites: int) -> np.ndarray:
    """Onsite energies 2*lam*cos(2*pi*n*p/q + phase) for n < sites, shape (2, sites):
    row 0 at phase 0, row 1 at phase pi/q."""
    if sites < params.flux.q:
        raise ValueError("direct-space truncation must cover at least one magnetic cell")
    # the onsite term is written out here, not taken from ``_edge_fibers``, so the
    # direct-space oracle stays an independent definition of the operator
    n, phase = np.arange(sites), np.array([[0.0], [np.pi / params.flux.q]])
    return 2.0 * params.lam * np.cos(TWO_PI * n * params.flux.p / params.flux.q + phase)


def direct_space_count(params: HarperParams, sites: int, energies) -> np.ndarray:
    """Eigenvalues below each of P energies of the two open direct-space chains, shape (2, P).

    Row r counts the sites x sites tridiagonal matrix with diagonal
    ``_direct_space_diag`` row r and unit hopping: row 0 the chain at phase 0,
    whose cells are the edge fiber H_0, and row 1 the chain at phase pi/q,
    whose cells are H_pi.  By Sylvester's law of inertia the count below E is
    the number of negative pivots of the LDL^T factorisation of the chain
    minus E, d_n = (a_n - E) - 1/d_(n-1) (Kahan 1966; Demmel, Applied
    Numerical Linear Algebra, sec. 5.3).  A zero pivot becomes -tiny.  One
    pass over the sites carries the (2, P) pivots; no matrix is built.
    """
    e = np.asarray(energies, dtype=float)
    tiny = np.finfo(float).tiny
    count = np.zeros((2, e.size), dtype=int)
    inv = np.zeros((2, e.size))
    for a in _direct_space_diag(params, sites).T[:, :, None]:
        d = (a - e) - inv
        d[d == 0.0] = -tiny
        count += d < 0.0
        inv = 1.0 / d
    return count


def farey_fractions(max_q: int) -> list:
    """All reduced fractions p/q in [0, 1) with q <= max_q, ascending.

    Stern-Brocot/Farey next-term recurrence; no unreduced duplicates, so the
    denominator of every row is the honest magnetic period.
    """
    if max_q < 1:
        raise ValueError("need a positive denominator bound")
    out = [RationalFlux(0, 1)]
    a, b, c, d = 0, 1, 1, max_q
    while True:
        step = (max_q + b) // d
        a, b, c, d = c, d, step * c - a, step * d - b
        if (a, b) == (1, 1):
            return out
        out.append(RationalFlux(a, b))


def butterfly(max_q: int, lam: float = 1.0) -> list:
    """Hofstadter butterfly: one (flux, BandSet) row per reduced flux q <= max_q,
    in increasing flux order (``farey_fractions``)."""
    return [(flux, harper_spectrum(HarperParams(flux=flux, lam=lam)))
            for flux in farey_fractions(max_q)]


def cantor_proxy(approximants, lam: float = 1.0) -> list:
    """Total band measure along a sequence of rational flux approximants.

    The approximants must come in order of increasing denominator; the
    returned list pairs each flux with the Lebesgue measure of its spectrum.
    No monotonicity of the sequence is implied, only the overall shrinking
    that a measure-zero limiting spectrum would force.
    """
    fluxes = list(approximants)
    qs = [f.q for f in fluxes]
    if any(q1 >= q2 for q1, q2 in zip(qs, qs[1:])):
        raise ValueError("approximants must be ordered by strictly increasing denominator")
    out = []
    for flux in fluxes:
        bands = harper_spectrum(HarperParams(flux=flux, lam=lam))
        out.append((flux, assembly.lebesgue_measure(bands)))
    return out
