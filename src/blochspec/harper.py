"""Harper (almost-Mathieu) operators at rational flux and Hofstadter butterflies.

At flux p/q the magnetic translations reduce the lattice operator to a q x q
Bloch matrix over the magnetic Brillouin zone.  The spectrum is exactly q
bands, q - 1 for even q where the centre pair touches (van Mouche, CMP 122,
1989; Choi-Elliott-Yui, Invent. Math. 1990).  By the Chambers relation their
edges are the eigenvalues of two real Bloch matrices, the edge fibers H_0 and
H_pi, which also give the IDS through the discriminant Delta (``ids``);
``cantor_proxy`` follows the band measure along rational approximants.  Each
spectrum is exactly symmetric under E -> -E, and p/q and (q - p)/q share their
fibers, so H_0 alone is solved at odd q and ``butterfly`` solves each mirror
pair once (Hofstadter, PRB 14, 2239, 1976; ``_edge_fibers``).  The independent
oracle ``direct_space_count`` counts the eigenvalues of the open chains at the
phases 0 and pi/q below any energy by Sylvester's law of inertia.
No path here diagonalises a k-grid or the chain, or forms an eigenvector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (TWO_PI, BandSet, RationalFlux, bands_from_edges, checked_energies, checked_int,
                    eigensolve, tridiagonal)

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
    extremum c = +-(2 + 2 lam^q), which are these two fibers: each contributes
    one edge per band, and all 2q values sorted are the band edges.

    Both symmetries are exact.  cos 2*pi*(q - p)*j/q = cos 2*pi*p*j/q, so the
    flux is solved as min(p, q - p)/q.  With S = diag((-1)^j), S H(theta) S =
    -H(theta + pi); a translation by c with p*c = (q - 1)/2 (mod q) takes theta
    = pi to pi/q, and at odd q S also flips the corner phase, so spec(H_pi) =
    -spec(H_0) and H_0 alone is solved.  At even q each fiber is symmetric and
    its row is its lower half and that half negated (an average would round
    more bands to [a, a]), sorted as roundoff can lift the half's top above 0.
    """
    q = params.flux.q
    p, n = min(params.flux.p, q - params.flux.p), 2 - q % 2  # n fibers solved
    k2 = np.array([[0.0], [math.pi / q]])[:n]
    diag = 2.0 * params.lam * np.cos(k2 + TWO_PI * p * np.arange(q) / q)
    e = eigensolve(tridiagonal(diag, [1.0, -1.0][:n]), flux=params.flux)
    half = e if q % 2 else e[:, :q // 2]  # * -1.0: exact, and reuses the multiply loop
    return np.sort(np.concatenate([half, half[:, ::-1] * -1.0], axis=1).reshape(2, q))


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
        points: int = IDS_DEFAULT_POINTS) -> tuple:
    """Integrated density of states for a Harper family at rational flux, as
    the tuple ``(energies, values)`` of the ascending grid and IDS on it.

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
    given ``egrid`` must be a 1-d, ascending array of energies with no NaN,
    and is checked before anything is solved; -inf and +inf give 0 and 1.
    """
    kgrid = checked_int(kgrid, "kgrid")
    if egrid is None:
        points = checked_int(points, "points", least=2)
    else:
        egrid = checked_energies(egrid, "IDS energy grid")
        if np.any(np.diff(egrid) < 0):
            raise ValueError("IDS energy grid must be ascending")
    fibers = _edge_fibers(params)
    edges = np.sort(fibers, axis=None)
    q = params.flux.q
    if egrid is None:
        lo, hi = float(edges[0]), float(edges[-1])
        pad = IDS_HULL_PADDING * (hi - lo)
        egrid = np.linspace(lo - pad, hi + pad, points)
    below = np.searchsorted(edges, egrid, side="right")
    values = (below // 2) / q
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
    return egrid, values


def harper_spectrum(params: HarperParams) -> BandSet:
    """Spectrum at rational flux: the band edges paired into bands.

    Every gap is open but the centre gap q/2 at even q (van Mouche, CMP 122, 1989;
    Choi-Elliott-Yui, Invent. Math. 1990), which is passed as closed: only it
    merges.
    """
    q = params.flux.q
    return bands_from_edges(_edge_fibers(params), () if q % 2 else (q // 2,))


def direct_space_count(params: HarperParams, sites: int, energies) -> np.ndarray:
    """Eigenvalues below each of P energies of the two open direct-space chains, shape (2, P).

    Row r counts the sites x sites tridiagonal matrix with onsite energies
    2*lam*cos(2*pi*n*p/q + phase) for n < sites and unit hopping: row 0 the
    chain at phase 0, whose cells are the edge fiber H_0, and row 1 the chain
    at phase pi/q, whose cells are H_pi.  By Sylvester's law of inertia the
    count below E is the number of negative pivots of the LDL^T factorisation
    of the chain minus E, d_n = (a_n - E) - 1/d_(n-1) (Kahan 1966; Demmel,
    Applied Numerical Linear Algebra, sec. 5.3).  A zero pivot becomes -tiny.
    One pass over the sites carries the (2, P) pivots; no matrix is built.
    ``energies`` must be 1-d with no NaN, checked before the site count and
    the pass; -inf and +inf count 0 and ``sites``.
    """
    e = checked_energies(energies, "direct-space energies")
    p, q = params.flux.p, params.flux.q
    sites = checked_int(sites, "site count", least=q)  # one magnetic cell
    # the onsite term is written out here, not taken from ``_edge_fibers``, so the
    # direct-space oracle stays an independent definition of the operator
    n, phase = np.arange(sites), np.array([[0.0], [np.pi / q]])
    diag = 2.0 * params.lam * np.cos(TWO_PI * n * p / q + phase)
    tiny = np.finfo(float).tiny
    count = np.zeros((2, e.size), dtype=int)
    inv = np.zeros((2, e.size))
    for a in diag.T[:, :, None]:
        d = (a - e) - inv
        d[d == 0.0] = -tiny
        count += d < 0.0
        inv = 1.0 / d
    return count


def farey_fractions(max_q: int) -> list:
    """All reduced fractions p/q in [0, 1) with q <= max_q, ascending.

    No unreduced duplicates, so the denominator of every row is the honest
    magnetic period.
    """
    max_q = checked_int(max_q, "max_q")
    # the double p/q is an exact sort key: distinct fractions differ by >= 1/max_q^2 >> ulp
    return sorted((RationalFlux(p, q) for q in range(1, max_q + 1) for p in range(q)
                   if math.gcd(p, q) == 1), key=lambda flux: flux.value)


def butterfly(max_q: int, lam: float = 1.0) -> list:
    """Hofstadter butterfly: one (flux, BandSet) row per reduced flux q <= max_q,
    in increasing flux order (``farey_fractions``)."""
    fluxes = farey_fractions(max_q)
    spectra = {(f.p, f.q): harper_spectrum(HarperParams(flux=f, lam=lam))
               for f in fluxes if 2 * f.p <= f.q}
    return [(f, spectra[min(f.p, f.q - f.p), f.q]) for f in fluxes]


def cantor_proxy(approximants, lam: float = 1.0) -> list:
    """Total band measure along a sequence of rational flux approximants.

    The approximants must come in order of increasing denominator; each flux
    is paired with the Lebesgue measure of its spectrum, its band widths summed.
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
        out.append((flux, sum(b - a for a, b in bands.intervals)))
    return out
