"""Harper (almost-Mathieu) operators at rational flux and Hofstadter butterflies.

At flux p/q the magnetic translations reduce the lattice operator to a q x q
Bloch matrix over the magnetic Brillouin zone.  By the Chambers relation the
spectrum is exactly q bands (q - 1 for even q, where the centre pair touches)
whose edges are the eigenvalues of two real Bloch matrices, and the same
relation gives the IDS through the discriminant Delta(E) (``ids``);
``cantor_proxy`` follows the band measure along rational approximants.  A
direct-space truncation on a long open chain is an independent oracle for
both.  Its boundary states are told apart from its eigenvalues alone, by the
resolvent's diagonal at the chain ends (``_edge_weight``).  No path here
diagonalises a k-grid or forms an eigenvector.
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

# direct-space eigenvalues with more than half their spectral weight on the
# outer 2q sites at either end are open-boundary artifacts, not bulk spectrum
EDGE_MASS_THRESHOLD = 0.5
# an edge state's weight must exceed the threshold by this margin: a chain
# and its mirror image split a weight of exactly 0.5 (a state shared evenly
# by both ends) on either side of it by roundoff, so an exact tie stays bulk
EDGE_MASS_MARGIN = 1e-6
# the edge weight reads the resolvent at distance eta = EDGE_ETA * max(1,
# max |eigenvalue|) from each eigenvalue: far above the eigenvalues' own error
# (a few 1e-14), far below the spacing of separated states
EDGE_ETA = 1e-11
# rows of the eigenvalue-difference block summed at once for Im tr G
TRACE_BLOCK = 64


@dataclass(frozen=True)
class HarperParams:
    """Almost-Mathieu parameters: flux p/q, coupling lam, phase offset theta.

    lam = 1 is the isotropic Hofstadter case.  theta shifts the cosine in the
    direct-space operator; the Bloch matrices absorb it into k2, so spectra
    over a full k-grid do not depend on it.
    """

    flux: RationalFlux
    lam: float = 1.0
    theta: float = 0.0

    def __post_init__(self):
        if not 0 < self.lam <= LAM_MAX:
            raise ValueError(f"coupling lam must lie in (0, {LAM_MAX!r}], got {self.lam}")
        if not (0.0 <= self.theta < TWO_PI):
            raise ValueError(f"phase offset {self.theta} outside [0, 2*pi)")


def _onsite(params: HarperParams, k2) -> np.ndarray:
    """Bloch onsite energies 2*lam*cos(k2 + 2*pi*p*j/q), shape (..., q) for k2 of shape (...).

    The Bloch matrix at (k1, k2) is ``tridiagonal(_onsite(params, k2), exp(i*k1))``.
    """
    p, q = params.flux.p, params.flux.q
    return 2.0 * params.lam * np.cos(np.asarray(k2, dtype=float)[..., None]
                                     + TWO_PI * p * np.arange(q) / q)


def band_edges(params: HarperParams) -> np.ndarray:
    """All 2q band edges at rational flux, ascending.

    Chambers (Phys. Rev. 140, A135, 1965): det(E - H(k)) = Delta(E) - c(k),
    where c(k) = 2 cos k1 + 2 lam^q cos(q k2) up to a sign, so every band
    edge solves Delta(E) = c at an extremum of c.  The extrema are (k1, k2) =
    (0, 0) and (pi, pi/q), where the Bloch matrices are real (corner phases
    +1 and -1); each fiber contributes one edge per band.
    """
    mats = tridiagonal(_onsite(params, [0.0, math.pi / params.flux.q]), [1.0, -1.0])
    return np.sort(eigensolve(mats, flux=params.flux), axis=None)


def scaled_discriminant(params: HarperParams, energies) -> np.ndarray:
    """Chambers' discriminant Delta(E) in units of 2 * max(1, lam^q).

    det(E - H(k1, k2)) = D(E, k2) - 2 cos k1, where D is the trace of the
    period-q transfer-matrix product prod_n [[E - d_n(k2), -1], [1, 0]] and
    D(E, k2) = Delta(E) +- 2 lam^q cos(q k2); the mean over k2 = 0 and pi/q
    is Delta.  The product is rescaled by a power of two after every step, so
    neither it nor lam^q overflows at large q.  Inside the bands the result
    lies in [-2, 2].
    """
    q, lam = params.flux.q, params.lam
    e = np.asarray(energies, dtype=float)[..., None]
    diag = _onsite(params, [0.0, math.pi / q]).T
    # columns (a, c) and (b, d) of the product, started at the identity
    a, b = np.ones(e.shape[:-1] + (2,)), np.zeros(e.shape[:-1] + (2,))
    c, d = b.copy(), a.copy()
    log2_scale = np.zeros(e.shape)
    for dn in diag:
        x = e - dn
        a, b, c, d = x * a - c, x * b - d, a, b
        big = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.maximum(np.abs(c), np.abs(d)))
        exp2 = np.frexp(big.max(axis=-1, keepdims=True))[1]
        a, b, c, d = (np.ldexp(v, -exp2) for v in (a, b, c, d))
        log2_scale += exp2
    trace = (a + d).sum(axis=-1, keepdims=True) / 4.0
    return (trace * np.exp2(log2_scale - max(q * math.log2(lam), 0.0)))[..., 0]


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
    inside branch j, IDS(E) = (j + F(s_j Delta(E))) / q with s_j =
    (-1)^(q-1-j) and F the distribution function of 2 cos k1 + 2 lam^q cos k2
    (``_torus_fraction``, with the larger of the two amplitudes integrated in
    closed form and ``kgrid`` nodes for the other), and in gap j it is
    exactly j/q.  With ``egrid=None`` a uniform grid of ``points`` energies
    spans the band hull padded by IDS_HULL_PADDING on each side.  A NaN
    energy is rejected; -inf and +inf give 0 and 1.
    """
    if kgrid < 1:
        raise ValueError(f"need at least one quadrature node, got kgrid={kgrid}")
    if egrid is None and points < 2:
        raise ValueError(f"need at least two energies, got points={points}")
    edges = band_edges(params)
    q = params.flux.q
    if egrid is None:
        lo, hi = float(edges[0]), float(edges[-1])
        pad = IDS_HULL_PADDING * (hi - lo if hi > lo else 1.0)
        egrid = np.linspace(lo - pad, hi + pad, points)
    egrid = np.asarray(egrid, dtype=float)
    if np.isnan(egrid).any():
        raise ValueError("IDS energy grid contains NaN")
    below = np.searchsorted(edges, egrid, side="right")
    values = (below // 2) / q
    inside = below % 2 == 1
    if inside.any():
        j = below[inside] // 2
        sign = np.where((q - 1 - j) % 2, -1.0, 1.0)
        y = sign * scaled_discriminant(params, egrid[inside])
        rho = 2.0 ** (-q * abs(math.log2(params.lam)))  # min(lam^q, lam^-q)
        values[inside] = (j + _torus_fraction(y, rho, kgrid)) / q
    return assembly.IDSCurve(egrid, values)


def harper_spectrum(params: HarperParams) -> assembly.BandSet:
    """Spectrum at rational flux: the band edges paired into bands."""
    return assembly.bands_from_edges(band_edges(params))


def direct_space_harper(params: HarperParams, sites: int) -> np.ndarray:
    """Ascending eigenvalues of the open-boundary direct-space truncation.

    sites x sites tridiagonal matrix with diagonal 2*lam*cos(2*pi*n*p/q + theta)
    and unit hopping; lam, p/q and theta all come from ``params``.
    """
    return eigensolve(tridiagonal(_direct_space_diag(params, sites)), flux=params.flux)


def _direct_space_diag(params: HarperParams, sites: int) -> np.ndarray:
    """Onsite energies 2*lam*cos(2*pi*n*p/q + theta) for n < sites, all read from ``params``."""
    if sites < params.flux.q:
        raise ValueError("direct-space truncation must cover at least one magnetic cell")
    # the onsite term is written out here, not taken from ``_onsite``, so the
    # direct-space oracle stays an independent definition of the operator
    n = np.arange(sites)
    return 2.0 * params.lam * np.cos(TWO_PI * n * params.flux.p / params.flux.q + params.theta)


def _edge_weight(diag: np.ndarray, w: np.ndarray, edge: int) -> np.ndarray:
    """Share of the spectral weight at each eigenvalue on the outer ``edge`` sites at either end.

    With G = (J - z)^-1 for the chain J (``diag``, unit hopping, eigenvalues
    ``w``) and z_i = w_i + i*eta, the weight of w_i is the sum of Im G_jj(z_i)
    over the end sites j (a site in both ends counts twice) divided by
    Im tr G(z_i).  For w_i farther than eta from every other eigenvalue this
    is its eigenvector's end mass; for a cluster narrower than eta it is the
    cluster's mean end mass, which no choice of basis inside the cluster
    changes.

    G_jj = 1 / (d_j - z - (L_j + R_j)), where L_j and R_j are the Schur
    complements of the chain left and right of site j: L_0 = 0 and
    L_{j+1} = t^2 / (d_j - z - L_j), and R alike from the other end.  Both
    sweeps run over all eigenvalues at once and keep only the end sites.
    Every denominator has imaginary part at most -eta, so none vanishes and
    no sign cancels.  Im tr G(z_i) = sum_k eta / ((w_k - w_i)^2 + eta^2) is
    summed TRACE_BLOCK rows at a time, so no n x n array is held.  All of it
    runs in units of max(1, max |w|), where eta = EDGE_ETA and the hopping
    is t = 1 / max(1, max |w|), so nothing overflows at any coupling.
    """
    n = diag.size
    scale = max(1.0, float(np.abs(w).max()))
    d, x, hop2 = diag / scale, w / scale, scale ** -2.0
    count = np.zeros(n, dtype=int)
    count[:edge] += 1
    count[n - edge:] += 1
    shift = -x - 1j * EDGE_ETA  # d_j - z_i = d_j + shift_i
    left = np.empty((np.count_nonzero(count), n), dtype=complex)
    L = np.zeros(n, dtype=complex)
    slot = 0
    for j in range(n):
        if count[j]:
            left[slot] = L
            slot += 1
        L = hop2 / (d[j] + shift - L)
    num = np.zeros(n)
    R = np.zeros(n, dtype=complex)
    for j in range(n - 1, -1, -1):
        if count[j]:
            slot -= 1
            num += count[j] * (EDGE_ETA / (d[j] + shift - (left[slot] + R))).imag
        R = hop2 / (d[j] + shift - R)
    den = np.empty(n)
    for i in range(0, n, TRACE_BLOCK):
        gap = (x - x[i:i + TRACE_BLOCK, None]) / EDGE_ETA
        den[i:i + TRACE_BLOCK] = (1.0 / (1.0 + gap * gap)).sum(axis=1)
    return num / den


def direct_space_bulk(params: HarperParams, sites: int):
    """Split the direct-space spectrum of ``direct_space_harper`` (phase
    offset ``params.theta``) into bulk and boundary eigenvalues.

    An eigenvalue counts as boundary-localized when more than
    EDGE_MASS_THRESHOLD of its spectral weight lies on the outer 2q sites at
    either end (``_edge_weight``), by more than EDGE_MASS_MARGIN; those are
    artifacts of the open boundary.
    Only eigenvalues are computed: the weights come from the resolvent's
    diagonal at the chain ends, so no eigenvector is formed.
    """
    w = direct_space_harper(params, sites)
    diag = _direct_space_diag(params, sites)
    weight = _edge_weight(diag, w, min(2 * params.flux.q, sites))
    is_edge = weight > EDGE_MASS_THRESHOLD + EDGE_MASS_MARGIN
    return w[~is_edge], w[is_edge]


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
