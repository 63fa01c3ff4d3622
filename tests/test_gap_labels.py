"""Gap labels across the butterfly: the trace of a gap projection is s + t*alpha.

The IDS in a gap of the almost-Mathieu operator at flux alpha lies in Z + alpha Z
(Pimsner-Voiculescu, Rieffel), and its integer t is the gap's Hall conductance
(TKNN 1982; Dana-Avron-Zak 1985).  The label stays constant while the gap stays
open.  By the Hoelder continuity of the spectrum in the flux (Avron-van
Mouche-Simon, CMP 132, 1990), an energy farther than
delta = 6 * (2 * lam * |alpha - alpha'|) ** 0.5 from sigma(alpha) lies in a gap at
every flux between alpha and a Farey neighbour alpha'.  With j and j' the
numbers of bands below it and j = s q + t p, the integer identity
j' q - j q' = t (p' q - p q') must then hold.  Only the integers of the fluxes
and band endpoints are used, no IDS code.  The endpoints come from two
sources: the sorted raw edge-fiber eigenvalues, with no band merging, and the
output intervals of ``harper_spectrum``, whose merged centre interval at even
q holds two bands.

The label t is also checked against the lattice Chern number of the bands below
the gap (Fukui-Hatsugai-Suzuki 2005), computed from the Bloch eigenvectors by
``oracles.lattice_chern``: the Hall conductance of TKNN is C = -t.
"""

import math

import numpy as np
import pytest

from blochspec import harper
from blochspec.harper import HarperParams, farey_fractions, harper_spectrum
from oracles import lattice_chern

MAX_Q = 50
CHERN_MAX_Q = 8
HOELDER_CONSTANT = 6.0


def _label(j: int, p: int, q: int) -> int:
    """The t of j = s q + t p with |t| <= q / 2."""
    t = j * pow(p, -1, q) % q
    return t - q if t > q / 2 else t


def _raw_edges(params):
    """Sorted band endpoints, and whether the even-q centre pair is merged."""
    return np.sort(harper._edge_fibers(params), axis=None), False


def _output_intervals(params):
    return np.ravel(harper_spectrum(params).intervals), params.flux.q % 2 == 0


def _label_failures(lam, source):
    fluxes = farey_fractions(MAX_Q)
    ends = {flux: source(HarperParams(flux=flux, lam=lam)) for flux in fluxes}

    def bands_below(flux, energy):
        e, merged_centre = ends[flux]
        below = int(np.searchsorted(e, energy))
        assert below % 2 == 0, (flux, energy)  # the energy is in a gap
        # the merged centre interval contains the touching point E = 0
        return below // 2 + int(merged_centre and energy > 0)

    checked, failures = 0, []
    for left, right in zip(fluxes, fluxes[1:]):
        for a, b in ((left, right), (right, left)):
            p, q, p2, q2 = a.p, a.q, b.p, b.q
            assert abs(p2 * q - p * q2) == 1, (a, b)
            delta = HOELDER_CONSTANT * math.sqrt(2.0 * lam * abs(p / q - p2 / q2))
            e = ends[a][0]
            for i in range(1, e.size // 2):  # the i-th gap of the endpoints
                lo, hi = e[2 * i - 1], e[2 * i]
                if (hi - lo) / 2 <= delta:
                    continue
                mid = 0.5 * (lo + hi)
                j, j2 = bands_below(a, mid), bands_below(b, mid)
                checked += 1
                if j2 * q - j * q2 != _label(j, p, q) * (p2 * q - p * q2):
                    failures.append((str(a), str(b), j))
    return checked, failures


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_gap_labels_agree_between_farey_neighbours(lam):
    checked, failures = _label_failures(lam, _raw_edges)
    assert failures == []
    assert checked > 1000


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_gap_labels_of_the_output_intervals_agree(lam):
    checked, failures = _label_failures(lam, _output_intervals)
    assert failures == []
    assert checked > 1000


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_gap_labels_are_minus_the_lattice_chern_numbers(lam):
    checked = 0
    for flux in farey_fractions(CHERN_MAX_Q):
        params = HarperParams(flux=flux, lam=lam)
        for j in range(1, flux.q):
            if 2 * j == flux.q:  # the two centre bands touch: no gap, and a link is 0/0
                continue
            chern = lattice_chern(params, j, 2 * flux.q + 2)
            assert chern == pytest.approx(-_label(j, flux.p, flux.q), abs=1e-9), (flux, j)
            checked += 1
    assert checked == 92  # every gap of every reduced p/q in (0, 1) with q <= 8
