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
and the raw edges of ``band_edges`` are used: no band merging, no IDS code.
"""

import math

import numpy as np
import pytest

from blochspec.harper import HarperParams, band_edges, farey_fractions

MAX_Q = 40
HOELDER_CONSTANT = 6.0


def _label(j: int, p: int, q: int) -> int:
    """The t of j = s q + t p with |t| <= q / 2."""
    t = j * pow(p, -1, q) % q
    return t - q if t > q / 2 else t


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_gap_labels_agree_between_farey_neighbours(lam):
    fluxes = farey_fractions(MAX_Q)
    edges = {flux: band_edges(HarperParams(flux=flux, lam=lam)) for flux in fluxes}
    checked, failures = 0, []
    for left, right in zip(fluxes, fluxes[1:]):
        for a, b in ((left, right), (right, left)):
            p, q, p2, q2 = a.p, a.q, b.p, b.q
            assert abs(p2 * q - p * q2) == 1, (a, b)
            delta = HOELDER_CONSTANT * math.sqrt(2.0 * lam * abs(p / q - p2 / q2))
            e = edges[a]
            for j in range(1, q):  # the gap with j bands below it
                lo, hi = e[2 * j - 1], e[2 * j]
                if (hi - lo) / 2 <= delta:
                    continue
                below = int(np.searchsorted(edges[b], 0.5 * (lo + hi)))
                assert below % 2 == 0, (a, b, j)  # the energy is in a gap at b too
                checked += 1
                if below // 2 * q - j * q2 != _label(j, p, q) * (p2 * q - p * q2):
                    failures.append((str(a), str(b), j))
    assert failures == []
    assert checked > 1000
