"""Band sets, gap detection and spectral measure: interval algebra.

Band edges come in as the eigenvalues of the few fibers where the band
functions are extremal; this module pairs them into bands (closed intervals
in ascending order; neighbours may touch), finds the gaps and measures them.
The operators that produce the edges live in ``harper`` and ``fibering``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
            clean.append((a, b))
        for (a0, b0), (a1, b1) in zip(clean, clean[1:]):
            if not b0 <= a1:
                raise ValueError(f"intervals [{a0}, {b0}] and [{a1}, {b1}] overlap")
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


def lebesgue_measure(bands: BandSet) -> float:
    return float(sum(b - a for a, b in bands.intervals))

