"""Band sets, gap detection, spectral measure, and IDS curves: interval algebra.

Band edges come in as the eigenvalues of the few fibers where the band
functions are extremal; this module pairs them into bands (closed intervals
in ascending order; neighbours may touch), finds the gaps and measures them.
The operators that produce the edges and IDS values live in ``harper`` and
``fibering``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class BandSet:
    """Closed intervals [a_i, b_i]: bands in ascending order; neighbours may touch."""

    intervals: tuple

    def __post_init__(self):
        clean = []
        for iv in self.intervals:
            a, b = float(iv[0]), float(iv[1])
            if a > b:
                raise ValueError(f"interval [{a}, {b}] is reversed")
            clean.append((a, b))
        for (a0, b0), (a1, b1) in zip(clean, clean[1:]):
            if a1 < b0:
                raise ValueError(f"intervals [{a0}, {b0}] and [{a1}, {b1}] overlap")
        object.__setattr__(self, "intervals", tuple(clean))


@dataclass(frozen=True, eq=False)
class IDSCurve:
    """Integrated density of states on an energy grid, values in [0, 1]."""

    energies: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float).copy()
        v = np.asarray(self.values, dtype=float).copy()
        if e.shape != v.shape or e.ndim != 1:
            raise ValueError("energies and values must be flat arrays of equal length")
        if np.any(np.diff(e) < 0):
            raise ValueError("energy grid must be ascending")
        if np.any(np.diff(v) < 0):
            raise ValueError("IDS values must be non-decreasing")
        if e.size and (v[0] < 0.0 or v[-1] > 1.0):
            raise ValueError("IDS values must lie in [0, 1]")
        e.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "values", v)


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

