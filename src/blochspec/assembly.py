"""Band sets, gap detection, spectral measure, and IDS curves: interval algebra.

Band edges come in as the eigenvalues of the few fibers where the band
functions are extremal; this module pairs them into finite unions of disjoint
closed intervals, finds the gaps and measures them.  The operators that
produce the edges and IDS values live in ``harper`` and ``fibering``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Bands that touch (the centre pair of Harper at even q, the free case in 1d)
# show a "gap" of eigensolver roundoff: at most 150 eps*||H|| for Harper with
# q <= 50 and lam in {1/2, 1, 2}.  Genuine Harper gaps at lam = 1 and q <= 25
# are at least 3e4 eps*||H|| (flux 2/25), so a threshold between the two
# tells them apart.  From q = 29 on some genuine gaps fall below float64
# resolution and merge as well (e.g. at flux 2/35).
TOUCH_ULPS = 2048.0


@dataclass(frozen=True)
class BandSet:
    """Finite union of disjoint closed intervals [a_i, b_i], sorted."""

    intervals: tuple

    def __post_init__(self):
        clean = []
        for iv in self.intervals:
            a, b = float(iv[0]), float(iv[1])
            if a > b:
                raise ValueError(f"interval [{a}, {b}] is reversed")
            clean.append((a, b))
        for (a0, b0), (a1, b1) in zip(clean, clean[1:]):
            if a1 <= b0:
                raise ValueError(
                    f"intervals [{a0}, {b0}] and [{a1}, {b1}] are not strictly disjoint"
                )
        object.__setattr__(self, "intervals", tuple(clean))

    def __len__(self) -> int:
        return len(self.intervals)


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


def bands_from_edges(edges, scale: float | None = None) -> BandSet:
    """Band set from 2n band edges: sorted and paired as [e0, e1], [e2, e3], ...

    Adjacent bands whose gap is at most TOUCH_ULPS * eps * scale touch and
    merge; ``scale`` is the norm of the fibers the edges came from and
    defaults to the largest edge magnitude.
    """
    e = np.sort(np.asarray(edges, dtype=float), axis=None)
    if e.size == 0 or e.size % 2:
        raise ValueError(f"need a positive, even number of band edges, got {e.size}")
    if scale is None:
        scale = float(np.abs(e).max())
    tol = TOUCH_ULPS * np.finfo(float).eps * max(scale, np.finfo(float).tiny)
    merged = []
    for a, b in zip(e[0::2].tolist(), e[1::2].tolist()):  # sorted pairs never overlap
        if merged and a - merged[-1][1] <= tol:
            merged[-1][1] = b
        else:
            merged.append([a, b])
    return BandSet(merged)


def interior_gaps(bands: BandSet) -> list:
    """Open gaps strictly between the first and last band: (b_i, a_i+1) for
    consecutive bands [a_i, b_i] and [a_i+1, b_i+1]."""
    return [(b, a) for (_, b), (a, _) in zip(bands.intervals, bands.intervals[1:])]


def lebesgue_measure(bands: BandSet) -> float:
    return float(sum(b - a for a, b in bands.intervals))


def distance_to_bands(bands: BandSet, values) -> np.ndarray:
    """Distance from each value to the band set (0 inside a band)."""
    x = np.asarray(values, dtype=float)
    if not bands.intervals:
        return np.full_like(x, np.inf)
    d = np.full_like(x, np.inf)
    for a, b in bands.intervals:
        d = np.minimum(d, np.where((x >= a) & (x <= b), 0.0, np.minimum(np.abs(x - a), np.abs(x - b))))
    return d

