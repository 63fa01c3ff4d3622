"""Band edges into band sets, gap detection, spectral measure, and the IDS."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import branch_ranges

from blochspec.assembly import (
    TOUCH_ULPS,
    BandSet,
    IDSCurve,
    bands_from_edges,
    distance_to_bands,
    interior_gaps,
    lebesgue_measure,
)
from blochspec.harper import HarperParams, cantor_proxy, ids
from blochspec.model import RationalFlux

EPS = np.finfo(float).eps


# ---------------------------------------------------------------- band sets

def test_bandset_invariants():
    BandSet(((0.0, 1.0), (2.0, 3.0)))
    with pytest.raises(ValueError):
        BandSet(((0.0, 1.0), (1.0, 2.0)))  # touching is not disjoint
    with pytest.raises(ValueError):
        BandSet(((1.0, 0.0),))


def test_merge_rejects_empty_and_ragged():
    with pytest.raises(ValueError):
        bands_from_edges([])
    with pytest.raises(ValueError):
        bands_from_edges([0.0, 1.0, 2.0])  # an odd number of edges cannot pair
    with pytest.raises(ValueError):
        branch_ranges(np.zeros((0, 2)))


def test_edges_pair_in_sorted_order():
    # edges arrive fiber by fiber; band b is [e_2b, e_2b+1] of the sorted list
    bands = bands_from_edges([[-3.0, 0.5, 2.0], [-1.0, 1.0, 3.0]])
    assert bands.intervals == ((-3.0, -1.0), (0.5, 1.0), (2.0, 3.0))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-50, 50), st.floats(0, 10)).map(lambda t: (t[0], t[0] + t[1])),
        min_size=1,
        max_size=12,
    ),
    st.floats(1e-6, 1.0),
)
def test_coalesce_is_idempotent(raw, eps):
    # the edges of a band set pair back into the same band set
    scale = eps / (TOUCH_ULPS * EPS)
    merged = bands_from_edges([x for iv in raw for x in iv], scale)
    again = bands_from_edges([x for iv in merged.intervals for x in iv], scale)
    assert again.intervals == merged.intervals
    # every reported gap exceeds the touch tolerance
    for (_, b0), (a1, _) in zip(merged.intervals, merged.intervals[1:]):
        assert a1 - b0 > TOUCH_ULPS * EPS * scale


def test_touch_tolerance_scales_with_fiber_norm():
    scale = 1e3
    tol = TOUCH_ULPS * EPS * scale
    touching = bands_from_edges([-1.0, 0.0, 0.5 * tol, 1.0], scale)
    assert touching.intervals == ((-1.0, 1.0),)
    apart = bands_from_edges([-1.0, 0.0, 2.0 * tol, 1.0], scale)
    assert len(apart) == 2
    # the default scale is the largest edge magnitude
    assert len(bands_from_edges([-1.0, 0.0, 2.0 * TOUCH_ULPS * EPS, 1.0])) == 2
    # roundoff may order touching edges the wrong way round: still one band
    assert len(bands_from_edges([-1.0, 1e-16, -1e-16, 1.0])) == 1


# ---------------------------------------------------------------- gaps and measure

def test_gap_between_two_bands():
    bands = BandSet(((0.0, 1.0), (2.0, 3.0)))
    assert interior_gaps(bands) == [(1.0, 2.0)]
    # a point band still bounds its gaps
    assert interior_gaps(BandSet(((0.0, 0.0), (1.0, 2.0), (3.0, 3.0)))) == [(0.0, 1.0), (2.0, 3.0)]
    assert interior_gaps(BandSet(((-4.0, 4.0),))) == interior_gaps(BandSet(())) == []


def test_merged_touching_bands_leave_no_gap():
    # two bands meeting at 0 coalesce, so no gap is reported there
    merged = bands_from_edges([-2.0, 0.0, 0.0, 2.0])
    assert merged.intervals == ((-2.0, 2.0),)
    assert interior_gaps(merged) == []


def test_lebesgue_measure():
    assert lebesgue_measure(BandSet(((-4.0, 4.0),))) == 8.0
    assert lebesgue_measure(BandSet(())) == 0.0


def test_distance_to_bands():
    bands = BandSet(((0.0, 1.0), (3.0, 4.0)))
    d = distance_to_bands(bands, [0.5, 2.0, 5.0])
    assert np.allclose(d, [0.0, 1.0, 1.0])


# ---------------------------------------------------------------- IDS

def test_ids_curve_invariants():
    IDSCurve(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        IDSCurve(np.array([0.0, 1.0]), np.array([0.5, 0.4]))
    with pytest.raises(ValueError):
        IDSCurve(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValueError):
        IDSCurve(np.array([0.0, 1.0]), np.array([0.5, 1.5]))


def test_ids_above_and_below_spectrum():
    params = HarperParams(flux=RationalFlux(0, 1))
    curve = ids(params, egrid=np.array([-4.5, 4.0 + 1e-6]), kgrid=32)
    assert curve.values[0] == 0.0
    assert curve.values[1] == 1.0


def test_ids_rejects_nan_energy_and_takes_infinities():
    params = HarperParams(flux=RationalFlux(1, 3))
    with pytest.raises(ValueError):
        ids(params, egrid=np.array([0.0, np.nan]))
    curve = ids(params, egrid=np.array([-np.inf, np.inf]))
    assert curve.values.tolist() == [0.0, 1.0]


def test_ids_half_filling_at_flux_half_touching_point():
    # the two bands touch at 0 (up to a roundoff-sized gap), where symmetry pins
    # the value whichever side of that gap 0 falls on
    params = HarperParams(flux=RationalFlux(1, 2))
    curve = ids(params, egrid=np.array([0.0]), kgrid=63)
    assert abs(curve.values[0] - 0.5) <= 1e-6


def test_ids_default_grid_spans_padded_hull():
    params = HarperParams(flux=RationalFlux(1, 2))
    curve = ids(params, kgrid=16, points=128)
    assert curve.energies.size == 128
    assert curve.values[0] == 0.0 and curve.values[-1] == 1.0
    assert np.all(np.diff(curve.values) >= 0)


def test_ids_constant_across_gap():
    params = HarperParams(flux=RationalFlux(1, 3))
    # lowest gap of the flux-1/3 spectrum is (-2, 1 - sqrt(3))
    lo, hi = -2.0, 1.0 - math.sqrt(3.0)
    probes = np.array([lo + 0.05, 0.5 * (lo + hi), hi - 0.05])
    curve = ids(params, egrid=probes, kgrid=32)
    assert curve.values[0] == curve.values[1] == curve.values[2] == 1.0 / 3.0


# ---------------------------------------------------------------- cantor proxy

def test_cantor_proxy_single_flux():
    rows = cantor_proxy([RationalFlux(0, 1)])
    assert rows[0][1] == pytest.approx(8.0, abs=1e-8)


def test_cantor_proxy_requires_increasing_q():
    with pytest.raises(ValueError):
        cantor_proxy([RationalFlux(1, 3), RationalFlux(1, 2)])


def test_larger_coupling_widens_flux_half_spectrum():
    rows = cantor_proxy([RationalFlux(1, 2)], lam=1.0)
    rows2 = cantor_proxy([RationalFlux(1, 2)], lam=2.0)
    m1, m2 = rows[0][1], rows2[0][1]
    assert m1 == pytest.approx(4 * math.sqrt(2.0), abs=1e-12)
    assert m2 == pytest.approx(4 * math.sqrt(5.0), abs=1e-12)
    assert m2 > m1

