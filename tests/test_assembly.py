"""Band edges into band sets, gap detection, spectral measure, and the IDS."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import distance_to_bands

from blochspec import harper
from blochspec.harper import HarperParams, cantor_proxy, ids
from blochspec.model import (
    BandSet,
    RationalFlux,
    bands_from_edges,
    interior_gaps,
)


# ---------------------------------------------------------------- band sets

def test_bandset_invariants():
    BandSet(((0.0, 1.0), (2.0, 3.0)))
    BandSet(((0.0, 1.0), (1.0, 2.0)))  # neighbours may touch
    with pytest.raises(ValueError):
        BandSet(((0.0, 1.0), (0.5, 2.0)))  # but not overlap
    with pytest.raises(ValueError):
        BandSet(((1.0, 0.0),))


@pytest.mark.parametrize("intervals", [
    ((0.0, 1.0), (2.0, math.nan)),
    ((0.0, 1.0), (math.nan, 3.0)),
    ((math.nan, math.nan),),
    ((0.0, math.inf),),
    ((-math.inf, 0.0), (1.0, 2.0)),
], ids=["nan-top", "nan-bottom", "nan-both", "inf-top", "inf-bottom"])
def test_bandset_rejects_a_non_finite_edge(intervals):
    # a NaN edge fails every comparison, so it once passed the order and overlap checks
    with pytest.raises(ValueError, match="not finite"):
        BandSet(intervals)


def test_merge_rejects_empty_and_ragged():
    with pytest.raises(ValueError):
        bands_from_edges([])
    with pytest.raises(ValueError):
        bands_from_edges([0.0, 1.0, 2.0])  # an odd number of edges cannot pair


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
)
def test_edges_of_a_band_set_pair_back_into_it(raw):
    # the edges of a band set pair back into the same band set
    merged = bands_from_edges([x for iv in raw for x in iv])
    again = bands_from_edges([x for iv in merged.intervals for x in iv])
    assert again.intervals == merged.intervals
    # nothing merges unless named closed, so a tie is a gap of width 0
    assert len(merged.intervals) == len(raw)
    for (_, b0), (a1, _) in zip(merged.intervals, merged.intervals[1:]):
        assert a1 - b0 >= 0


def test_closed_gap_merges_even_with_its_edges_the_wrong_way_round():
    # roundoff may put the upper band's bottom edge below the lower band's top edge
    assert bands_from_edges([-1.0, 1e-16, -1e-16, 1.0], closed={1}).intervals == ((-1.0, 1.0),)
    assert len(bands_from_edges([-1.0, 1e-16, -1e-16, 1.0]).intervals) == 2


def test_exact_tie_stays_a_gap_of_width_zero():
    bands = bands_from_edges([-1.0, 0.5, 0.5, 1.0])
    assert bands.intervals == ((-1.0, 0.5), (0.5, 1.0))
    assert interior_gaps(bands) == [(0.5, 0.5)]


def test_gap_one_ulp_wide_stays_open():
    top = np.nextafter(0.5, 1.0)
    assert bands_from_edges([-1.0, 0.5, top, 1.0]).intervals == ((-1.0, 0.5), (top, 1.0))


# ---------------------------------------------------------------- gaps and measure

def test_gap_between_two_bands():
    bands = BandSet(((0.0, 1.0), (2.0, 3.0)))
    assert interior_gaps(bands) == [(1.0, 2.0)]
    # a point band still bounds its gaps
    assert interior_gaps(BandSet(((0.0, 0.0), (1.0, 2.0), (3.0, 3.0)))) == [(0.0, 1.0), (2.0, 3.0)]
    assert interior_gaps(BandSet(((-4.0, 4.0),))) == interior_gaps(BandSet(())) == []


def test_touching_bands_leave_a_gap_of_width_zero():
    # two bands meeting at 0 stay two unless the gap is named closed
    bands = bands_from_edges([-2.0, 0.0, 0.0, 2.0])
    assert bands.intervals == ((-2.0, 0.0), (0.0, 2.0))
    assert interior_gaps(bands) == [(0.0, 0.0)]
    assert interior_gaps(bands_from_edges([-2.0, 0.0, 0.0, 2.0], closed={1})) == []


def test_distance_to_bands():
    # the test oracle that the band-set checks of the other modules measure with
    bands = BandSet(((0.0, 1.0), (3.0, 4.0)))
    d = distance_to_bands(bands, [0.5, 2.0, 5.0])
    assert np.allclose(d, [0.0, 1.0, 1.0])
    assert distance_to_bands(BandSet(()), [0.0, 1.0]).tolist() == [math.inf, math.inf]


# ---------------------------------------------------------------- IDS

@pytest.mark.parametrize("egrid, message", [
    ([1.0, 0.0], "ascending"),
    ([0.0, np.nan], "NaN"),
    ([[0.0, 1.0], [2.0, 3.0]], "one-dimensional"),
], ids=["descending", "nan", "2d"])
def test_ids_checks_its_grid_before_solving(monkeypatch, egrid, message):
    def no_edges(_params):
        raise AssertionError("the edge fibers were solved before the grid was checked")

    monkeypatch.setattr(harper, "_edge_fibers", no_edges)
    with pytest.raises(ValueError, match=message):
        ids(HarperParams(flux=RationalFlux(1, 3)), egrid=egrid)


def test_ids_above_and_below_spectrum():
    params = HarperParams(flux=RationalFlux(0, 1))
    _, values = ids(params, egrid=np.array([-4.5, 4.0 + 1e-6]), kgrid=32)
    assert values.tolist() == [0.0, 1.0]


def test_ids_rejects_nan_energy_and_takes_infinities():
    params = HarperParams(flux=RationalFlux(1, 3))
    with pytest.raises(ValueError):
        ids(params, egrid=np.array([0.0, np.nan]))
    _, values = ids(params, egrid=np.array([-np.inf, np.inf]))
    assert values.tolist() == [0.0, 1.0]


def test_ids_half_filling_at_flux_half_touching_point():
    # the two bands touch at 0 (up to a roundoff-sized gap), where symmetry pins
    # the value whichever side of that gap 0 falls on
    params = HarperParams(flux=RationalFlux(1, 2))
    _, values = ids(params, egrid=np.array([0.0]), kgrid=63)
    assert abs(values[0] - 0.5) <= 1e-6


def test_ids_default_grid_spans_padded_hull():
    params = HarperParams(flux=RationalFlux(1, 2))
    energies, values = ids(params, kgrid=16, points=128)
    assert energies.size == 128
    assert values[0] == 0.0 and values[-1] == 1.0
    assert np.all(np.diff(values) >= 0)


def test_ids_constant_across_gap():
    params = HarperParams(flux=RationalFlux(1, 3))
    # lowest gap of the flux-1/3 spectrum is (-2, 1 - sqrt(3))
    lo, hi = -2.0, 1.0 - math.sqrt(3.0)
    probes = np.array([lo + 0.05, 0.5 * (lo + hi), hi - 0.05])
    _, values = ids(params, egrid=probes, kgrid=32)
    assert values.tolist() == [1.0 / 3.0] * 3


# ---------------------------------------------------------------- cantor proxy

def test_cantor_proxy_single_flux():
    rows = cantor_proxy([RationalFlux(0, 1)])
    assert rows[0][1] == pytest.approx(8.0, abs=1e-8)


def test_cantor_proxy_sums_band_widths():
    # the measure is the sum of the spectrum's band widths in band order,
    # so every printed measure keeps its bytes
    fluxes = [RationalFlux(1, 3), RationalFlux(2, 5), RationalFlux(3, 8)]
    for lam in (0.5, 1.0, 2.0):
        for flux, measure in cantor_proxy(fluxes, lam=lam):
            intervals = harper.harper_spectrum(HarperParams(flux=flux, lam=lam)).intervals
            assert len(intervals) > 1
            assert measure == sum(b - a for a, b in intervals)


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

