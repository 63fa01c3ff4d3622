"""Domain types, the tridiagonal builder and the eigensolver boundary."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blochspec import (
    DiscreteCell,
    HarperParams,
    band_structure,
    band_sweep,
    direct_space_count,
    farey_fractions,
    ids,
)
from blochspec.model import (
    POTENTIAL_MAX,
    EigensolverError,
    FourierPotential,
    RationalFlux,
    eigensolve,
    tridiagonal,
    uniform_k_grid,
)

# eigenvalue agreement relative to the spectral norm
EIG_TOL = 1e-10


def random_hermitian(seed: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (a + a.conj().T) / 2


# ---------------------------------------------------------------- eigensolve

def test_eig_identity():
    w = eigensolve(np.eye(3))
    assert np.allclose(w, [1.0, 1.0, 1.0], rtol=0, atol=1e-14)


def test_eig_diagonal_sorts_ascending():
    w = eigensolve(np.diag([3.0, 1.0, 2.0]))
    assert np.allclose(w, [1.0, 2.0, 3.0], rtol=0, atol=1e-14)


def test_eig_two_by_two_closed_form():
    w = eigensolve(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0], rtol=0, atol=1e-14)


def test_eigensolve_failure_carries_flux_and_k(monkeypatch):
    def boom(a):
        raise np.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(np.linalg, "eigvalsh", boom)
    flux = RationalFlux(2, 5)
    with pytest.raises(EigensolverError, match="3x3 matrices at flux 2/5 at k 0.5") as info:
        eigensolve(np.eye(3), flux=flux, k=0.5)
    assert info.value.flux == flux and info.value.k == 0.5


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(1, 30))
def test_eigenvalue_sum_equals_trace(seed, n):
    a = random_hermitian(seed, n)
    w = eigensolve(a)
    scale = max(np.abs(w).max(), 1.0)
    assert abs(w.sum() - np.trace(a).real) <= n * EIG_TOL * scale


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), n=st.integers(2, 30))
def test_eigenvalues_invariant_under_householder_conjugation(seed, n):
    a = random_hermitian(seed, n)
    rng = np.random.default_rng(seed + 1)
    u = rng.normal(size=n) + 1j * rng.normal(size=n)
    h = np.eye(n) - 2.0 * np.outer(u, u.conj()) / np.vdot(u, u).real
    w_a = eigensolve(a)
    w_b = eigensolve(h @ a @ h.conj().T)
    scale = max(np.abs(w_a).max(), 1.0)
    assert np.abs(w_a - w_b).max() <= n * EIG_TOL * scale


def test_real_symmetric_input_stays_real():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 6))
    a = a + a.T
    w = eigensolve(a)
    assert np.abs(w - eigensolve(a.astype(complex))).max() <= EIG_TOL * np.abs(w).max()


# ---------------------------------------------------------------- tridiagonal builder

def test_tridiagonal_entries_and_dtype():
    d = np.array([0.5, -1.0, 2.0, 0.25])
    open_chain = tridiagonal(d, 0.0)
    assert open_chain.dtype == np.float64
    assert np.array_equal(open_chain, np.diag(d) + np.eye(4, k=1) + np.eye(4, k=-1))
    assert tridiagonal(d, -1.0).dtype == np.float64
    phase = np.exp(0.7j)
    cyclic = tridiagonal(d, phase)
    assert cyclic.dtype == np.complex128
    assert cyclic[3, 0] == phase and cyclic[0, 3] == phase.conjugate()
    assert np.array_equal(cyclic[1:3], open_chain[1:3])
    assert tridiagonal(d.astype(complex), 0.0).dtype == np.complex128


def test_tridiagonal_terms_add_for_one_and_two_sites():
    # n = 1: the corner bond is the diagonal; n = 2: it doubles the hopping bond
    phase = np.exp(0.3j)
    assert tridiagonal([0.5], phase)[0, 0] == 0.5 + phase + phase.conjugate()
    two = tridiagonal([0.0, 0.0], phase)
    assert two[1, 0] == 1.0 + phase and two[0, 1] == 1.0 + phase.conjugate()
    assert np.array_equal(two, two.conj().T)


def test_tridiagonal_phase_broadcasts_against_batch_axes():
    diag = np.arange(15.0).reshape(5, 3)          # batch (5,), n = 3
    phases = np.exp(1j * np.arange(4.0))[:, None]  # batch (4, 1)
    mats = tridiagonal(diag, phases)
    assert mats.shape == (4, 5, 3, 3)
    for a in range(4):
        for b in range(5):
            assert np.array_equal(mats[a, b], tridiagonal(diag[b], phases[a, 0]))
    assert tridiagonal(diag[0], np.ones(7)).shape == (7, 3, 3)


# ---------------------------------------------------------------- domain types

@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan, complex(1.0, np.inf)])
def test_potential_rejects_non_finite_coefficients(value):
    with pytest.raises(ValueError, match="not finite"):
        FourierPotential({1: value, -1: complex(value).conjugate()})


@pytest.mark.parametrize("frequency", [np.inf, -np.inf, np.nan])
def test_potential_rejects_non_finite_frequencies(frequency):
    # int(inf) would raise OverflowError, not the ValueError of every bad input
    with pytest.raises(ValueError, match="integer frequency"):
        FourierPotential({frequency: 1.0})


def test_potential_norm_is_capped():
    # the cap is on the sum over both members of each pair, and is inclusive
    half = POTENTIAL_MAX / 2
    assert FourierPotential({1: half, -1: half}).coefficients[-1] == half
    assert FourierPotential({0: half, 1: half / 2, -1: half / 2}).coefficients[0] == half
    above = np.nextafter(half, np.inf)
    for coeffs in ({1: above, -1: above}, {1: above},  # a filled partner counts too
                   {0: POTENTIAL_MAX, 1: POTENTIAL_MAX / 2**40, -1: POTENTIAL_MAX / 2**40},
                   {1: complex(1.7e308, 1.7e308), -1: complex(1.7e308, -1.7e308)}):
        with pytest.raises(ValueError, match="would overflow"):
            FourierPotential(coeffs)


def test_potential_rejects_broken_symmetry():
    # a missing partner is filled with the conjugate; a given one must agree
    for one_sided, pair in (({1: 1.0}, {1: 1.0, -1: 1.0}),
                            ({-2: 1.0 + 0.5j}, {2: 1.0 - 0.5j, -2: 1.0 + 0.5j})):
        assert FourierPotential(one_sided).coefficients == FourierPotential(pair).coefficients
    for broken in ({1: 1.0, -1: 2.0}, {1: 1.0, -1: 0.0},  # a given zero is a partner too
                   {0: 1j}):  # v0 must be real
        with pytest.raises(ValueError):
            FourierPotential(broken)
    # the bound is |v(-n) - conj v(n)| <= 1e-14, and v(n >= 0) fixes the stored pair
    near = FourierPotential({-1: 1.0 + 2.0 ** -47, 1: 1.0}).coefficients
    assert near == {-1: 1.0, 1: 1.0}
    with pytest.raises(ValueError, match="Hermitian"):
        FourierPotential({-1: 1.0 + 2.0 ** -46, 1: 1.0})


def test_rational_flux_validation():
    f = RationalFlux(2, 5)
    assert f.value == 0.4 and str(f) == "2/5"
    assert RationalFlux(0, 1).value == 0.0
    with pytest.raises(ValueError):
        RationalFlux(2, 4)
    with pytest.raises(ValueError):
        RationalFlux(3, 2)
    with pytest.raises(ValueError):
        RationalFlux(-1, 2)
    with pytest.raises(ValueError):
        RationalFlux(1, 0)


def test_rational_flux_parse():
    assert RationalFlux.parse("3/7") == RationalFlux(3, 7)
    for bad in ("3:7", "2/4", "x/y", "1/2/3"):
        with pytest.raises(ValueError):
            RationalFlux.parse(bad)


def test_potential_pairs_and_cyclic_fibers_are_hermitian_bit_for_bit():
    # Hermiticity is a property of the types, not a check on each matrix: the
    # potential stores exact conjugate pairs, and the builder's corner terms are
    # conjugates, so every fiber equals its conjugate transpose bit for bit
    v = FourierPotential({0: 1 + 4e-15j, 1: 0.5 + 1e-15j, -1: 0.5 - 1j * 5e-15, 3: 2e-15})
    assert v.coefficients == {0: 1.0, 1: 0.5 + 1e-15j, -1: 0.5 - 1e-15j,
                              3: 2e-15, -3: 2e-15}
    assert FourierPotential({0: 1e-15j}).coefficients == {}
    cyclic = tridiagonal(np.arange(5.0), np.exp(1j * np.linspace(0.0, 6.0, 7)))
    assert np.array_equal(cyclic, cyclic.conj().swapaxes(-1, -2))


def test_uniform_k_grid_half_open():
    ks = uniform_k_grid(8)
    assert ks[0] == 0.0 and ks[-1] < 2 * np.pi and len(ks) == 8
    with pytest.raises(ValueError):
        uniform_k_grid(0)


def test_uniform_k_grid_takes_only_integer_sizes():
    # 2.5 would give the 3 points of np.arange(2.5), spaced 2*pi/2.5
    with pytest.raises(ValueError, match="integer"):
        uniform_k_grid(2.5)
    assert np.array_equal(uniform_k_grid(np.int64(8)), uniform_k_grid(8))


COSINE = FourierPotential({1: 1.0})
FLUX_1_3 = HarperParams(flux=RationalFlux(1, 3))

# every size the library takes: a call passing the size on, and a valid size
SIZES = {
    "uniform_k_grid-n": (uniform_k_grid, 4),
    "FourierPotential-frequency": (lambda n: FourierPotential({n: 1.0}), -2),
    "RationalFlux-p": (lambda p: RationalFlux(p, 3), 1),
    "RationalFlux-q": (lambda q: RationalFlux(1, q), 3),
    "DiscreteCell-M": (lambda m: DiscreteCell(M=m, onsite=(0.3, -0.7)), 3),
    "band_sweep-cutoff": (lambda n: band_sweep(COSINE, n, 2, 3), 4),
    "band_sweep-bands": (lambda b: band_sweep(COSINE, 4, b, 3), 2),
    "band_sweep-kpoints": (lambda k: band_sweep(COSINE, 4, 2, k), 3),
    "band_structure-cutoff": (lambda n: band_structure(COSINE, n, bands=2), 4),
    "band_structure-bands": (lambda b: band_structure(COSINE, 4, b), 2),
    "ids-kgrid": (lambda n: ids(FLUX_1_3, kgrid=n, points=8), 4),
    "ids-points": (lambda n: ids(FLUX_1_3, kgrid=4, points=n), 8),
    "direct_space_count-sites": (lambda n: direct_space_count(FLUX_1_3, n, [0.0, 1.0]), 30),
    "farey_fractions-max_q": (farey_fractions, 5),
}


@pytest.mark.parametrize("call, size", SIZES.values(), ids=SIZES.keys())
def test_every_size_is_a_python_or_numpy_integer(call, size):
    # True would count as 1, and a float would reach range() or a numpy shape
    for bad in (True, float(size)):
        with pytest.raises(ValueError, match="integer"):
            call(bad)
    # pickle bytes compare values and their types, so a numpy integer kept in
    # the result (DiscreteCell(M=np.int64(3)).M) shows
    assert pickle.dumps(call(np.int64(size))) == pickle.dumps(call(size))
