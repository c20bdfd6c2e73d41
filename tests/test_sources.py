import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from swapsim.elements import MAX_FACTORIAL_CUTOFF
from swapsim.fock import ModeRegister, reorder, tensor_product
from swapsim.sources import (
    double_pass_source,
    polarization_double_pass,
    single_pass_source,
    spdc_pair,
    theta_product,
    vacuum_one_photon_postbs,
)

from conftest import ket_bits


def test_spdc_pair_order_one():
    tau = 0.25
    ket = spdc_pair(tau, 1, ("1", "4"))
    r = 1.0 / math.sqrt(1 + tau * tau)
    assert ket.amplitude((0, 0)) == pytest.approx(r)
    assert ket.amplitude((1, 1)) == pytest.approx(tau * r)
    assert ket.num_terms() == 2


def test_spdc_zero_tau_is_vacuum():
    ket = spdc_pair(0.0, 1, ("1", "4"))
    assert ket.num_terms() == 1
    assert ket.amplitude((0, 0)) == pytest.approx(1.0)


def test_spdc_order_two_geometric():
    tau = 0.1
    ket = spdc_pair(tau, 2, ("a", "b"))
    # brute-force normalization of (1, tau, tau^2)
    norm = math.sqrt(sum((tau**n) ** 2 for n in range(3)))
    for n in range(3):
        assert ket.amplitude((n, n)) == pytest.approx(tau**n / norm)


def test_spdc_params_rejected():
    with pytest.raises(ValueError, match=r"\|tau\| must be < 1"):
        spdc_pair(1.5, 1, ("1", "4"))
    with pytest.raises(ValueError, match="truncation order must be >= 1"):
        double_pass_source(0.1, order=0)
    with pytest.raises(ValueError, match="exceeds factorial table limit"):
        spdc_pair(0.5, MAX_FACTORIAL_CUTOFF + 1, ("1", "4"))


def test_double_pass_source():
    ket = double_pass_source(0.2)
    assert ket.register.labels == ("1", "2", "3", "4")
    assert ket.num_terms() == 4
    assert ket.norm() == pytest.approx(1.0)
    vac = double_pass_source(0.0)
    assert vac.num_terms() == 1


@pytest.mark.parametrize("tau, order", [(0.2, 1), (0.3 - 0.1j, 4), (math.sqrt(0.1), 10)])
def test_double_pass_source_is_the_pair_product_on_beams_1_to_4(tau, order):
    # the same terms, in the same order and with the same bits, as the
    # tensor product of the two passes reordered onto beams (1, 2, 3, 4)
    ref = reorder(tensor_product(spdc_pair(tau, order, ("1", "4")),
                                 spdc_pair(tau, order, ("2", "3"))), ("1", "2", "3", "4"))
    assert ket_bits(double_pass_source(tau, order)) == ket_bits(ref)


@given(st.floats(0.0, 0.9), st.integers(1, 3))
@settings(max_examples=30, deadline=None)
def test_sources_normalized(tau, order):
    assert double_pass_source(tau, order).norm() == pytest.approx(1.0)
    assert theta_product(tau).norm() == pytest.approx(1.0)


def test_polarization_double_pass_terms():
    full = polarization_double_pass()
    assert full.num_terms() == 10
    x_only = polarization_double_pass(include_double_pairs=False)
    assert x_only.num_terms() == 4
    reg = full.register

    def occ(counts):
        out = [0] * reg.size
        for label, n in counts.items():
            out[reg.index(label)] = n
        return tuple(out)

    a = full.amplitude(occ({"1H": 1, "3V": 1, "2H": 1, "4V": 1}))
    # signs (+, -, -, +) on the single-pair product
    assert full.amplitude(occ({"1H": 1, "3V": 1, "2V": 1, "4H": 1})) == pytest.approx(-a)
    assert full.amplitude(occ({"1V": 1, "3H": 1, "2H": 1, "4V": 1})) == pytest.approx(-a)
    assert full.amplitude(occ({"1V": 1, "3H": 1, "2V": 1, "4H": 1})) == pytest.approx(a)
    # double-pair addend signs (+, +, -)
    assert full.amplitude(occ({"1H": 2, "3V": 2})) == pytest.approx(a)
    assert full.amplitude(occ({"1V": 2, "3H": 2})) == pytest.approx(a)
    assert full.amplitude(occ({"1H": 1, "1V": 1, "3H": 1, "3V": 1})) == pytest.approx(-a)
    # the terms in order, on (1H, 1V, 2H, 2V, 3H, 3V, 4H, 4V): the order
    # sets the bits of the norm and of every later sum over the terms
    x_keys = [(1, 0, 1, 0, 0, 1, 0, 1), (1, 0, 0, 1, 0, 1, 1, 0),
              (0, 1, 1, 0, 1, 0, 0, 1), (0, 1, 0, 1, 1, 0, 1, 0)]
    y_keys = [(2, 0, 0, 0, 0, 2, 0, 0), (0, 2, 0, 0, 2, 0, 0, 0), (1, 1, 0, 0, 1, 1, 0, 0),
              (0, 0, 2, 0, 0, 0, 0, 2), (0, 0, 0, 2, 0, 0, 2, 0), (0, 0, 1, 1, 0, 0, 1, 1)]
    assert list(x_only.terms) == x_keys
    assert list(full.terms) == x_keys + y_keys
    assert [full.terms[k] for k in x_keys + y_keys] == \
        [s * a for s in (1, -1, -1, 1, 1, 1, -1, 1, 1, -1)]


@given(st.integers(1, 8), st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True))
@settings(max_examples=40, deadline=None)
def test_single_pass_source_normalized(order, pair_amplitude):
    assert single_pass_source(order, pair_amplitude).norm() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("order", [1, 2, 5, MAX_FACTORIAL_CUTOFF])
def test_single_pass_source_zero_amplitude_is_the_single_pair(order):
    for zero in (0.0, -0.0, 0):
        assert single_pass_source(order, zero).terms == {(1, 0, 0, 1): 1.0}


@pytest.mark.parametrize("order, pair_amplitude", [(2, 0.5), (4, -0.3), (10, 0.9)])
def test_single_pass_source_terms_fall_geometrically(order, pair_amplitude):
    # term n, the n pairs (n, 0, 0, n) on beams 1 and 4, is
    # pair_amplitude^(n-1) over the norm, in order of n
    ket = single_pass_source(order, pair_amplitude)
    norm = math.sqrt(sum(pair_amplitude ** (2 * (n - 1)) for n in range(1, order + 1)))
    assert list(ket.terms) == [(n, 0, 0, n) for n in range(1, order + 1)]
    for n in range(1, order + 1):
        assert ket.terms[(n, 0, 0, n)] == pytest.approx(pair_amplitude ** (n - 1) / norm,
                                                        rel=1e-14)


@pytest.mark.parametrize("order", [1, 2, 3, MAX_FACTORIAL_CUTOFF])
def test_single_pass_source_cutoff_is_at_least_2(order):
    ket = single_pass_source(order, 0.5)
    assert ket.register == ModeRegister(("1", "2", "3", "4"), max(2, order))


def test_single_pass_source_params_rejected():
    for order in (0, -1):
        with pytest.raises(ValueError, match="order must be >= 1"):
            single_pass_source(order, 0.0)
    with pytest.raises(ValueError, match=f"cutoff {MAX_FACTORIAL_CUTOFF + 1} exceeds factorial "
                                         "table limit"):
        single_pass_source(MAX_FACTORIAL_CUTOFF + 1, 0.5)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="pair amplitude must be finite"):
            single_pass_source(2, bad)
    # the bound is exclusive: just inside it builds, at and beyond it raises
    inside = math.nextafter(1.0, 0.0)
    for amp in (inside, -inside):
        single_pass_source(MAX_FACTORIAL_CUTOFF, amp)
    for amp in (1.0, -1.0, 5.0, -1e300):
        with pytest.raises(ValueError, match=r"\|pair amplitude\| must be < 1"):
            single_pass_source(2, amp)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_inputs_rejected(bad):
    for tau in (bad, complex(bad, 0.0), complex(0.1, bad)):
        with pytest.raises(ValueError, match="finite"):
            double_pass_source(tau)
    for include in (True, False):
        with pytest.raises(ValueError, match="finite"):
            polarization_double_pass(include, double_pair_weight=bad)


def test_vacuum_one_photon_postbs():
    ket = vacuum_one_photon_postbs()
    norm = math.sqrt(5.0 / 2.0)  # oracle: 1 + 1/4 + 1/4 + 1/2 + 1/2
    assert ket.amplitude((0, 0, 1, 1)) == pytest.approx(1.0 / norm)
    assert ket.amplitude((2, 0, 0, 0)) == pytest.approx(1.0 / (math.sqrt(2) * norm))
    assert ket.amplitude((0, 2, 0, 0)) == pytest.approx(-1.0 / (math.sqrt(2) * norm))
    # the psi+ branch on (1, 4) carries printed weight 1/2 before normalization
    r = 0.5 / math.sqrt(2)
    assert ket.amplitude((1, 0, 0, 1)) == pytest.approx(r / norm)
    assert ket.amplitude((1, 0, 1, 0)) == pytest.approx(r / norm)
    # every branch lives in the two-photon sector
    for occ, _ in ket.items():
        assert sum(occ) == 2


def test_theta_product():
    sym = theta_product(math.pi / 4)
    assert all(abs(a) == pytest.approx(0.5) for _, a in sym.items())
    assert theta_product(0.0).num_terms() == 1
    t = 0.1
    ket = theta_product(t)
    c, s = math.cos(t), math.sin(t)
    assert ket.amplitude((0, 0, 0, 0)) == pytest.approx(c * c)
    assert ket.amplitude((1, 1, 0, 0)) == pytest.approx(s * c)
    assert ket.amplitude((0, 0, 1, 1)) == pytest.approx(c * s)
    assert ket.amplitude((1, 1, 1, 1)) == pytest.approx(s * s)

