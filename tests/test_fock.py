import cmath
import copy
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from swapsim.detection import ConditionalOutcome, ThresholdDetector, coincidence_table
from swapsim.elements import ModeUnitary, apply_mode_unitary, balanced_bs
from swapsim.fock import (
    BELL_KINDS,
    FockKet,
    ModeRegister,
    WeightedEnsemble,
    _left_sum,
    bell_state,
    fidelity,
    format_ket,
    inner_product,
    partial_project,
    reorder,
    tensor_product,
    vacuum,
)
from swapsim.oracle import DenseState
from swapsim.protocols import EventResult, ProtocolReport
from swapsim.sources import (double_pass_source, polarization_double_pass, single_pass_source,
                             spdc_pair, theta_product, vacuum_one_photon_postbs)

from conftest import ket_bits, random_kets, recording_trusted, relabel

R2 = 1.0 / math.sqrt(2.0)


def test_register_validation():
    with pytest.raises(ValueError):
        ModeRegister(("1", "1"), 1)
    with pytest.raises(ValueError):
        ModeRegister(("1",), 0)
    reg = ModeRegister(("a", "b"), 2)
    assert reg.index("b") == 1
    with pytest.raises(KeyError):
        reg.index("c")


def test_cutoff_enforced():
    reg = ModeRegister(("1",), 1)
    with pytest.raises(ValueError):
        FockKet(reg, {(2,): 1.0})
    with pytest.raises(ValueError):
        FockKet(reg, {(-1,): 1.0})


def test_tensor_vacuum_identity():
    a = vacuum(ModeRegister(("1",), 1))
    b = vacuum(ModeRegister(("2",), 1))
    out = tensor_product(a, b)
    assert out.amplitude((0, 0)) == 1.0
    assert out.num_terms() == 1


def test_tensor_two_singlets():
    out = tensor_product(bell_state("psi-", ("1", "2")), bell_state("psi-", ("3", "4")))
    assert out.num_terms() == 4
    assert out.amplitude((0, 1, 0, 1)) == pytest.approx(0.5)
    assert out.amplitude((0, 1, 1, 0)) == pytest.approx(-0.5)
    assert out.amplitude((1, 0, 0, 1)) == pytest.approx(-0.5)
    assert out.amplitude((1, 0, 1, 0)) == pytest.approx(0.5)


def test_tensor_two_pair_sources():
    tau = 0.2
    pref = 1.0 / (1.0 + tau * tau)
    a = FockKet(ModeRegister(("1", "4"), 1), {(0, 0): 1.0, (1, 1): tau}).normalized()
    b = FockKet(ModeRegister(("2", "3"), 1), {(0, 0): 1.0, (1, 1): tau}).normalized()
    out = tensor_product(a, b)
    assert out.amplitude((0, 0, 0, 0)) == pytest.approx(pref)
    assert out.amplitude((1, 1, 0, 0)) == pytest.approx(tau * pref)
    assert out.amplitude((0, 0, 1, 1)) == pytest.approx(tau * pref)
    assert out.amplitude((1, 1, 1, 1)) == pytest.approx(tau * tau * pref)


def test_tensor_label_collision():
    a = vacuum(ModeRegister(("1",), 1))
    with pytest.raises(ValueError, match="collision"):
        tensor_product(a, vacuum(ModeRegister(("1",), 1)))


def test_inner_product_bell_cases():
    psi_p = bell_state("psi+", ("1", "2"))
    psi_m = bell_state("psi-", ("1", "2"))
    assert inner_product(psi_p, psi_p) == pytest.approx(1.0)
    assert inner_product(psi_p, psi_m) == pytest.approx(0.0)


def test_inner_product_weak_pair_overlap():
    eps = 0.3
    chi = FockKet(ModeRegister(("1", "2"), 1), {(0, 0): 1.0, (1, 1): eps}).normalized()
    v = vacuum(ModeRegister(("1", "2"), 1))
    assert inner_product(v, chi) == pytest.approx(1.0 / math.sqrt(1 + eps * eps))
    one_one = FockKet(ModeRegister(("1", "2"), 1), {(1, 1): 1.0})
    assert inner_product(one_one, chi) == pytest.approx(eps / math.sqrt(1 + eps * eps))


def test_inner_product_register_mismatch():
    with pytest.raises(ValueError):
        inner_product(bell_state("psi+", ("1", "2")), bell_state("psi+", ("1", "3")))


def test_normalize_symmetric_pair():
    ket = FockKet(ModeRegister(("1", "2"), 1), {(0, 0): 1.0, (1, 1): 1.0})
    n = ket.normalized()
    assert n.amplitude((0, 0)) == pytest.approx(R2)
    assert n.norm() == pytest.approx(1.0)


def test_normalize_weak_pair_prefactor():
    eps = 0.05
    ket = FockKet(ModeRegister(("1", "2"), 1), {(0, 0): 1.0, (1, 1): eps}).normalized()
    assert ket.amplitude((0, 0)) == pytest.approx(1.0 / math.sqrt(1 + eps * eps))


def test_normalize_zero_ket_rejected():
    reg = ModeRegister(("1",), 1)
    with pytest.raises(ValueError):
        FockKet(reg, {}).normalized()


def test_sums_add_left_to_right_on_every_python():
    # 1e16 + 1.0 rounds back to 1e16, so the left-to-right sum is 0.0 where
    # the compensated built-in sum of Python 3.12 and later gives 1.0
    assert _left_sum([1e16, 1.0, -1e16]) == 0.0
    assert _left_sum([]) == 0
    # the fold starts from the int 0, and 0 + -0.0 is +0.0
    assert _left_sum([-0.0]).hex() == "0x0.0p+0"
    # mixed int, float and complex values: the bits of the sequential fold
    values = [3, 0.1, 2j, -1e16, 1e16 + 0.5j, 0.7, 1 + 1e-17j, -3, 1e-300]
    total = 0
    for v in values:
        total += v
    got = _left_sum(values)
    assert type(got) is complex
    assert (got.real.hex(), got.imag.hex()) == (total.real.hex(), total.imag.hex())
    # 1.0 + 2**-53 rounds back to 1.0 twice, so the branch of weight 1.0
    # keeps it; a compensated total, 1 + 2**-52, would move it
    reg = ModeRegister(("1",), 1)
    ens = WeightedEnsemble.from_branches(
        [(1.0, vacuum(reg)), (2.0**-53, vacuum(reg)), (2.0**-53, vacuum(reg))])
    assert ens.members[0][0] == 1.0


def test_bell_state_signs():
    psi_m = bell_state("psi-", ("2", "3"))
    assert psi_m.amplitude((0, 1)) == pytest.approx(R2)
    assert psi_m.amplitude((1, 0)) == pytest.approx(-R2)
    phi_m = bell_state("phi-", ("2", "3"))
    assert phi_m.amplitude((0, 0)) == pytest.approx(R2)
    assert phi_m.amplitude((1, 1)) == pytest.approx(-R2)


def test_bell_overlap_table_is_identity():
    for i, a in enumerate(BELL_KINDS):
        for j, b in enumerate(BELL_KINDS):
            ov = inner_product(bell_state(a, ("1", "2")), bell_state(b, ("1", "2")))
            assert abs(ov - (1.0 if i == j else 0.0)) < 1e-12


def test_bell_unknown_kind():
    with pytest.raises(ValueError):
        bell_state("omega", ("1", "2"))


def test_fidelity_pure_match_and_mixture():
    psi_p = bell_state("psi+", ("1", "2"))
    ens = WeightedEnsemble.pure(psi_p)
    assert fidelity(ens, psi_p) == pytest.approx(1.0)
    vac = vacuum(ModeRegister(("1", "2"), 1))
    mix = WeightedEnsemble(psi_p.register, ((0.5, psi_p), (0.5, vac)))
    assert fidelity(mix, psi_p) == pytest.approx(0.5)


def test_fidelity_requires_normalized_target():
    psi_p = bell_state("psi+", ("1", "2"))
    ens = WeightedEnsemble.pure(psi_p)
    with pytest.raises(ValueError):
        fidelity(ens, psi_p.scaled(2.0))


def test_fidelity_target_norm_boundary():
    # the target's norm may be off 1 by at most 1e-9
    psi_p = bell_state("psi+", ("1", "2"))
    ens = WeightedEnsemble.pure(psi_p)
    assert fidelity(ens, psi_p.scaled(1.0 + 1e-10)) == pytest.approx(1.0)
    with pytest.raises(ValueError, match="normalized"):
        fidelity(ens, psi_p.scaled(1.0 + 1e-8))


def test_ensemble_weight_validation():
    psi_p = bell_state("psi+", ("1", "2"))
    with pytest.raises(ValueError):
        WeightedEnsemble(psi_p.register, ((0.7, psi_p),))
    with pytest.raises(ValueError):
        WeightedEnsemble(psi_p.register, ((-0.5, psi_p), (1.5, psi_p)))


def test_ensemble_weight_sum_boundary():
    # the weights may sum to 1 within 1e-12
    psi_p = bell_state("psi+", ("1", "2"))
    WeightedEnsemble(psi_p.register, ((1.0 + 1e-13, psi_p),))
    with pytest.raises(ValueError, match="sum to"):
        WeightedEnsemble(psi_p.register, ((1.0 + 1e-11, psi_p),))


def test_reorder_and_relabel():
    ket = FockKet(ModeRegister(("1", "4", "2"), 1), {(1, 0, 1): 1.0})
    out = reorder(ket, ("1", "2", "4"))
    assert out.amplitude((1, 1, 0)) == 1.0
    ren = relabel(ket, {"4": "x"})
    assert ren.register.labels == ("1", "x", "2")


def test_partial_project():
    state = tensor_product(bell_state("psi+", ("1", "2")), bell_state("psi+", ("3", "4")))
    cond = partial_project(state, bell_state("psi+", ("2", "3")))
    assert cond.register.labels == ("1", "4")
    assert cond.norm() ** 2 == pytest.approx(0.25)


def test_partial_project_rejects_a_bad_layout_on_every_call():
    # a pair of registers is kept only once it passed its checks
    pair = bell_state("psi+", ("1", "2"))
    for _ in range(2):
        with pytest.raises(ValueError, match="projection must leave at least one mode"):
            partial_project(pair, bell_state("psi-", ("2", "1")))
        with pytest.raises(KeyError, match="mode '9' not in register"):
            partial_project(pair, bell_state("psi-", ("2", "9")))


def test_registers_the_engine_derives_are_kept_per_labels_and_cutoff():
    pairs = tensor_product(bell_state("psi+", ("1", "2")), bell_state("psi+", ("3", "4")))
    target = bell_state("psi-", ("2", "3"))
    assert partial_project(pairs, target).register is partial_project(pairs, target).register

    def branch_registers():
        table = coincidence_table(pairs, [["2"], ["3"]], 0.9)
        return [ket.register for _, branches in table.values() for _, ket in branches]

    first, second = branch_registers(), branch_registers()
    assert first and all(reg is first[0] for reg in first + second)
    # the beam splitter raises the cutoff from 1 to 2
    raised = [apply_mode_unitary(pairs, balanced_bs(), ("2", "3")).register for _ in range(2)]
    assert raised[0].cutoff == 2 and raised[0] is raised[1]
    assert pairs.register.with_cutoff(2) is raised[0]
    # the registers whose labels the package fixes, and tensor_product's
    for build in (lambda: double_pass_source(0.1, 2), lambda: single_pass_source(3, 0.5),
                  lambda: theta_product(0.3), vacuum_one_photon_postbs,
                  polarization_double_pass,
                  lambda: tensor_product(bell_state("psi+", ("1", "2")), vacuum(ModeRegister(("3", "4"), 1)))):
        assert build().register is build().register
    # outside input is checked on every call, and a bad cutoff is never kept
    for build in (lambda: spdc_pair(0.1, 2, ("1", "4")), lambda: bell_state("psi+", ("1", "2"))):
        assert build().register is not build().register
    with pytest.raises(ValueError, match="duplicate mode labels"):
        ModeRegister(("a", "a"), 1)
    with pytest.raises(ValueError, match="mode label collision"):
        tensor_product(bell_state("psi+", ("1", "2")), vacuum(ModeRegister(("2",), 1)))
    for _ in range(2):
        with pytest.raises(ValueError, match="cutoff must be >= 1"):
            pairs.register.with_cutoff(0)


@given(random_kets(), random_kets())
@settings(max_examples=60, deadline=None)
def test_tensor_norm_multiplicative(a, b):
    b = relabel(b, {l: f"r{l}" for l in b.register.labels})
    out = tensor_product(a, b)
    assert out.norm() == pytest.approx(a.norm() * b.norm(), abs=1e-12)


@given(random_kets(max_modes=2, max_cutoff=1), st.floats(0.01, 0.99))
@settings(max_examples=60, deadline=None)
def test_fidelity_bounded_and_affine(ket, w):
    assume(ket.register.size == 2)
    target = bell_state("psi+", ket.register.labels)
    other = vacuum(ket.register)
    f_a = fidelity(WeightedEnsemble.pure(ket), target)
    f_b = fidelity(WeightedEnsemble.pure(other), target)
    mix = WeightedEnsemble.from_branches([(w, ket.normalized()), (1 - w, other)])
    f_mix = fidelity(mix, target)
    assert -1e-12 <= f_mix <= 1.0 + 1e-12
    assert f_mix == pytest.approx(w * f_a + (1 - w) * f_b, abs=1e-12)


def test_constructor_prunes_below_tolerance():
    reg = ModeRegister(("1",), 1)
    tiny = FockKet(reg, {(0,): 1.0, (1,): 1e-16})
    assert tiny.num_terms() == 1


@pytest.mark.parametrize("amp", [math.nan, math.inf, -math.inf, complex(0, math.nan),
                                 complex(1.0, math.inf)])
def test_public_constructor_rejects_non_finite_amplitude(amp):
    reg = ModeRegister(("1", "2"), 1)
    with pytest.raises(ValueError, match="finite"):
        FockKet(reg, {(0, 0): 1.0, (1, 1): amp})
    with pytest.raises(ValueError, match="finite"):
        FockKet(reg, {(0, 0): 1.0}).scaled(amp)


@pytest.mark.parametrize("amps", [(1e300, 1.0), (1e154, 1e154)])
def test_norm_overflow_rejected(amps):
    # a single square beyond the float range, or a sum that overflows
    ket = FockKet(ModeRegister(("1", "2"), 1), {(0, 0): amps[0], (1, 1): amps[1]})
    with pytest.raises(ValueError, match="overflows"):
        ket.normalized()


def test_format_ket_labels_counts_of_ten_and_more():
    # each count is written out in full, so (1, 10, 0, ...) and (11, 0, ...)
    # share a label text; the second call reads every label from the cache
    reg = ModeRegister(tuple("abcdefgh"), 12)
    occs = [(1, 10, 0, 0, 0, 0, 0, 0), (11, 0, 0, 0, 0, 0, 0, 0), (12,) * 8, (0,) * 8,
            (10, 0, 0, 0, 0, 0, 0, 1)]
    ket = FockKet(reg, {occ: (k + 1) / 8 * (1j if k % 2 else 1) for k, occ in enumerate(occs)})
    want = ("+(0+0.5j)|00000000> +0.125|110000000> +0.625|100000001> "
            "+(0+0.25j)|110000000> +0.375|1212121212121212>")
    assert format_ket(ket) == want
    assert format_ket(ket) == want
    assert format_ket(relabel(ket, {"a": "z"})) == want


PSI_12 = bell_state("psi+", ("1", "2"))
PSI_13 = bell_state("psi+", ("1", "3"))


@pytest.mark.parametrize("build, message", [
    (lambda: ModeRegister((), 1), "register needs at least one mode"),
    (lambda: FockKet(PSI_12.register, {(1,): 1.0}),
     r"occupation \(1,\) does not match register size 2"),
    (lambda: WeightedEnsemble(PSI_12.register, ()), "ensemble needs at least one member"),
    (lambda: WeightedEnsemble(PSI_12.register, ((1.0, PSI_13),)),
     "ensemble member register mismatch"),
    (lambda: WeightedEnsemble.from_branches([(0.0, PSI_12), (-0.5, PSI_12)]),
     "no branches with positive weight"),
    (lambda: WeightedEnsemble.from_branches([(0.5, PSI_12), (0.5, PSI_13)]),
     "ensemble member register mismatch"),
    (lambda: WeightedEnsemble.from_branches([(1e300, PSI_12), (1e-300, PSI_12)]),
     "non-positive ensemble weight 0.0"),
    (lambda: fidelity(WeightedEnsemble.pure(PSI_12), PSI_13),
     "register mismatch between ensemble and target"),
    (lambda: reorder(PSI_12, ("1", "3")), "reorder must use exactly the existing labels"),
], ids=["empty-register", "occupation-length", "no-members", "member-labels", "no-positive-weight",
        "branch-labels", "branch-weight-underflow", "fidelity-labels", "reorder-labels"])
def test_fock_rejects_input_on_the_wrong_modes_or_with_nothing_in_it(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_format_ket_of_the_zero_ket_is_0():
    assert format_ket(FockKet(PSI_12.register, {})) == "0"


def _format_ket_per_term(state):
    # format_ket's text written term by term, one f-string per amplitude
    if not state.terms:
        return "0"
    parts = []
    for occ, amp in sorted(state.terms.items()):
        if abs(amp.imag) < 1e-12:
            coeff = f"{amp.real:+.6g}"
        else:
            coeff = f"+({amp.real:.6g}{amp.imag:+.6g}j)"
        parts.append(f"{coeff}|{''.join(map(str, occ))}>")
    return " ".join(parts)


# amplitudes of every sign and magnitude from 1e-13 to 1e17, among them
# values that round at the sixth digit, and ones printed with an exponent
_FORMAT_AMPS = [0.6, -0.8, 1.0, -1.0, 0.9999995, -0.99999949, 123456.5, 1234565.0, 1e-5,
                -2.5e-13, 3e-14 * 1.5, 1e16, -1e17, 0.1 + 0.2, math.pi, -math.e / 7, 1 / 3]


@pytest.mark.parametrize("n_terms", range(1, 26))
def test_format_ket_of_float_kets_matches_a_per_term_reference(n_terms):
    # a ket of float amplitudes is formatted by one "%" call; its labels
    # include counts of 10 and more
    rng = random.Random(n_terms)
    reg = ModeRegister(("a", "b"), 12)
    occs = rng.sample([(i, j) for i in range(13) for j in range(13)], n_terms)
    amps = [rng.choice(_FORMAT_AMPS) * rng.choice((1.0, -1.0, rng.uniform(-3.0, 3.0)))
            for _ in occs]
    ket = FockKet(reg, dict(zip(occs, amps)))
    assert {type(a) for a in ket.terms.values()} == {float}
    assert len(ket.terms) == n_terms
    assert format_ket(ket) == _format_ket_per_term(ket)


def test_format_ket_of_complex_and_mixed_kets_matches_a_per_term_reference():
    # imaginary parts below and above the 1e-12 cut, on their own and beside
    # float amplitudes; a complex tau keeps the source's vacuum term a float
    reg = ModeRegister(("a", "b"), 12)
    imags = (1e-13, -1e-13, 9.99e-13, 1e-12, -5e-12, 0.3, -1e-5)
    complex_ket = FockKet(reg, {(k, 10 - k): complex(_FORMAT_AMPS[k], im)
                                for k, im in enumerate(imags)})
    assert {type(a) for a in complex_ket.terms.values()} == {complex}
    source = spdc_pair(0.3 * cmath.exp(0.7j), 12, ("a", "b"))
    assert {type(a) for a in source.terms.values()} == {float, complex}
    assert type(source.terms[(0, 0)]) is float
    mixed = FockKet(reg, {**complex_ket.terms, (11, 12): -0.25, (1, 1): 1e-5})
    for ket in (complex_ket, source, mixed):
        assert format_ket(ket) == _format_ket_per_term(ket)


def test_format_ket_imaginary_cut_boundary():
    # an imaginary part below 1e-12 prints as a real amplitude
    reg = ModeRegister(("1", "2"), 1)
    assert format_ket(FockKet(reg, {(1, 0): complex(0.6, 1e-13)})) == "+0.6|10>"
    assert format_ket(FockKet(reg, {(1, 0): complex(0.6, 1e-11)})) == "+(0.6+1e-11j)|10>"


# --------------------------------------------------------------------------
# The trusted constructor: every engine call site that builds through
# FockKet._trusted gives the public constructor's ket on the same terms.
# --------------------------------------------------------------------------

AMPLITUDES = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


def _labels(data, ket, min_size=1, max_size=None):
    labels = data.draw(st.permutations(ket.register.labels))
    return labels[:data.draw(st.integers(min_size, max_size or len(labels)))]


def _site_scaled(data, ket):
    # -1 turns a zero imaginary part into -0.0, which the constructors clear
    ket.scaled(data.draw(AMPLITUDES | st.sampled_from([-1.0, 0.0, 1e-15])))


def _site_normalized(data, ket):
    ket.normalized()


def _site_reorder(data, ket):
    reorder(ket, data.draw(st.permutations(ket.register.labels)))


def _site_tensor_product(data, ket):
    other = data.draw(random_kets(normalized=False))
    reg = ModeRegister(tuple(f"o{l}" for l in other.register.labels), other.register.cutoff)
    tensor_product(ket, FockKet(reg, other.terms))


def _site_partial_project(data, ket):
    assume(ket.register.size >= 2)
    sub = _labels(data, ket, max_size=ket.register.size - 1)
    idx = [ket.register.index(l) for l in sub]
    seen = sorted({tuple(occ[i] for i in idx) for occ in ket.terms})
    keys = data.draw(st.lists(st.sampled_from(seen), min_size=1, unique=True))
    target = FockKet(ModeRegister(tuple(sub), ket.register.cutoff),
                     {k: data.draw(AMPLITUDES) for k in keys})
    partial_project(ket, target)


def _site_apply_mode_unitary(data, ket):
    assume(ket.register.size >= 2)
    theta = data.draw(st.floats(0.0, math.pi))
    phi = data.draw(st.floats(0.0, 2 * math.pi))
    c, s = math.cos(theta), math.sin(theta)
    u = data.draw(st.sampled_from([
        balanced_bs(),
        ModeUnitary(np.array([[c, -cmath.exp(-1j * phi) * s],
                              [cmath.exp(1j * phi) * s, c]])),
    ]))
    apply_mode_unitary(ket, u, tuple(_labels(data, ket, 2, 2)))


TRUSTED_SITES = {
    "scaled": _site_scaled,
    "normalized": _site_normalized,
    "reorder": _site_reorder,
    "tensor_product": _site_tensor_product,
    "partial_project": _site_partial_project,
    "apply_mode_unitary": _site_apply_mode_unitary,
}


@pytest.mark.parametrize("site", sorted(TRUSTED_SITES))
@given(ket=random_kets(normalized=False), data=st.data())
@settings(max_examples=40, deadline=None)
def test_trusted_sites_match_public_constructor(site, ket, data):
    with recording_trusted() as calls:
        TRUSTED_SITES[site](data, ket)
    assert calls, "the call site built no ket through FockKet._trusted"
    for out, ref in calls:
        assert ket_bits(out) == ket_bits(ref)


# The value records of every module: built twice from the same field values
# (shared kets and arrays, which compare by identity), a field to assign,
# the repr text and whether the record hashes.
_KET = FockKet(ModeRegister(("1",), 1), {(1,): 1.0})
_KET_REPR = "ModeRegister(labels=('1',), cutoff=1), members=((1.0, FockKet(+1|1>)),)"
_AMPS = np.array([0j, 1 + 0j])


def _ensemble():
    return WeightedEnsemble(_KET.register, ((1.0, _KET),))


RECORDS = {
    "ModeRegister": (lambda: ModeRegister(("1", "2"), 1), "cutoff",
                     "ModeRegister(labels=('1', '2'), cutoff=1)", True),
    "ModeUnitary": (lambda: ModeUnitary([[1, 0], [0, 1]]), "entries",
                    "ModeUnitary(entries=(((1+0j), 0j), (0j, (1+0j))))", True),
    "WeightedEnsemble": (_ensemble, "members", f"WeightedEnsemble(register={_KET_REPR})", True),
    "ThresholdDetector": (lambda: ThresholdDetector(0.5), "eta",
                          "ThresholdDetector(eta=0.5)", True),
    "ConditionalOutcome": (lambda: ConditionalOutcome(0.5, _ensemble()), "probability",
                           "ConditionalOutcome(probability=0.5, ensemble=WeightedEnsemble("
                           f"register={_KET_REPR}))", True),
    "EventResult": (lambda: EventResult("e", 0.5, 0.25, 0.75, ensemble=_ensemble(),
                                        extras={"a": 1}), "extras",
                    "EventResult(name='e', probability=0.5, fidelity_psi_plus=0.25, "
                    "fidelity_psi_minus=0.75, ensemble=WeightedEnsemble("
                    f"register={_KET_REPR}), extras={{'a': 1}})", False),
    "ProtocolReport": (lambda: ProtocolReport("s", {}, ()), "notes",
                       "ProtocolReport(scheme='s', params={}, events=(), coincidences=None, "
                       "dropped_mass=0.0, notes=())", False),
    "DenseState": (lambda: DenseState(_KET.register, _AMPS), "amplitudes",
                   "DenseState(register=ModeRegister(labels=('1',), cutoff=1), "
                   "amplitudes=array([0.+0.j, 1.+0.j]))", False),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable_values(name):
    make, field, text, hashable = RECORDS[name]
    a, b = make(), make()
    assert a is not b and not hasattr(a, "__dict__")
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.unknown = 1
    assert getattr(a, field) is before
    assert a == b and not a != b
    assert a != object()
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    assert repr(a) == text
    assert copy.copy(a) == a
    assert repr(copy.deepcopy(a)) == repr(pickle.loads(pickle.dumps(a))) == text


def test_warm_mode_unitary_equals_a_cold_one():
    warm, cold = ModeUnitary(balanced_bs().entries), ModeUnitary(balanced_bs().entries)
    warm.sector((1, 1))
    warm.matrix
    assert warm == cold and hash(warm) == hash(cold) and repr(warm) == repr(cold)
