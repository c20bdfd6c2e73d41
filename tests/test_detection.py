import itertools
import math

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from swapsim.detection import CLICK, SILENT, ThresholdDetector, measure
from swapsim.elements import apply_mode_unitary, balanced_bs
from swapsim.fock import (
    DEFAULT_PRUNE_TOL,
    FockKet,
    ModeRegister,
    WeightedEnsemble,
    bell_state,
    pruning,
)

from conftest import ket_bits, random_kets, recording_trusted


def click_marginal(outcomes, i):
    return sum(o.probability for out, o in outcomes.items() if out[i] == CLICK)


def test_detector_validation():
    with pytest.raises(ValueError):
        ThresholdDetector(1.5)
    state = bell_state("psi+", ("1", "2"))
    with pytest.raises(ValueError):
        measure(state, [("1",)], 1.5)
    with pytest.raises(ValueError):
        measure(state, [("1",), ("1",)], 1.0)


def test_single_branch_projection():
    state = bell_state("psi+", ("1", "2"))
    out = measure(state, [("1",)], 1.0)[(CLICK,)]
    assert out.probability == pytest.approx(0.5)
    ((w, cond),) = out.ensemble.members
    assert w == pytest.approx(1.0)
    assert cond.amplitude((0,)) == pytest.approx(1.0)


def test_single_photon_click_probability_is_eta():
    reg = ModeRegister(("1", "aux"), 1)
    state = FockKet(reg, {(1, 0): 1.0})
    out = measure(state, [("1",)], 0.5)[(CLICK,)]
    assert out.probability == pytest.approx(0.5)


def test_two_photon_click_probability():
    reg = ModeRegister(("1", "aux"), 2)
    state = FockKet(reg, {(2, 0): 1.0})
    out = measure(state, [("1",)], 0.5)[(CLICK,)]
    # per-photon binomial loss: 1 - 0.5^2
    assert out.probability == pytest.approx(0.75)


def test_post_bs_event_conditioning():
    # double-pass source through the beam splitter; {D1 click, D2 silent}
    # at eta = 1 is dominated by psi+ on the outer beams
    tau = 0.1
    reg = ModeRegister(("1", "2", "3", "4"), 2)
    src = FockKet(reg, {
        (0, 0, 0, 0): 1.0, (1, 0, 0, 1): tau, (0, 1, 1, 0): tau, (1, 1, 1, 1): tau * tau,
    }).normalized()
    st_ = apply_mode_unitary(src, balanced_bs(), ("1", "2"))
    out = measure(st_, [("1",), ("2",)], 1.0)[(CLICK, SILENT)]
    best_w, best = max(out.ensemble.members, key=lambda m: m[0])
    psi_p = bell_state("psi+", ("3", "4"))
    assert best_w > 0.99
    assert abs(abs(sum(psi_p.amplitude(o) * a for o, a in best.items())) - 1.0) < 1e-12


def test_impossible_pattern_flagged():
    reg = ModeRegister(("1", "2"), 1)
    state = FockKet(reg, {(0, 0): 1.0})
    out = measure(state, [("1",)], 1.0)[(CLICK,)]
    assert out.impossible
    assert out.probability == 0.0
    assert out.ensemble is None


@given(random_kets(), st.floats(0.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_click_plus_silent_is_one(ket, eta):
    mode = ket.register.labels[0]
    if ket.register.size == 1:
        return
    outcomes = measure(ket, [(mode,)], eta)
    p_click, p_silent = outcomes[(CLICK,)].probability, outcomes[(SILENT,)].probability
    assert p_click + p_silent == pytest.approx(1.0, abs=1e-12)


@given(random_kets(max_modes=4, max_cutoff=3), st.floats(0.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_povm_completeness(ket, eta):
    if ket.register.size < 3:
        return
    modes = ket.register.labels[:2]
    outcomes = measure(ket, [(modes[0],), (modes[1],)], eta)
    assert list(outcomes) == list(itertools.product((CLICK, SILENT), repeat=2))
    total = sum(o.probability for o in outcomes.values())
    assert total == pytest.approx(1.0, abs=1e-12)


def test_click_probability_monotone_in_eta():
    reg = ModeRegister(("1", "2"), 3)
    state = FockKet(reg, {(1, 0): 0.5, (3, 1): 0.7, (0, 2): 0.4}).normalized()
    prev = -1.0
    for eta in [i / 20 for i in range(21)]:
        p = measure(state, [("1",)], eta)[(CLICK,)].probability
        assert p >= prev - 1e-12
        prev = p


def test_unit_efficiency_matches_projector_on_single_photon_modes():
    # every branch has <= 1 photon in the measured mode, so the threshold
    # POVM at eta = 1 must coincide with the {n=0}/{n>=1} projector
    reg = ModeRegister(("1", "2"), 1)
    state = FockKet(reg, {(0, 0): 0.6, (1, 0): 0.5, (1, 1): 0.3, (0, 1): 0.2}).normalized()
    out = measure(state, [("1",)], 1.0)[(CLICK,)]
    exact = sum(abs(a) ** 2 for occ, a in state.items() if occ[0] >= 1)
    assert out.probability == pytest.approx(exact, abs=1e-15)


def test_coincidence_psi_plus_through_bs():
    post = apply_mode_unitary(bell_state("psi+", ("3", "4"), cutoff=2),
                              balanced_bs(), ("3", "4"))
    table = measure(post, [("3",), ("4",)], 1.0)
    assert click_marginal(table, 0) == pytest.approx(1.0)
    assert click_marginal(table, 1) == pytest.approx(0.0, abs=1e-12)
    zero = measure(post, [("3",), ("4",)], 0.0)
    assert zero[(SILENT, SILENT)].probability == pytest.approx(1.0)
    partial = measure(post, [("3",), ("4",)], 0.8)
    assert click_marginal(partial, 0) == pytest.approx(0.8)


def test_multimode_detector_coverage():
    # one detector covering two modes clicks unless both are empty
    reg = ModeRegister(("bH", "bV", "rest"), 1)
    state = FockKet(reg, {(1, 0, 0): 1.0, (0, 1, 0): 1.0, (0, 0, 1): 1.0}).normalized()
    out = measure(state, [("bH", "bV")], 1.0)[(CLICK,)]
    assert out.probability == pytest.approx(2.0 / 3.0)


# --------------------------------------------------------------------------
# Every outcome against a per-outcome reference; branches built once
# --------------------------------------------------------------------------

def _two_step_measure(state, detectors, eta):
    """Reference, outcome by outcome: each branch built by the public
    constructor, then normalized by a second public build; a branch that
    pruning empties is dropped and its weight kept in the probability."""
    det = ThresholdDetector(eta)
    reg = state.register
    measured = [reg.index(m) for modes in detectors for m in modes]
    rest = [i for i in range(reg.size) if i not in measured]
    rest_reg = ModeRegister(tuple(reg.labels[i] for i in rest), reg.cutoff)
    groups = {}
    for occ, amp in state.terms.items():
        groups.setdefault(tuple(occ[i] for i in measured), {})[
            tuple(occ[i] for i in rest)] = amp
    ref = {}
    for out in itertools.product((CLICK, SILENT), repeat=len(detectors)):
        total, branches = 0.0, []
        for key, sub in groups.items():
            w = sum(abs(a) ** 2 for a in sub.values())
            p_out, pos = 1.0, 0
            for o, modes in zip(out, detectors):
                n = sum(key[pos:pos + len(modes)])
                pos += len(modes)
                p_out *= det.p_click(n) if o == CLICK else det.p_silent(n)
            contrib = w * p_out
            if contrib > 0.0:
                total += contrib
                ket = FockKet(rest_reg, sub)
                if not ket.terms:
                    continue
                c = 1.0 / ket.norm()
                branches.append((contrib, FockKet(rest_reg, {o: c * a for o, a in ket.items()})))
        ref[out] = total, branches
    return ref


def _assert_matches_two_step(state, detectors, eta):
    outcomes = measure(state, detectors, eta)
    ref = _two_step_measure(state, detectors, eta)
    assert list(outcomes) == list(ref)
    for out, (total, branches) in ref.items():
        got = outcomes[out]
        assert got.probability.hex() == total.hex()
        assert got.impossible == (total <= 0.0)
        if not branches:
            assert got.ensemble is None
            continue
        ens = WeightedEnsemble.from_branches(branches)
        assert [w.hex() for w, _ in got.ensemble.members] == [w.hex() for w, _ in ens.members]
        assert [ket_bits(k) for _, k in got.ensemble.members] == \
            [ket_bits(k) for _, k in ens.members]


@st.composite
def _partial_detectors(draw, ket):
    """Threshold detectors, some covering several modes, on a proper,
    non-empty subset of the ket's modes."""
    labels = draw(st.permutations(ket.register.labels))
    measured = labels[:draw(st.integers(1, len(labels) - 1))]
    detectors = [[measured[0]]]
    for m in measured[1:]:
        if draw(st.booleans()):
            detectors.append([m])
        else:
            detectors[-1].append(m)
    return [tuple(d) for d in detectors]


@given(ket=random_kets(normalized=False), eta=st.floats(0.05, 1.0),
       tol=st.sampled_from([DEFAULT_PRUNE_TOL, 0.0, 0.3]), data=st.data())
@settings(max_examples=80, deadline=None)
def test_measure_outcomes_match_public_and_two_step(ket, eta, tol, data):
    assume(ket.register.size >= 2)
    detectors = data.draw(_partial_detectors(ket))
    with pruning(tol):
        with recording_trusted() as calls:
            _assert_matches_two_step(ket, detectors, eta)
        for out, ref in calls:
            assert ket_bits(out) == ket_bits(ref)


def test_branch_with_below_tolerance_amplitude_keeps_two_step_result():
    # built with pruning off, measured under the default tolerance: the
    # 5e-15 term is dropped before normalizing, as the two-step path does
    reg = ModeRegister(("1", "2"), 1)
    with pruning(0.0):
        state = FockKet(reg, {(0, 0): 1.0, (1, 0): 1e-7, (1, 1): 5e-15}).normalized()
    _assert_matches_two_step(state, [("1",)], 1.0)
    (_, branch), = measure(state, [("1",)], 1.0)[(CLICK,)].ensemble.members
    assert branch.terms == {(0,): 1.0 + 0.0j}


def test_fully_pruned_branch_is_dropped_and_its_probability_kept():
    # built under the default tolerance, measured under a higher one that
    # prunes every amplitude of the heralded group
    reg = ModeRegister(("m0", "m1", "m2", "m3"), 1)
    state = FockKet(reg, {(0, 1, 0, 0): 0.25})
    with pruning(0.3):
        outcomes = measure(state, [("m1",)], 1.0)
        _assert_matches_two_step(state, [("m1",)], 1.0)
    click = outcomes[(CLICK,)]
    assert click.probability == 0.0625
    assert click.ensemble is None
    assert not click.impossible
    assert outcomes[(SILENT,)].impossible


def test_outcomes_sharing_a_group_share_its_branch_ket():
    # one group (a photon in mode 1) feeds both outcomes at eta = 0.5
    reg = ModeRegister(("1", "2"), 1)
    state = FockKet(reg, {(1, 0): 0.6, (1, 1): 0.8})
    with recording_trusted() as calls:
        outcomes = measure(state, [("1",)], 0.5)
    (_, click), = outcomes[(CLICK,)].ensemble.members
    (_, silent), = outcomes[(SILENT,)].ensemble.members
    assert click is silent
    assert len(calls) == 1
