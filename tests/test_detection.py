import itertools
import math

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from swapsim.detection import (
    CLICK,
    SILENT,
    ClickPattern,
    DetectorAssignment,
    ThresholdDetector,
    coincidence_table,
    marginal_click_probability,
    measure_pattern,
)
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


def pattern(*assignments):
    return ClickPattern(tuple(assignments))


def one(name, mode, eta, outcome):
    return DetectorAssignment(name, (mode,), ThresholdDetector(eta), outcome)


def test_detector_validation():
    with pytest.raises(ValueError):
        ThresholdDetector(1.5)
    with pytest.raises(NotImplementedError):
        ThresholdDetector(0.5, dark_count_rate=0.01)
    with pytest.raises(ValueError):
        DetectorAssignment("D", ("1",), ThresholdDetector(1.0), "maybe")
    with pytest.raises(ValueError):
        pattern(one("A", "1", 1.0, CLICK), one("B", "1", 1.0, SILENT))


def test_single_branch_projection():
    state = bell_state("psi+", ("1", "2"))
    out = measure_pattern(state, pattern(one("D", "1", 1.0, CLICK)))
    assert out.probability == pytest.approx(0.5)
    ((w, cond),) = out.ensemble.members
    assert w == pytest.approx(1.0)
    assert cond.amplitude((0,)) == pytest.approx(1.0)


def test_single_photon_click_probability_is_eta():
    reg = ModeRegister(("1", "aux"), 1)
    state = FockKet(reg, {(1, 0): 1.0})
    out = measure_pattern(state, pattern(one("D", "1", 0.5, CLICK)))
    assert out.probability == pytest.approx(0.5)


def test_two_photon_click_probability():
    reg = ModeRegister(("1", "aux"), 2)
    state = FockKet(reg, {(2, 0): 1.0})
    out = measure_pattern(state, pattern(one("D", "1", 0.5, CLICK)))
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
    out = measure_pattern(st_, pattern(one("D1", "1", 1.0, CLICK),
                                       one("D2", "2", 1.0, SILENT)))
    best_w, best = max(out.ensemble.members, key=lambda m: m[0])
    psi_p = bell_state("psi+", ("3", "4"))
    assert best_w > 0.99
    assert abs(abs(sum(psi_p.amplitude(o) * a for o, a in best.items())) - 1.0) < 1e-12


def test_impossible_pattern_flagged():
    reg = ModeRegister(("1", "2"), 1)
    state = FockKet(reg, {(0, 0): 1.0})
    out = measure_pattern(state, pattern(one("D", "1", 1.0, CLICK)))
    assert out.impossible
    assert out.probability == 0.0
    assert out.ensemble is None


@given(random_kets(), st.floats(0.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_click_plus_silent_is_one(ket, eta):
    mode = ket.register.labels[0]
    if ket.register.size == 1:
        return
    p_click = measure_pattern(ket, pattern(one("D", mode, eta, CLICK))).probability
    p_silent = measure_pattern(ket, pattern(one("D", mode, eta, SILENT))).probability
    assert p_click + p_silent == pytest.approx(1.0, abs=1e-12)


@given(random_kets(max_modes=4, max_cutoff=3), st.floats(0.0, 1.0))
@settings(max_examples=50, deadline=None)
def test_povm_completeness(ket, eta):
    if ket.register.size < 3:
        return
    modes = ket.register.labels[:2]
    total = 0.0
    for outcomes in itertools.product((CLICK, SILENT), repeat=2):
        pat = pattern(one("A", modes[0], eta, outcomes[0]),
                      one("B", modes[1], eta, outcomes[1]))
        total += measure_pattern(ket, pat).probability
    assert total == pytest.approx(1.0, abs=1e-12)
    table = coincidence_table(ket, [("A", (modes[0],)), ("B", (modes[1],))], eta)
    assert sum(table.values()) == pytest.approx(1.0, abs=1e-12)


def test_click_probability_monotone_in_eta():
    reg = ModeRegister(("1", "2"), 3)
    state = FockKet(reg, {(1, 0): 0.5, (3, 1): 0.7, (0, 2): 0.4}).normalized()
    prev = -1.0
    for eta in [i / 20 for i in range(21)]:
        p = measure_pattern(state, pattern(one("D", "1", eta, CLICK))).probability
        assert p >= prev - 1e-12
        prev = p


def test_unit_efficiency_matches_projector_on_single_photon_modes():
    # every branch has <= 1 photon in the measured mode, so the threshold
    # POVM at eta = 1 must coincide with the {n=0}/{n>=1} projector
    reg = ModeRegister(("1", "2"), 1)
    state = FockKet(reg, {(0, 0): 0.6, (1, 0): 0.5, (1, 1): 0.3, (0, 1): 0.2}).normalized()
    out = measure_pattern(state, pattern(one("D", "1", 1.0, CLICK)))
    exact = sum(abs(a) ** 2 for occ, a in state.items() if occ[0] >= 1)
    assert out.probability == pytest.approx(exact, abs=1e-15)


def test_coincidence_psi_plus_through_bs():
    post = apply_mode_unitary(bell_state("psi+", ("3", "4"), cutoff=2),
                              balanced_bs(), ("3", "4"))
    table = coincidence_table(post, [("D3", ("3",)), ("D4", ("4",))], 1.0)
    assert marginal_click_probability(table, 0) == pytest.approx(1.0)
    assert marginal_click_probability(table, 1) == pytest.approx(0.0, abs=1e-12)
    zero = coincidence_table(post, [("D3", ("3",)), ("D4", ("4",))], 0.0)
    assert zero[(SILENT, SILENT)] == pytest.approx(1.0)
    partial = coincidence_table(post, [("D3", ("3",)), ("D4", ("4",))], 0.8)
    assert marginal_click_probability(partial, 0) == pytest.approx(0.8)


def test_multimode_detector_coverage():
    # one detector covering two modes clicks unless both are empty
    reg = ModeRegister(("bH", "bV", "rest"), 1)
    state = FockKet(reg, {(1, 0, 0): 1.0, (0, 1, 0): 1.0, (0, 0, 1): 1.0}).normalized()
    out = measure_pattern(state, pattern(
        DetectorAssignment("D", ("bH", "bV"), ThresholdDetector(1.0), CLICK)))
    assert out.probability == pytest.approx(2.0 / 3.0)


# --------------------------------------------------------------------------
# Heralded branches are built once, through FockKet._trusted
# --------------------------------------------------------------------------

def _two_step_measure(state, pat):
    """Reference: each branch built by the public constructor, then normalized
    by a second public build, as measure_pattern did before one-build branches."""
    reg = state.register
    measured = [reg.index(m) for a in pat.assignments for m in a.modes]
    rest = [i for i in range(reg.size) if i not in measured]
    rest_reg = ModeRegister(tuple(reg.labels[i] for i in rest), reg.cutoff)
    groups = {}
    for occ, amp in state.terms.items():
        groups.setdefault(tuple(occ[i] for i in measured), {})[
            tuple(occ[i] for i in rest)] = amp
    total, branches = 0.0, []
    for key, sub in groups.items():
        w = sum(abs(a) ** 2 for a in sub.values())
        p_out, pos = 1.0, 0
        for a in pat.assignments:
            n = sum(key[pos:pos + len(a.modes)])
            pos += len(a.modes)
            p_out *= a.detector.p_click(n) if a.outcome == CLICK else a.detector.p_silent(n)
        contrib = w * p_out
        if contrib > 0.0:
            total += contrib
            ket = FockKet(rest_reg, sub)
            norm = ket.norm()
            if norm == 0.0:
                raise ValueError("cannot normalize the zero ket")
            c = 1.0 / norm
            branches.append((contrib, FockKet(rest_reg, {o: c * a for o, a in ket.items()})))
    return total, branches


def _assert_matches_two_step(state, pat):
    try:
        total, branches = _two_step_measure(state, pat)
    except ValueError:  # a whole group pruned: the second build has nothing left
        with pytest.raises(ValueError, match="zero ket"):
            measure_pattern(state, pat)
        return
    out = measure_pattern(state, pat)
    assert out.probability.hex() == total.hex()
    if not branches:
        assert out.ensemble is None
        return
    ref = WeightedEnsemble.from_branches(branches)
    assert [w.hex() for w, _ in out.ensemble.members] == [w.hex() for w, _ in ref.members]
    assert [ket_bits(k) for _, k in out.ensemble.members] == \
        [ket_bits(k) for _, k in ref.members]


@st.composite
def _partial_patterns(draw, ket):
    """Threshold detectors on a proper, non-empty subset of the ket's modes."""
    labels = draw(st.permutations(ket.register.labels))
    measured = labels[:draw(st.integers(1, len(labels) - 1))]
    return pattern(*(one(f"D{m}", m, draw(st.floats(0.05, 1.0)),
                         draw(st.sampled_from((CLICK, SILENT))))
                     for m in measured))


@given(ket=random_kets(normalized=False),
       tol=st.sampled_from([DEFAULT_PRUNE_TOL, 0.0, 0.3]), data=st.data())
@settings(max_examples=80, deadline=None)
def test_measure_pattern_branches_match_public_and_two_step(ket, tol, data):
    assume(ket.register.size >= 2)
    pat = data.draw(_partial_patterns(ket))
    with pruning(tol):
        with recording_trusted() as calls:
            _assert_matches_two_step(ket, pat)
        for out, ref in calls:
            assert ket_bits(out) == ket_bits(ref)


def test_branch_with_below_tolerance_amplitude_keeps_two_step_result():
    # built with pruning off, measured under the default tolerance: the
    # 5e-15 term is dropped before normalizing, as the two-step path does
    reg = ModeRegister(("1", "2"), 1)
    with pruning(0.0):
        state = FockKet(reg, {(0, 0): 1.0, (1, 0): 1e-7, (1, 1): 5e-15}).normalized()
    pat = pattern(one("D", "1", 1.0, CLICK))
    _assert_matches_two_step(state, pat)
    (_, branch), = measure_pattern(state, pat).ensemble.members
    assert branch.terms == {(0,): 1.0 + 0.0j}
