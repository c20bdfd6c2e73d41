import gc
import itertools
import math
from unittest import mock

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from swapsim import detection, fock, protocols
from swapsim.detection import (CLICK, SILENT, ConditionalOutcome, ThresholdDetector, _Povm,
                               coincidence_table, measure, mixture_tables)
from swapsim.elements import (
    ModeUnitary,
    apply_mode_unitary,
    balanced_bs,
    polarization_rotation,
    unbalanced_bs,
)
from swapsim.fock import (
    FockKet,
    ModeRegister,
    WeightedEnsemble,
    bell_state,
)
from swapsim.sources import double_pass_source

from conftest import ket_bits, random_kets, recording_trusted


def click_marginal(outcomes, i):
    return sum(o.probability for out, o in outcomes.items() if out[i] == CLICK)


def test_detector_validation():
    with pytest.raises(ValueError):
        ThresholdDetector(1.5)
    state = bell_state("psi+", ("1", "2"))
    with pytest.raises(ValueError):
        measure(state, [("1",)], 1.5)
    # a layout's set-up is kept only once it passed its checks: a bad one
    # raises on every call
    for _ in range(2):
        with pytest.raises(ValueError, match="at most one detector"):
            measure(state, [("1",), ("1",)], 1.0)
        with pytest.raises(KeyError, match="mode '9' not in register"):
            measure(state, [("1",), ("9",)], 1.0)


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
    constructor, then normalized by a second public build."""
    det = ThresholdDetector(eta)
    reg = state.register
    measured = [reg.index(m) for modes in detectors for m in modes]
    rest = [i for i in range(reg.size) if i not in measured]
    rest_reg = ModeRegister(tuple(reg.labels[i] for i in rest), reg.cutoff) if rest else None
    groups = {}
    for occ, amp in state.terms.items():
        groups.setdefault(tuple(occ[i] for i in measured), {})[
            tuple(occ[i] for i in rest)] = amp
    ref = {}
    for out in itertools.product((CLICK, SILENT), repeat=len(detectors)):
        total, branches = 0.0, []
        for key, sub in groups.items():
            w = fock._left_sum(abs(a) ** 2 for a in sub.values())
            p_out, pos = 1.0, 0
            for o, modes in zip(out, detectors):
                n = sum(key[pos:pos + len(modes)])
                pos += len(modes)
                p_out *= det.p_click(n) if o == CLICK else det.p_silent(n)
            contrib = w * p_out
            if contrib > 0.0:
                total += contrib
                if rest_reg is None:
                    continue
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


@given(ket=random_kets(normalized=False), eta=st.floats(0.05, 1.0), data=st.data())
@settings(max_examples=80, deadline=None)
def test_measure_outcomes_match_public_and_two_step(ket, eta, data):
    assume(ket.register.size >= 2)
    detectors = data.draw(_partial_detectors(ket))
    with recording_trusted() as calls:
        _assert_matches_two_step(ket, detectors, eta)
    for out, ref in calls:
        assert ket_bits(out) == ket_bits(ref)


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


# --------------------------------------------------------------------------
# One-member mixtures of transformed, fully measured kets against apply
# then measure
# --------------------------------------------------------------------------

two_mode_unitaries = st.one_of(
    st.just(balanced_bs()),
    st.floats(0.01, 0.99).map(unbalanced_bs),
    st.floats(0.0, 3.0).map(polarization_rotation),
)


def _one_member_tables(kets, u, eta):
    return mixture_tables([((1.0, ket),) for ket in kets], u, eta)


def _assert_tables_match_measure(kets, u, eta):
    detectors = [(m,) for m in kets[0].register.labels]
    tables = _one_member_tables(kets, u, eta)
    assert len(tables) == len(kets)
    for table, ket in zip(tables, kets):
        single = measure(apply_mode_unitary(ket, u, ket.register.labels), detectors, eta)
        assert [(out, p.hex()) for out, p in table.items()] == \
            [(out, o.probability.hex()) for out, o in single.items()]


@given(u=st.one_of(two_mode_unitaries, st.deferred(lambda: three_mode_unitaries)),
       eta=st.floats(0.05, 1.0), data=st.data())
@settings(max_examples=60, deadline=None)
def test_mixture_tables_match_measure_per_ket(u, eta, data):
    # one to four unnormalized kets on one set of labels, each with its own
    # cutoff (so the unitary often raises it); three modes have eight
    # outcomes, which two-mode phase tables never weigh
    kets = data.draw(st.lists(random_kets(normalized=False, n_modes=u.size),
                              min_size=1, max_size=4), label="kets")
    _assert_tables_match_measure(kets, u, eta)


def test_each_unitary_keeps_its_own_slot_plans():
    # a slot plan lives on the unitary whose table it reads: after the first
    # unitary is dropped, a second one with other entries (which CPython
    # may place at the first one's id) makes its own plans for the same
    # term layouts, and its output indices are numbered in another order
    reg = ModeRegister(("1", "2"), 3)
    kets = [FockKet(reg, {(2, 1): 0.6, (0, 3): 0.8, (1, 1): 0.1}),
            FockKet(reg, {(1, 0): 0.6, (0, 1): -0.8}),
            FockKet(reg, {(0, 1): 0.6, (3, 3): 0.8})]
    layouts = {tuple(ket.terms) for ket in kets}
    u = unbalanced_bs(0.3)
    u.sector((3, 3))
    _assert_tables_match_measure(kets, u, 0.7)
    assert set(u._slot_plans) == layouts
    del u
    gc.collect()
    v = polarization_rotation(0.7)
    assert not v._slot_plans
    _assert_tables_match_measure(kets, v, 0.7)
    assert set(v._slot_plans) == layouts
    _assert_tables_match_measure(kets, v, 0.4)


def test_the_shared_beam_splitter_keeps_a_bounded_number_of_slot_plans():
    # one-term kets, one layout each, well past the bound: the oldest plans
    # are dropped, and a ket whose plan was dropped gets the same bits again
    u = balanced_bs()
    reg = ModeRegister(("1", "2"), 20)
    kets = [FockKet(reg, {(a, b): 0.5}) for a in range(21) for b in range(21)]
    kets.append(FockKet(reg, {(1, 0): 0.6, (0, 1): 0.8}))
    assert len(kets) > 1.5 * detection._SLOT_PLANS_MAX
    before = _one_member_tables(kets, u, 0.6)
    assert len(u._slot_plans) == detection._SLOT_PLANS_MAX
    assert {tuple(ket.terms) for ket in kets} - u._slot_plans.keys()  # some were dropped
    after = _one_member_tables(kets, u, 0.6)
    assert len(u._slot_plans) == detection._SLOT_PLANS_MAX
    assert [[p.hex() for p in t.values()] for t in after] == \
        [[p.hex() for p in t.values()] for t in before]
    _assert_tables_match_measure(kets[:3] + kets[-3:], u, 0.6)


def _as_complex(ket):
    """``ket`` with every amplitude a built-in ``complex(a, 0.0)``."""
    return FockKet._trusted(ket.register, {occ: complex(a, 0.0) for occ, a in ket.items()})


def _measure_bits(outcomes):
    return [(out, o.probability.hex(),
             o.ensemble and [(w.hex(), ket_bits(s)) for w, s in o.ensemble.members])
            for out, o in outcomes.items()]


@given(ket=random_kets(normalized=False, n_modes=3, real=True),
       pair=random_kets(normalized=False, n_modes=2, real=True),
       u=two_mode_unitaries, eta=st.floats(0.0, 1.0),
       outcomes=st.sampled_from([None, [(CLICK, SILENT), (SILENT, CLICK)]]))
@settings(max_examples=60, deadline=None)
def test_float_and_complex_amplitudes_give_the_same_bits(ket, pair, u, eta, outcomes):
    # a real ket held as floats and the same ket held as complex(a, 0.0) give
    # the same bits through the scatters, the heralds and the phase tables
    twin, pair_twin = _as_complex(ket), _as_complex(pair)
    assert {type(a) for a in ket.terms.values()} == {float}
    assert {type(a) for a in twin.terms.values()} == {complex}
    assert ket_bits(twin) == ket_bits(ket)
    modes = ket.register.labels[:2]
    detectors = [(m,) for m in modes]
    applied, applied_twin = apply_mode_unitary(ket, u, modes), apply_mode_unitary(twin, u, modes)
    assert {type(a) for a in applied.terms.values()} == {float}
    assert {type(a) for a in applied_twin.terms.values()} == {complex}
    assert ket_bits(applied_twin) == ket_bits(applied)
    assert (_measure_bits(measure(twin, detectors, eta, unitary=balanced_bs(),
                                  outcomes=outcomes))
            == _measure_bits(measure(ket, detectors, eta, unitary=balanced_bs(),
                                     outcomes=outcomes)))
    (table_twin,) = mixture_tables([((1.0, pair_twin),)], u, eta)
    (table,) = mixture_tables([((1.0, pair),)], u, eta)
    assert [p.hex() for p in table_twin.values()] == [p.hex() for p in table.values()]


@given(ket=random_kets(normalized=False, n_modes=2), eta=st.floats(0.05, 1.0))
@settings(max_examples=40, deadline=None)
def test_swapping_two_detectors_swaps_the_outcomes(ket, eta):
    # with every mode measured, a term's row comes by its own occupation,
    # read through the measured-occupation getter unless the detectors are
    # in register order; listing them the other way round only relabels
    # the outcomes, bit for bit
    a, b = ket.register.labels
    got = measure(ket, [(b,), (a,)], eta)
    ref = measure(ket, [(a,), (b,)], eta)
    for (x, y), o in ref.items():
        assert got[(y, x)].probability.hex() == o.probability.hex()


def test_mixture_tables_skip_what_the_transformed_ket_prunes():
    # the beam splitter leaves about -7.8e-16 on |01>: building the ket
    # prunes it, so no outcome may count its square
    ket = FockKet(ModeRegister(("1", "2"), 1), {(1, 0): 1.0, (0, 1): 1.0 + 1e-15})
    detectors = [("1",), ("2",)]
    (table,) = _one_member_tables([ket], balanced_bs(), 1.0)
    single = measure(apply_mode_unitary(ket, balanced_bs(), ("1", "2")), detectors, 1.0)
    assert table[(SILENT, CLICK)] == single[(SILENT, CLICK)].probability == 0.0
    assert [p.hex() for p in table.values()] == \
        [o.probability.hex() for o in single.values()]


def test_mixture_tables_reject_members_on_other_labels():
    a = bell_state("psi+", ("1", "2"))
    b = bell_state("psi+", ("2", "1"))
    with pytest.raises(ValueError, match="share"):
        _one_member_tables([a, b], balanced_bs(), 0.5)


def test_mixture_tables_reject_unitary_size_and_cutoff():
    three = FockKet(ModeRegister(("1", "2", "3"), 1), {(1, 0, 0): 1.0})
    with pytest.raises(ValueError, match="acts on 2 modes, got 3"):
        _one_member_tables([three], balanced_bs(), 0.5)
    big = FockKet(ModeRegister(("1", "2"), 21), {(1, 0): 1.0})
    small = FockKet(ModeRegister(("1", "2"), 1), {(1, 0): 1.0})
    for kets in ([big], [small, big]):
        with pytest.raises(ValueError, match="a mode would hold 21 photons, above the limit of 20"):
            _one_member_tables(kets, balanced_bs(), 0.5)


def test_mixture_tables_check_the_members_they_skip(monkeypatch):
    # at eta = 0.5 every outcome of lead is above 1e-3, so a member of
    # weight 1e-300 is skipped, never measured; one on other labels, or
    # above the cutoff limit, is still rejected
    reg = ModeRegister(("1", "2"), 2)
    lead = FockKet(reg, {(2, 1): 0.6, (1, 0): 0.8})
    bs = balanced_bs()
    measured = []
    weigh = detection._all_modes_probabilities

    def recording(ket, *args):
        measured.append(ket)
        return weigh(ket, *args)

    monkeypatch.setattr(detection, "_all_modes_probabilities", recording)
    (table,) = mixture_tables([((1.0, lead), (1e-300, lead.scaled(1.0)))], bs, 0.5)
    assert measured == [lead]
    assert min(table.values()) > 1e-3
    assert table == _one_member_tables([lead], bs, 0.5)[0]
    other = FockKet(ModeRegister(("2", "1"), 2), {(1, 0): 1.0})
    big = FockKet(ModeRegister(("1", "2"), 21), {(1, 0): 1.0})
    with pytest.raises(ValueError, match="share"):
        mixture_tables([((1.0, lead), (1e-300, other))], bs, 0.5)
    with pytest.raises(ValueError, match="a mode would hold 21 photons, above the limit of 20"):
        mixture_tables([((1.0, lead),), ((1.0, lead), (1e-300, big))], bs, 0.5)
    # the threshold is half an ulp of the table's smallest running entry, made
    # again only when that entry moves: members straddle it before and after
    # a member of weight 4.0 moves it up by a binade, and the members measured
    # and the table's bits are those of a loop that makes the threshold again
    # after every member (each copy of lead is its own ket, measured apart)
    p_lead = list(_one_member_tables([lead], bs, 0.5)[0].values())
    half = math.ulp(min(p_lead)) / 2
    moved = math.ulp(min(j + 4.0 * q for j, q in zip(p_lead, p_lead))) / 2
    assert moved > half * 1.001
    weights = [1.0, half / 2 * 0.999, half / 2, half / 2 * 1.001, 4.0, half / 2 * 1.001,
               moved / 2 * 0.999, moved / 2 * 1.001]
    members = [(w, lead.scaled(1.0)) for w in weights]
    measured.clear()
    (table,) = mixture_tables([members], bs, 0.5)
    joint, threshold, want = [0.0] * 4, 0.0, []
    for w, ket in members:
        if 2.0 * w < threshold:
            continue
        want.append(ket)
        joint = [j + w * q for j, q in zip(joint, p_lead)]
        threshold = math.ulp(min(joint)) / 2
    weight_of = {id(ket): w for w, ket in members}
    assert [weight_of[id(ket)] for ket in measured] == \
        [1.0, half / 2, half / 2 * 1.001, 4.0, moved / 2 * 1.001]
    assert measured == want
    assert [p.hex() for p in table.values()] == [j.hex() for j in joint]


@pytest.mark.parametrize("outcomes", [None, [(CLICK, SILENT), (CLICK, CLICK)]])
@pytest.mark.parametrize("unitary", [None, balanced_bs()])
def test_measure_builds_each_ensemble_from_its_branches(unitary, outcomes):
    # every outcome measure returns holds its ensemble, built from that
    # outcome's branches in coincidence_table; a record has no other slot
    assert ConditionalOutcome.__slots__ == ConditionalOutcome._fields
    state = FockKet(ModeRegister(("1", "2", "3"), 1), {(1, 0, 1): 0.6, (0, 1, 0): 0.8})
    table = coincidence_table(state, [["1"], ["2"]], 0.5, unitary, outcomes)
    result = measure(state, [["1"], ["2"]], 0.5, unitary, outcomes)
    assert list(result) == list(table)
    for out, (total, branches) in table.items():
        ens = result[out].ensemble
        assert result[out].probability.hex() == total.hex()
        if not branches:
            assert ens is None
            continue
        ref = WeightedEnsemble.from_branches(branches)
        assert [(w.hex(), ket_bits(k)) for w, k in ens.members] == \
            [(w.hex(), ket_bits(k)) for w, k in ref.members]
    assert result[(CLICK, SILENT)].ensemble is not None
    assert result[(CLICK, CLICK)].ensemble is None  # no (1, 1) occupation, before or after


# --------------------------------------------------------------------------
# Measuring after a unitary without building the transformed ket
# --------------------------------------------------------------------------

def _table_bits(table):
    """Every outcome of a coincidence table, in order, with its probability
    and its (weight, branch) pairs as bits; branch bits include the register
    and so its cutoff."""
    return [(out, total.hex(), [(w.hex(), ket_bits(k)) for w, k in branches])
            for out, (total, branches) in table.items()]


def _assert_fused_matches_apply_then_measure(state, detectors, eta, u):
    measured = tuple(m for modes in detectors for m in modes)
    fused = coincidence_table(state, detectors, eta, u)
    ref = coincidence_table(apply_mode_unitary(state, u, measured), detectors, eta)
    assert _table_bits(fused) == _table_bits(ref)
    got = measure(state, detectors, eta, u)
    want = measure(apply_mode_unitary(state, u, measured), detectors, eta)
    assert list(got) == list(want)
    for out, o in want.items():
        assert got[out].probability.hex() == o.probability.hex()
        if o.ensemble is None:
            assert got[out].ensemble is None
            continue
        assert got[out].ensemble.register == o.ensemble.register
        assert [(w.hex(), ket_bits(k)) for w, k in got[out].ensemble.members] == \
            [(w.hex(), ket_bits(k)) for w, k in o.ensemble.members]


# amplitudes that cancel, exactly or to below the pruning tolerance, on a
# beam splitter, mixed with generic ones
_cancelling = st.sampled_from([1.0, -1.0, 1.0 + 1e-15, -1.0 - 1e-15, 0.5, 0.5j])


@st.composite
def _kets_that_prune(draw):
    n_modes = draw(st.integers(2, 4))
    cutoff = draw(st.integers(1, 3))
    reg = ModeRegister(tuple(f"m{i}" for i in range(n_modes)), cutoff)
    occ = st.tuples(*[st.integers(0, cutoff)] * n_modes)
    amp = st.one_of(_cancelling, st.complex_numbers(min_magnitude=0.05, max_magnitude=1.0,
                                                    allow_nan=False, allow_infinity=False))
    return FockKet(reg, draw(st.dictionaries(occ, amp, min_size=1, max_size=8)))


@pytest.mark.parametrize("tol", [None, 0.0])
@given(ket=st.one_of(_kets_that_prune(), random_kets(normalized=False)),
       u=two_mode_unitaries, eta=st.floats(0.05, 1.0), data=st.data())
@settings(max_examples=80, deadline=None)
def test_fused_herald_matches_apply_then_measure(tol, ket, u, eta, data):
    # u acts on the two measured modes, in detector order
    assume(ket.register.size >= 2)
    m1, m2 = data.draw(st.permutations(ket.register.labels), label="modes")[:2]
    if data.draw(st.booleans(), label="one two-mode detector"):
        detectors = [(m1, m2)]
    else:
        detectors = [(m1,), (m2,)]
    with mock.patch.object(fock, "PRUNE_TOL", fock.PRUNE_TOL if tol is None else tol):
        _assert_fused_matches_apply_then_measure(ket, detectors, eta, u)


def test_fused_herald_when_pruning_drops_the_first_key_of_a_group():
    # through the beam splitter |100> keeps about -7.8e-16, below the
    # tolerance: the group of one photon in mode 1 then starts at |101>,
    # after the first key of the group of one photon in mode 2
    reg = ModeRegister(("1", "2", "3"), 1)
    ket = FockKet(reg, {(1, 0, 0): 1.0, (0, 1, 0): -1.0 - 1e-15, (1, 0, 1): 0.5})
    post = apply_mode_unitary(ket, balanced_bs(), ("1", "2"))
    assert (1, 0, 0) not in post.terms and list(post.terms)[0] == (0, 1, 0)
    for eta in (0.5, 1.0):
        for detectors in ([("1",), ("2",)], [("2",), ("1",)], [("1", "2")]):
            _assert_fused_matches_apply_then_measure(ket, detectors, eta, balanced_bs())
    # the groups' order follows their first kept key, so it flips unpruned:
    # both groups stay silent with probability 0.5, the mode-2 group with
    # weight (2 + 1/4) / 2, the mode-1 group with (1/4) / 2
    for tol, order in ((fock.PRUNE_TOL, [(1.0625, [(0,), (1,)]), (0.0625, [(1,)])]),
                       (0.0, [(0.0625, [(0,), (1,)]), (1.0625, [(0,), (1,)])])):
        with mock.patch.object(fock, "PRUNE_TOL", tol):
            table = coincidence_table(ket, [("1",), ("2",)], 0.5, balanced_bs())
        assert [(round(w, 12), list(k.terms)) for w, k in table[(SILENT, SILENT)][1]] == order


def test_fused_herald_when_pruning_moves_a_group_behind_one_made_later():
    # u mixes modes 1 and 2, then 2 and 3; its first column has no mode-1
    # entry, so |001> makes the groups of |010> and |001> but not |100>.
    # Both of its terms are pruned (1.2e-14 / sqrt2), so each of those two
    # groups first keeps a term of |1001>, behind that term's |100> group
    r = 1.0 / math.sqrt(2.0)
    u = ModeUnitary(((r, r, 0.0), (0.5, -0.5, r), (0.5, -0.5, -r)))
    reg = ModeRegister(("1", "2", "3", "4"), 1)
    ket = FockKet(reg, {(0, 0, 1, 0): 1.2e-14, (1, 0, 0, 1): 1.0})
    detectors = [("1",), ("2",), ("3",)]
    post = apply_mode_unitary(ket, u, ("1", "2", "3"))
    assert list(post.terms) == [(1, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)]
    for eta in (0.5, 1.0):
        _assert_fused_matches_apply_then_measure(ket, detectors, eta, u)


def _three_mode(e1, e2):
    """unbalanced_bs(e1) on modes 1, 2 after unbalanced_bs(e2) on modes 2, 3."""
    a, b = unbalanced_bs(e1).entries, unbalanced_bs(e2).entries
    big_a = ((a[0][0], a[0][1], 0.0), (a[1][0], a[1][1], 0.0), (0.0, 0.0, 1.0))
    big_b = ((1.0, 0.0, 0.0), (0.0, b[0][0], b[0][1]), (0.0, b[1][0], b[1][1]))
    return ModeUnitary([[sum(big_a[i][k] * big_b[k][j] for k in range(3)) for j in range(3)]
                        for i in range(3)])


_R2 = 1.0 / math.sqrt(2.0)
three_mode_unitaries = st.one_of(
    # a zero entry: an input's outputs need not cover its photon number
    st.just(ModeUnitary(((_R2, _R2, 0.0), (0.5, -0.5, _R2), (0.5, -0.5, -_R2)))),
    st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)).map(lambda e: _three_mode(*e)),
)


def _sharing(table):
    """Which branches of a coincidence table are one object: each branch's
    position of first appearance, outcome by outcome."""
    first = {}
    return [[first.setdefault(id(k), (out, j)) for j, (_, k) in enumerate(branches)]
            for out, (_, branches) in table.items()]


@given(ket=st.one_of(_kets_that_prune(), random_kets(normalized=False)),
       u=st.one_of(two_mode_unitaries, three_mode_unitaries, st.none()),
       eta=st.one_of(st.sampled_from([0.0, 1.0, 1.0 - 1e-200, 1.0 - 2.0**-53]),
                     st.floats(0.0, 1.0)),
       data=st.data())
@settings(max_examples=150, deadline=None)
def test_measuring_some_outcomes_is_the_full_result_restricted(ket, u, eta, data):
    # probabilities, group order, weights, branch bits, registers and
    # cutoffs, and which branches are shared, all as in the full result
    size = 2 if u is None else u.size
    assume(ket.register.size >= size)
    modes = data.draw(st.permutations(ket.register.labels), label="modes")[:size]
    if data.draw(st.booleans(), label="first two modes under one detector"):
        detectors = [tuple(modes[:2])] + [(m,) for m in modes[2:]]
    else:
        detectors = [(m,) for m in modes]
    every = list(itertools.product((CLICK, SILENT), repeat=len(detectors)))
    some = data.draw(st.lists(st.sampled_from(every), min_size=1, unique=True),
                     label="outcomes")
    full = coincidence_table(ket, detectors, eta, u)
    part = coincidence_table(ket, detectors, eta, u, some)
    assert list(part) == [out for out in every if out in some]
    assert _table_bits(part) == [row for row in _table_bits(full) if row[0] in some]
    restricted = {out: full[out] for out in part}
    assert _sharing(part) == _sharing(restricted)
    got, want = measure(ket, detectors, eta, u, some), measure(ket, detectors, eta, u)
    assert list(got) == list(part)
    for out, o in got.items():
        assert o.probability.hex() == want[out].probability.hex()
        if want[out].ensemble is None:
            assert o.ensemble is None
            continue
        assert o.ensemble.register == want[out].ensemble.register
        assert [(w.hex(), ket_bits(k)) for w, k in o.ensemble.members] == \
            [(w.hex(), ket_bits(k)) for w, k in want[out].ensemble.members]


def test_measuring_some_outcomes_keeps_the_cutoff_of_every_output():
    # at eta = 1 only (click, click) is asked for: |21> on modes 1, 2 goes to
    # |30>, |21>, |12>, |03>, and the two groups that hold 3 photons in one
    # mode build no branch, yet the branches take cutoff 3
    ket = FockKet(ModeRegister(("1", "2", "3"), 2), {(2, 1, 1): 1.0, (1, 0, 0): 0.5})
    detectors = [("1",), ("2",)]
    part = coincidence_table(ket, detectors, 1.0, balanced_bs(), [(CLICK, CLICK)])
    full = coincidence_table(ket, detectors, 1.0, balanced_bs())
    ((total, branches),) = part.values()
    assert total > 0.0 and {k.register.cutoff for _, k in branches} == {3}
    assert _table_bits(part) == _table_bits({(CLICK, CLICK): full[(CLICK, CLICK)]})


def test_measuring_some_outcomes_builds_only_the_branches_they_read():
    # the heralds at eta = 1: the vacuum and every group with photons at
    # both detectors weigh 0.0 on both heralded outcomes, so no branch is
    # built for them; the full table builds one branch for every group
    detectors = protocols._SCHEME_A.detectors
    mixed = [m for (m,) in detectors]
    pre = double_pass_source(math.sqrt(0.1), 6)
    post = apply_mode_unitary(pre, balanced_bs(), mixed)
    idx = [post.register.index(m) for m in mixed]
    groups = {tuple(occ[i] for i in idx) for occ in post.terms}
    one_detector = [key for key in groups if (key[0] == 0) != (key[1] == 0)]
    with recording_trusted() as calls:
        part = coincidence_table(pre, detectors, 1.0, balanced_bs(), protocols._HERALDS)
        heralded = len(calls)
        full = coincidence_table(pre, detectors, 1.0, balanced_bs())
        every = len(calls) - heralded
    assert heralded == len(one_detector) == sum(len(b) for _, b in part.values())
    assert every == len(groups)
    assert heralded < every / 3
    assert _table_bits(part) == _table_bits({out: full[out] for out in protocols._HERALDS})


def _plan_sizes(u):
    return {key: len(plan) for key, plan in u._plans.items()}


def test_a_cached_plan_cannot_go_stale():
    # one balanced beam splitter, fresh so that its table and plans start
    # empty, across calls that make, reuse and grow its plans (only at
    # eta = 1); each result is the full table restricted to the outcomes
    # asked for, and a repeat call adds no plan entry
    u = ModeUnitary(balanced_bs().entries)
    assert u == balanced_bs() and not u._table and not u._plans
    detectors = protocols._SCHEME_A.detectors
    mixed = [m for (m,) in detectors]
    small = double_pass_source(math.sqrt(0.1), 2)
    large = double_pass_source(math.sqrt(0.1), 6)
    heralds, both = protocols._HERALDS, [(CLICK, CLICK)]
    calls = [(small, heralds, 0.0), (small, heralds, 1.0), (small, both, 1.0),
             (small, heralds, 0.7), (large, heralds, 1.0)]
    for ket, outcomes, eta in calls:
        grown, sizes = len(u._table), _plan_sizes(u)
        part = coincidence_table(ket, detectors, eta, u, outcomes)
        if eta != 1.0:  # only eta = 1 makes or grows a plan
            assert _plan_sizes(u) == sizes
        sizes = _plan_sizes(u)
        assert _table_bits(coincidence_table(ket, detectors, eta, u, outcomes)) == \
            _table_bits(part)
        assert _plan_sizes(u) == sizes
        full = coincidence_table(ket, detectors, eta, u)
        ref = coincidence_table(apply_mode_unitary(ket, u, mixed), detectors, eta)
        assert _table_bits(full) == _table_bits(ref)
        assert list(part) == [out for out in full if out in outcomes]
        restricted = {out: full[out] for out in part}
        assert _table_bits(part) == _table_bits(restricted)
        assert _sharing(part) == _sharing(restricted)
    # the last call grew the table after its plan existed, and the plan with it
    assert grown < len(u._table)
    key = ((1, 1), tuple(heralds))
    assert set(u._plans) == {key, ((1, 1), tuple(both))}
    assert u._plans[key].keys() == {(occ[0], occ[1]) for occ in large.terms}
    # the heralds' plan drops outputs of most entries, and each entry keeps
    # its table entry's factor and top
    assert any(len(u._plans[key][acted][1]) < len(u._table[acted][1]) for acted in u._plans[key])
    for plan in u._plans.values():
        for acted, (nf, outputs, top) in plan.items():
            entry = u._table[acted]
            assert (nf, top) == (entry[0], entry[2])
            assert [out for out in entry[1] if out in outputs] == list(outputs)


def test_measure_rejects_an_unknown_or_empty_outcome_list():
    # each raises on a second call too: no failed layout is kept
    ket = FockKet(ModeRegister(("1", "2"), 1), {(1, 0): 1.0})
    for _ in range(2):
        for outcomes in ([(CLICK,)], [(CLICK, "dark")], [(CLICK, SILENT, SILENT)]):
            with pytest.raises(ValueError, match="unknown outcomes"):
                measure(ket, [("1",), ("2",)], 0.5, balanced_bs(), outcomes)
        with pytest.raises(ValueError, match="no outcomes asked for"):
            measure(ket, [("1",), ("2",)], 0.5, balanced_bs(), [])


def _groups_whose_first_term_is_pruned(state, u, modes):
    """The measured occupations of ``u`` applied to ``modes`` of ``state``
    whose group keeps a term although its first one is pruned."""
    # a negative tolerance keeps every term, in the transformed ket's order
    with mock.patch.object(fock, "PRUNE_TOL", -1.0):
        terms = apply_mode_unitary(state, u, modes).terms
    idx = [state.register.index(m) for m in modes]
    first_kept, kept = {}, set()
    for occ, amp in terms.items():
        key = tuple(occ[i] for i in idx)
        keep = abs(amp) > fock.PRUNE_TOL
        first_kept.setdefault(key, keep)
        if keep:
            kept.add(key)
    return [key for key, keep in first_kept.items() if not keep and key in kept]


@pytest.mark.parametrize("scheme, args, eta", [
    ("a", (math.sqrt(0.1), 10), 0.7),
    ("a", (math.sqrt(0.1), 10), 1.0),
    ("a", (math.sqrt(0.05), 8), 0.6),
    ("b", (0.3, 4, "ubs", 0.5), 0.8),
    ("b", (0.3, 4, "pbs", 0.5), 0.8),
])
def test_fused_herald_matches_apply_then_measure_on_scheme_states(scheme, args, eta):
    # the heralds the reports run: a balanced beam splitter on the leading
    # beams (scheme A) or on beams 2 and 3 (scheme B), one detector on each
    if scheme == "a":
        pre, detectors = double_pass_source(*args), protocols._SCHEME_A.detectors
    else:
        pre, detectors = protocols.scheme_b_state(*args), protocols._SCHEME_B.detectors
    mixed = [m for (m,) in detectors]
    fused = coincidence_table(pre, detectors, eta, balanced_bs())
    ref = coincidence_table(apply_mode_unitary(pre, balanced_bs(), mixed), detectors, eta)
    assert _table_bits(fused) == _table_bits(ref)
    if args[1] == 10:
        # Hong-Ou-Mandel round-off leaves a group's first term below the
        # tolerance, so on real traffic too a group starts at a later term
        # than the one that first met it
        assert _groups_whose_first_term_is_pruned(pre, balanced_bs(), mixed)


def test_the_herald_picks_its_grouping_from_the_rest_occupations():
    # scheme A's double-pass source holds one term per pair of pair numbers,
    # which its unmeasured beams 3 and 4 read, so no two terms share a rest
    # occupation and the herald groups in one pass; scheme B's terms after
    # its unbalanced beam splitters share them, so its herald sums the
    # scattered terms, then groups them.  Both give apply-then-measure's bits
    cases = [(double_pass_source(math.sqrt(0.1), 10), protocols._SCHEME_A.detectors, True),
             (protocols.scheme_b_state(0.3, 4, "ubs", 0.5), protocols._SCHEME_B.detectors,
              False)]
    for pre, detectors, distinct in cases:
        mixed = [m for (m,) in detectors]
        rest_idx = [i for i, m in enumerate(pre.register.labels) if m not in mixed]
        rests = [tuple(occ[i] for i in rest_idx) for occ in pre.terms]
        assert (len(set(rests)) == len(rests)) == distinct
        for eta in (0.8, 1.0):
            with mock.patch.object(detection, "_scatter_groups",
                                   wraps=detection._scatter_groups) as one_pass, \
                    mock.patch.object(detection, "_scatter_terms",
                                      wraps=detection._scatter_terms) as summed:
                fused = coincidence_table(pre, detectors, eta, balanced_bs())
                part = coincidence_table(pre, detectors, eta, balanced_bs(), protocols._HERALDS)
            assert (one_pass.call_count, summed.call_count) == ((2, 0) if distinct else (0, 2))
            post = apply_mode_unitary(pre, balanced_bs(), mixed)
            ref = coincidence_table(post, detectors, eta)
            assert _table_bits(fused) == _table_bits(ref)
            assert _table_bits(part) == \
                _table_bits({out: ref[out] for out in protocols._HERALDS})


def test_fused_herald_rejects_a_unitary_of_another_size():
    ket = FockKet(ModeRegister(("1", "2", "3"), 1), {(1, 0, 0): 1.0})
    for detectors in ([("1",)], [("1",), ("2",), ("3",)], [("1", "2", "3")]):
        with pytest.raises(ValueError, match="unitary acts on 2 modes, got"):
            coincidence_table(ket, detectors, 0.5, balanced_bs())
        with pytest.raises(ValueError, match="unitary acts on 2 modes, got"):
            measure(ket, detectors, 0.5, balanced_bs())


def test_measure_and_mixture_tables_reject_an_overflowing_norm():
    # |amp|**2 is beyond the float range: the error FockKet.norm gives
    reg = ModeRegister(("1", "2"), 1)
    big = FockKet(reg, {(1, 0): 1e200})
    big3 = FockKet(ModeRegister(("1", "2", "3"), 1), {(1, 0, 0): 1e200})
    calls = [
        lambda: measure(big, [("1",)], 1.0),
        lambda: measure(big, [("1",), ("2",)], 1.0),
        lambda: measure(big3, [("1",), ("2",)], 1.0, balanced_bs()),
        lambda: measure(big, [("1",), ("2",)], 1.0, balanced_bs()),
        lambda: mixture_tables([((1.0, big),)], balanced_bs(), 1.0),
    ]
    with pytest.raises(ValueError, match="ket norm overflows the float range"):
        big.norm()
    for call in calls:
        with pytest.raises(ValueError, match="ket norm overflows the float range"):
            call()


@pytest.mark.parametrize("outcomes", [None, [(CLICK, SILENT), (SILENT, CLICK)],
                                      [(SILENT, CLICK)], [(CLICK, CLICK)]])
@pytest.mark.parametrize("eta", [0.5, 1.0])
def test_a_scattered_sum_beyond_the_float_range_raises_as_the_norm_does(eta, outcomes):
    # each amplitude squares to a finite float, but the beam splitter adds
    # them into one output of amplitude 2.4e308, beyond the float range
    ket = FockKet(ModeRegister(("1", "2"), 1), {(1, 0): 1.7e308, (0, 1): 1.7e308})
    with pytest.raises(ValueError, match="ket norm overflows the float range"):
        ket.norm()
    with pytest.raises(ValueError, match="ket norm overflows the float range"):
        measure(ket, [("1",), ("2",)], eta, balanced_bs(), outcomes)
    with pytest.raises(ValueError, match="ket norm overflows the float range"):
        coincidence_table(ket, [("1",), ("2",)], eta, balanced_bs(), outcomes)
    # at weight 0.0 the member's table entries would be NaN rather than inf
    for w in (1.0, 0.0):
        with pytest.raises(ValueError, match="ket norm overflows the float range"):
            mixture_tables([((w, ket),)], balanced_bs(), eta)


@pytest.mark.parametrize("u", [None, balanced_bs()])
@pytest.mark.parametrize("eta", [0.5, 1.0])
def test_a_ket_whose_norm_overflows_but_whose_table_does_not_measures_in_full(eta, u):
    # the squared norm, 2e308, is beyond the float range, but each outcome's
    # sum is within it: the full table raises nothing, and so neither does
    # any part of it, which is the full one restricted, bit for bit
    ket = FockKet(ModeRegister(("1", "2", "3"), 1), {(1, 0, 0): 1e154, (0, 1, 1): 1e154})
    with pytest.raises(ValueError, match="ket norm overflows the float range"):
        ket.norm()
    detectors = [("1",), ("2",)]
    full = coincidence_table(ket, detectors, eta, u)
    for out in full:
        part = coincidence_table(ket, detectors, eta, u, [out])
        assert _table_bits(part) == _table_bits({out: full[out]})


# --------------------------------------------------------------------------
# Rows of outcome probabilities
# --------------------------------------------------------------------------

@pytest.mark.parametrize("eta", [0.0, 0.3, 0.5, 1.0])
@pytest.mark.parametrize("detectors", [
    [("a",)], [("a", "b")],
    [("a",), ("b",)], [("a", "b"), ("c",)],
    [("a",), ("b",), ("c",)], [("a",), ("b", "c"), ("d",)],
])
def test_povm_rows_match_products_over_pairs(detectors, eta):
    # each row against the product of itertools.product's tuples from 1.0,
    # bit for bit: for every detector's photon count in 0..20 on a register
    # with cutoff 20, for counts in 41..45 on one with cutoff 45 (without a
    # unitary any cutoff is measured), and with two measured modes after a
    # beam splitter, keyed by output index, for outputs of up to 40 photons
    # in one mode.  The layout's set-up is kept across calls, so its rows at
    # another eta are made first: nothing kept may carry that eta into this
    # one's rows
    det = ThresholdDetector(eta)

    def product_bits(ns):
        pairs = [(det.p_click(n), det.p_silent(n)) for n in ns]
        return [math.prod(t, start=1.0).hex() for t in itertools.product(*pairs)]

    for cutoff, counts in ((20, range(21) if len(detectors) < 3 else range(0, 21, 3)),
                           (45, range(41, 46))):
        reg = ModeRegister(("a", "b", "c", "d"), cutoff)
        ns_keys = [(ns, tuple(x for modes, n in zip(detectors, ns)
                              for x in ((n,) if len(modes) == 1 else (n // 2, n - n // 2))))
                   for ns in itertools.product(counts, repeat=len(detectors))]
        povm = _Povm.of(reg, detectors)
        warm = povm.rows(ThresholdDetector(0.7), cutoff)
        for _, key in ns_keys:
            warm(key)
        assert _Povm.of(reg, [list(modes) for modes in detectors]) is povm
        row = povm.rows(det, cutoff)
        for ns, key in ns_keys:
            assert [p.hex() for p in row(key)] == product_bits(ns)
    if sum(map(len, detectors)) != 2:
        return
    # a fresh beam splitter: |20, 20>, |20, 19> and |13, 20> reach every
    # output occupation with 0 to 40 photons in a mode
    u = ModeUnitary(balanced_bs().entries)
    for acted in ((20, 20), (20, 19), (13, 20)):
        u.sector(acted)
    assert max(max(powers) for powers in u._powers) == 40
    povm = _Povm.of(ModeRegister(("a", "b", "c", "d"), 20), detectors)
    row = povm.rows(det, 20, u._powers)
    for i, powers in enumerate(u._powers):
        ns = powers if len(detectors) == 2 else (sum(powers),)
        assert [p.hex() for p in row(i)] == product_bits(ns)


def test_measure_without_a_unitary_above_forty_photons():
    # a register's cutoff has no limit without a unitary: photon counts up to
    # 45 in a mode, 90 under one detector, against the per-outcome reference
    reg = ModeRegister(("a", "b", "c"), 45)
    ket = FockKet(reg, {(45, 0, 1): 0.5, (41, 44, 0): 0.5, (0, 43, 45): 0.5, (45, 45, 2): 0.5})
    for detectors in ([("a",), ("b",)], [("a", "b")], [("a",), ("b",), ("c",)]):
        for eta in (0.01, 0.3):
            _assert_matches_two_step(ket, detectors, eta)
