import cmath
import hashlib
import math
from types import MappingProxyType

import numpy as np
import pytest

from swapsim import protocols
from swapsim import detection
from swapsim.detection import CLICK, SILENT, ThresholdDetector, measure, mixture_tables
from swapsim.elements import (MAX_FACTORIAL_CUTOFF, apply_mode_unitary, balanced_bs, pbs,
                              polarization_rotation)
from swapsim.fock import (BELL_KINDS, FockKet, ModeRegister, WeightedEnsemble, _left_sum,
                          bell_state, fidelity, reorder, tensor_product, vacuum)
from swapsim.protocols import (
    analyze_polarization_postselection,
    analyze_vacuum_one_photon,
    bell_decomposition_check,
    run_phase_verification,
    run_scheme_a,
    run_scheme_b,
    run_theta_swapping,
    sample_run,
    scheme_a_click_distribution,
    scheme_b_click_distribution,
    scheme_b_state,
)
from swapsim.sources import double_pass_source, vacuum_one_photon_postbs

from conftest import ket_bits, relabel


# --------------------------------------------------------------------------
# independent oracle: dense 4-qubit expansion of the Bell projection
# --------------------------------------------------------------------------

def qubit_bell(kind):
    v = np.zeros(4)
    r = 1 / math.sqrt(2)
    s = 1.0 if kind.endswith("+") else -1.0
    if kind.startswith("phi"):
        v[0], v[3] = r, s * r  # |00>, |11>
    else:
        v[1], v[2] = r, s * r  # |01>, |10>
    return v


def inner_pair_projection_oracle(pair_vec, kind):
    """Probability and conditional (1,4) vector for Bell outcome on (2,3)."""
    psi = np.kron(pair_vec, pair_vec).reshape(2, 2, 2, 2)  # (n1, n2, n3, n4)
    bell = qubit_bell(kind).reshape(2, 2)
    cond = np.einsum("bc,abcd->ad", bell.conj(), psi)
    prob = float(np.sum(np.abs(cond) ** 2))
    return prob, cond.reshape(4)


def test_bell_decomposition_probabilities_and_signs():
    report = bell_decomposition_check()
    signs = {"psi+": 1.0, "psi-": -1.0, "phi+": -1.0, "phi-": 1.0}
    for ev in report.events:
        assert ev.probability == pytest.approx(0.25, abs=1e-12)
        assert ev.extras["fidelity_matched"] == pytest.approx(1.0, abs=1e-12)
        assert ev.extras["amplitude_sign"] == signs[ev.name]


@pytest.mark.parametrize("theta", [0.1, 0.3, math.pi / 4, 1.2])
def test_theta_swapping_matches_qubit_oracle(theta):
    c, s = math.cos(theta), math.sin(theta)
    pair = np.zeros(4)
    pair[0], pair[3] = c, s
    report = run_theta_swapping(theta)
    for ev in report.events:
        prob, cond = inner_pair_projection_oracle(pair, ev.name)
        assert ev.probability == pytest.approx(prob, abs=1e-12)
        if prob > 0:
            target = qubit_bell(ev.name)
            expected = abs(np.dot(target, cond)) ** 2 / prob
            assert ev.extras["fidelity_matched"] == pytest.approx(expected, abs=1e-12)


def test_theta_swapping_psi_outcomes():
    t = 0.1
    report = run_theta_swapping(t)
    expected = math.sin(t) ** 2 * math.cos(t) ** 2
    for kind in ("psi+", "psi-"):
        ev = report.event(kind)
        assert ev.probability == pytest.approx(expected, abs=1e-12)
        assert ev.extras["fidelity_matched"] == pytest.approx(1.0, abs=1e-12)
    zero = run_theta_swapping(0.0)
    assert zero.event("psi+").probability == pytest.approx(0.0, abs=1e-15)
    assert zero.event("psi-").probability == pytest.approx(0.0, abs=1e-15)


def test_theta_at_pi_4_matches_bell_check():
    report = run_theta_swapping(math.pi / 4)
    for ev in report.events:
        assert ev.probability == pytest.approx(0.25, abs=1e-12)
        assert ev.extras["fidelity_matched"] == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------------------------
# Scheme A
# --------------------------------------------------------------------------

def test_scheme_a_order_1_fidelity():
    tau2 = 0.01
    report = run_scheme_a(math.sqrt(tau2), 1.0, order=1)
    expected = 1.0 / (1.0 + tau2 / 2.0)
    ev1, ev2 = report.event("event1"), report.event("event2")
    assert ev1.extras["favored"] == "psi+"
    assert ev2.extras["favored"] == "psi-"
    assert ev1.fidelity_psi_plus == pytest.approx(expected, abs=1e-12)
    assert ev2.fidelity_psi_minus == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("tau2, order, p_tol, f_tol", [
    (1e-3, 8, 1e-15, 1e-12),
    (1e-2, 8, 1e-15, 1e-12),
    (0.1, 10, 1e-11, 1e-11),
])
def test_scheme_a_converged_laws_at_unit_efficiency(tau2, order, p_tol, f_tol):
    # the untruncated values: each event has probability tau2 (1 - tau2) and
    # favors its psi with fidelity 1 - tau2; order 1 gives 1/(1 + tau2/2)
    report = run_scheme_a(math.sqrt(tau2), 1.0, order)
    for ev, kind in zip(report.events, ("psi+", "psi-")):
        assert ev.extras["favored"] == kind
        assert abs(ev.probability - tau2 * (1.0 - tau2)) <= p_tol
        assert abs(ev.extras["fidelity_favored"] - (1.0 - tau2)) <= f_tol


def test_scheme_a_event_symmetry():
    report = run_scheme_a(0.2, 0.7)
    assert report.event("event1").probability == \
        pytest.approx(report.event("event2").probability, abs=1e-15)


def test_scheme_a_zero_tau():
    report = run_scheme_a(0.0, 1.0)
    for ev in report.events:
        assert ev.probability == 0.0
        assert ev.impossible


def test_scheme_a_fidelity_budget():
    for tau in (0.05, 0.2, 0.5):
        for eta in (0.3, 0.8, 1.0):
            for ev in run_scheme_a(tau, eta).events:
                assert ev.fidelity_psi_plus + ev.fidelity_psi_minus <= 1.0 + 1e-12


def test_scheme_a_rejects_bad_params():
    with pytest.raises(ValueError):
        run_scheme_a(1.2, 1.0)
    with pytest.raises(ValueError):
        run_scheme_a(0.1, 1.5)
    with pytest.raises(ValueError):
        run_scheme_a(0.1, 1.0, order=0)
    with pytest.raises(ValueError, match="finite"):
        run_scheme_a(math.nan, 1.0)


# --------------------------------------------------------------------------
# Phase verification
# --------------------------------------------------------------------------

@pytest.mark.parametrize("eta", [1.0, 0.8, 0.5])
def test_phase_verification_ideal_reference(eta):
    report = run_phase_verification(math.sqrt(1e-3), eta)
    ideal = report.coincidences["ideal_psi_plus"]
    assert ideal["p_d3"] == pytest.approx(eta, abs=1e-12)
    assert ideal["p_d4"] == pytest.approx(0.0, abs=1e-12)
    minus = report.coincidences["ideal_psi_minus"]
    assert minus["p_d4"] == pytest.approx(eta, abs=1e-12)
    assert minus["p_d3"] == pytest.approx(0.0, abs=1e-12)


def test_phase_verification_contamination_bound_and_marginals():
    tau2 = 1e-3
    report = run_phase_verification(math.sqrt(tau2), 1.0)
    ev1 = report.coincidences["event1"]
    assert 0.0 < ev1["p_d4"] <= tau2
    marg = report.coincidences["marginals"]
    assert marg["beam3"] == pytest.approx(0.5, abs=1e-12)
    assert marg["beam4"] == pytest.approx(0.5, abs=1e-12)


def _per_member_coincidences(members, eta):
    """Reference: every (weight, ket) member through the second beam
    splitter and the D3/D4 POVM on its own, weighted and summed."""
    joint = {}
    for w, member in members:
        post = apply_mode_unitary(member, balanced_bs(), ("3", "4"))
        for out, o in measure(post, [("3",), ("4",)], eta).items():
            joint[out] = joint.get(out, 0.0) + w * o.probability
    return joint


def _click_marginals(joint):
    return {
        "p_d3": _left_sum(p for o, p in joint.items() if o[0] == CLICK),
        "p_d4": _left_sum(p for o, p in joint.items() if o[1] == CLICK),
    }


def _hex_tree(x):
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return {k: _hex_tree(v) for k, v in x.items()}
    return x


@pytest.mark.parametrize("tau2, eta, order", [
    (1e-3, 1.0, 1), (0.05, 0.7, 2), (0.02, 1.0, 4), (0.08, 0.55, 6), (0.1, 0.6, 8),
    (0.09, 0.8, 10),
])
def test_phase_verification_coincidences_match_per_member_loop(tau2, eta, order):
    report = run_phase_verification(math.sqrt(tau2), eta, order)
    for ev in report.events:
        joint = _per_member_coincidences(ev.ensemble.members, eta)
        expected = {**_click_marginals(joint),
                    "joint": {",".join(o): p for o, p in sorted(joint.items())}}
        assert _hex_tree(report.coincidences[ev.name]) == _hex_tree(expected)
    for kind, name in (("psi+", "ideal_psi_plus"), ("psi-", "ideal_psi_minus")):
        ideal = bell_state(kind, ("3", "4"), cutoff=2)
        expected = _click_marginals(_per_member_coincidences(((1.0, ideal),), eta))
        assert _hex_tree(report.coincidences[name]) == _hex_tree(expected)


def _occupied_per_mode(ens, mode):
    # the one-mode pass that _occupied_probabilities folds into one
    idx = ens.register.index(mode)
    total = 0.0
    for w, member in ens.members:
        total += w * _left_sum(abs(a) ** 2 for occ, a in member.items() if occ[idx] >= 1)
    return total


def test_occupied_probabilities_match_a_pass_per_mode():
    # beam 3 and beam 4 from one pass over the members, each total with the
    # bits of its own pass; scheme A's ensembles are symmetric in 3 and 4,
    # so an asymmetric one is checked too
    reg = ModeRegister(("3", "4"), 2)
    kets = [FockKet(reg, terms).normalized() for terms in (
        {(1, 0): 0.3, (0, 1): 0.9, (2, 0): 0.1}, {(0, 0): 0.5, (0, 2): 0.7}, {(2, 1): 1.0})]
    asymmetric = WeightedEnsemble(reg, ((0.5, kets[0]), (0.375, kets[1]), (0.125, kets[2])))
    report = run_phase_verification(math.sqrt(0.1), 0.6, 8)
    for ens in (asymmetric, *(ev.ensemble for ev in report.events)):
        got = protocols._occupied_probabilities(ens, ("3", "4"))
        assert [p.hex() for p in got] == \
            [_occupied_per_mode(ens, m).hex() for m in ("3", "4")]
    assert _occupied_per_mode(asymmetric, "3") != _occupied_per_mode(asymmetric, "4")


def test_phase_verification_sends_each_branch_through_the_beam_splitter_at_most_once(
        monkeypatch):
    # at eta < 1 a group with photons at both heralding detectors feeds both
    # events, and both ensembles hold the same branch object.  A branch is
    # measured the first time a table needs it; one that no table needs is
    # negligible in every table that holds it (here 42 of 104 branches)
    measured = []
    weigh = detection._all_modes_probabilities

    def recording(ket, u, rows):
        assert u is balanced_bs()
        measured.append(id(ket))
        return weigh(ket, u, rows)

    monkeypatch.setattr(detection, "_all_modes_probabilities", recording)
    report = run_phase_verification(math.sqrt(0.01), 0.7, 10)
    monkeypatch.undo()
    members = [ket for ev in report.events for _, ket in ev.ensemble.members]
    distinct = {id(ket): ket for ket in members}
    assert len(distinct) < len(members)
    assert len(measured) == len(set(measured))
    assert set(measured) <= set(distinct) | {id(ket) for ket in protocols._PHASE_REFERENCES}
    skipped = set(distinct) - set(measured)
    assert len(skipped) == 42
    assert {id(ket) for ket in protocols._PHASE_REFERENCES} <= set(measured)
    kets = list(distinct.values())
    every = mixture_tables([((1.0, ket),) for ket in kets], balanced_bs(), 0.7)
    probs = {id(ket): table for ket, table in zip(kets, every)}
    for ev in report.events:
        joint = report.coincidences[ev.name]["joint"]
        for w, ket in ev.ensemble.members:
            if id(ket) in skipped:
                for out, p in probs[id(ket)].items():
                    assert joint[",".join(out)] + w * p == joint[",".join(out)]


def _phase_kets():
    reg = ModeRegister(("3", "4"), 3)
    r = 1.0 / math.sqrt(2.0)
    return {
        "psi+": FockKet(reg, {(1, 0): r, (0, 1): r}),
        "psi-": FockKet(reg, {(1, 0): r, (0, 1): -r}),
        "pair": FockKet(reg, {(1, 2): 1.0}),
        "mixed": FockKet(reg, {(0, 0): 0.3, (1, 0): 0.5, (1, 1): 0.4j, (2, 1): 0.2}).normalized(),
        # its (silent, silent) probability is 1 + 2**-51, above 1 by rounding
        "vacuum": FockKet(reg, {(0, 0): 1.0 + 2.0**-52}),
    }


def _assert_phase_tables_match_unskipped(ensembles, eta):
    refs = [((1.0, ket),) for ket in protocols._PHASE_REFERENCES]
    want = [_per_member_coincidences(m, eta) for m in [e.members for e in ensembles] + refs]
    got = protocols._phase_tables(ensembles, eta)
    assert [list(t) for t in got] == [sorted(t) for t in want]
    assert [{out: p.hex() for out, p in t.items()} for t in got] == \
        [{out: p.hex() for out, p in t.items()} for t in want]
    return got


@pytest.mark.parametrize("eta", [1.0, 0.7, 0.3])
def test_phase_tables_skip_only_members_that_change_no_bit(eta):
    # weights from 1 down to 1e-300, small ones before and after the large
    # ones; at eta = 1 the psi members never make a coincidence, so
    # (click, click) stays 0.0 until a tiny pair member makes it tiny
    kets = _phase_kets()
    tiny = [1e-3, 1e-8, 1e-17, 1e-20, 1e-30, 1e-100, 1e-300]
    names = ["pair", "mixed", "vacuum", "psi-"]
    reg = kets["psi+"].register
    early = [(w, kets[names[k % 4]]) for k, w in enumerate(tiny[::2])]
    late = [(w, kets[names[k % 4]]) for k, w in enumerate(tiny)]
    bulk = 1.0 - sum(w for w, _ in early + late)
    spread = WeightedEnsemble(reg, (*early, (bulk / 2, kets["psi+"]), (bulk / 2, kets["psi-"]),
                                    *late))
    # psi members and one pair member of weight 1e-20
    zero_cc = WeightedEnsemble(reg, ((0.5, kets["psi+"]), (1e-20, kets["pair"]),
                                     (0.5 - 1e-20, kets["psi-"])))
    tables = _assert_phase_tables_match_unskipped([spread, zero_cc], eta)
    if eta == 1.0:
        assert 0.0 < tables[1][(CLICK, CLICK)] < 1e-19


def test_phase_tables_skip_bound_covers_a_probability_above_one():
    # at eta = 1, (silent, silent) is the smallest entry after the first
    # member; the vacuum member's weight is just below half an ulp of it
    # and its p is 1 + 2**-51, so w * p is above half an ulp and moves that
    # entry: a bound without the factor 2 on w would skip it
    kets = _phase_kets()
    reg = kets["psi+"].register
    lead = FockKet(reg, {(0, 0): 0.1, (1, 0): 0.7, (0, 1): 0.3, (2, 1): 0.6}).normalized()
    head = _per_member_coincidences(((1.0, lead),), 1.0)
    least = head[(SILENT, SILENT)]
    assert min(head.values()) == least > 0.0
    w = math.ulp(least) / 2 * (1.0 - 2.0**-53)  # 2 * w < ulp(least) <= 4 * w
    assert 1.0 - w == 1.0
    ens = WeightedEnsemble(reg, ((1.0 - w, lead), (w, kets["vacuum"])))
    (table, *_) = _assert_phase_tables_match_unskipped([ens], 1.0)
    assert table[(SILENT, SILENT)] == least + math.ulp(least)


@pytest.mark.parametrize("run, args, shared", [
    pytest.param(run_scheme_a, (math.sqrt(0.05), 0.7, 6), 0, id="run_scheme_a"),
    pytest.param(run_phase_verification, (math.sqrt(0.05), 0.7, 6), 0,
                 id="run_phase_verification"),
    pytest.param(run_scheme_b, (0.4, 0.7, 3, "ubs", 0.3), 6, id="run_scheme_b"),
])
def test_shared_members_read_once_with_fidelities_of_fock_fidelity(run, args, shared,
                                                                   monkeypatch):
    # at eta < 1 many members of the two heralded ensembles are one object.
    # Each event reads each of its members that shares an occupation with
    # psi+ or psi- once per target, through protocols.inner_product, and no
    # other member.  No member both scheme-A events hold meets that support
    # (test below), so there each distinct member is read once per target;
    # scheme B reads the `shared` members both events hold twice.  Each
    # distinct member is formatted once, and every fidelity has the bits of
    # fock.fidelity on the whole ensemble
    reads, texts = [], []
    inner, fmt = protocols.inner_product, protocols.format_ket
    monkeypatch.setattr(protocols, "inner_product",
                        lambda t, s: reads.append(id(s)) or inner(t, s))
    monkeypatch.setattr(protocols, "format_ket", lambda k: texts.append(id(k)) or fmt(k))
    report = run(*args)
    members = [(w, ket) for ev in report.events for w, ket in ev.ensemble.members]
    distinct = {id(ket) for _, ket in members}
    assert len(distinct) < len(members)
    labels = report.events[0].ensemble.register.labels
    targets = {kind: bell_state(kind, labels) for kind in PSI}
    support = {occ for t in targets.values() for occ in t.terms}
    read = [[id(ket) for _, ket in ev.ensemble.members if support & set(ket.terms)]
            for ev in report.events]
    overlapping = {i for ids in read for i in ids}
    assert 0 < len(overlapping) < len(distinct)
    assert len(set(read[0]) & set(read[1])) == shared
    assert sorted(reads) == sorted(2 * (read[0] + read[1]))
    assert len(reads) == 2 * (len(overlapping) + shared)
    for ev in report.events:
        for kind, got in (("psi+", ev.fidelity_psi_plus), ("psi-", ev.fidelity_psi_minus)):
            assert got.hex() == fidelity(ev.ensemble, targets[kind]).hex()
    assert texts == []
    report.to_json_dict()
    reported = {id(ket) for w, ket in members if w >= protocols.BRANCH_REPORT_TOL}
    assert sorted(texts) == sorted(reported)


def test_no_member_of_both_scheme_a_heralds_meets_the_psi_support():
    # a branch both single-click heralds hold has a photon at each detector,
    # so at least two photons on beams 1 and 2; the beam splitter keeps that
    # total, and beams 3 and 4 carry the same one, so such a member has at
    # least two photons on beams 3, 4 and no occupation of psi+ or psi-
    support = {occ for kind in PSI for occ in bell_state(kind, ("3", "4")).terms}
    seen = 0
    for order in range(1, 11):
        for eta in (0.3, 0.7, 0.95):
            for tau2 in (1e-3, 0.05, 0.2):
                first, second = (ev.ensemble.members
                                 for ev in run_scheme_a(math.sqrt(tau2), eta, order).events)
                shared = {id(ket) for _, ket in first} & {id(ket) for _, ket in second}
                assert all(support.isdisjoint(ket.terms) for _, ket in first
                           if id(ket) in shared), (order, eta, tau2)
                seen += len(shared)
    assert seen > 0


# --------------------------------------------------------------------------
# Scheme B
# --------------------------------------------------------------------------

def test_scheme_b_event_targets():
    report = run_scheme_b(0.1, 1.0)
    d2, d3 = report.event("d2_click"), report.event("d3_click")
    assert d2.extras["favored"] == "psi+"
    assert d3.extras["favored"] == "psi-"
    # contamination from the bunched two-photon branch is O(eps^2)
    assert d2.fidelity_psi_plus > 0.99
    assert 1.0 - d2.fidelity_psi_plus == pytest.approx(0.1**2 / 2, rel=0.05)


def test_scheme_b_probability_vanishes_with_eps():
    p_prev = None
    for eps in (0.3, 0.1, 0.03):
        p = run_scheme_b(eps, 1.0).event("d2_click").probability
        if p_prev is not None:
            assert p < p_prev
        p_prev = p
    assert p_prev < 1e-3


def test_scheme_b_infidelity_scales_as_eps_squared():
    eps_grid = [0.3, 0.1, 0.03]
    infid = [1.0 - run_scheme_b(e, 1.0).event("d2_click").extras["fidelity_favored"]
             for e in eps_grid]
    slope = np.polyfit(np.log(eps_grid), np.log(infid), 1)[0]
    assert abs(slope - 2.0) <= 0.1


def _pbs_chain(eps, order, pair_amplitude):
    """Scheme B's PBS form, built literally: an H-polarized pair on the
    upper and lower beams, a polarization rotation on each, then a PBS on
    each that routes H and V to beams (1, 2) and (4, 3)."""
    amps = {1: 1.0, **{n: pair_amplitude ** (n - 1) for n in range(2, order + 1)}}
    reg = ModeRegister(("uH", "uV", "lH", "lV"), max(2, order))
    st = FockKet(reg, {(n, 0, n, 0): a for n, a in amps.items()}).normalized()
    rot = polarization_rotation(eps)
    st = apply_mode_unitary(st, rot, ("uH", "uV"))
    st = apply_mode_unitary(st, rot, ("lH", "lV"))
    routing = {**pbs(("uH", "uV"), ("1", "2")), **pbs(("lH", "lV"), ("4", "3"))}
    return reorder(relabel(st, routing), ("1", "2", "3", "4"))


@pytest.mark.parametrize("eps", [1e-7, 0.1, 0.3, 0.638066, 0.99])
@pytest.mark.parametrize("order, pair_amplitude", [(1, 0.0), (2, 0.5), (4, 0.5), (10, 0.9)])
def test_scheme_b_pbs_variant_identical_state(eps, order, pair_amplitude):
    # register, term order and every amplitude's bits, for both variants
    want = ket_bits(_pbs_chain(eps, order, pair_amplitude))
    for variant in ("pbs", "ubs"):
        assert ket_bits(scheme_b_state(eps, order, variant, pair_amplitude)) == want


def test_scheme_b_rejects_bad_params():
    for bad in (0.0, 1.0, -0.2):
        with pytest.raises(ValueError):
            run_scheme_b(bad, 1.0)
    with pytest.raises(ValueError):
        run_scheme_b(0.1, 1.0, variant="mirror")
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            run_scheme_b(0.1, 1.0, order=2, pair_amplitude=bad)
    with pytest.raises(ValueError, match="finite"):
        analyze_polarization_postselection(1.0, True, math.nan)
    # an n-pair amplitude pair_amplitude^(n-1) that does not fall has no
    # untruncated limit
    for order, amp in ((2, 1e300), (3, -1e200)):
        with pytest.raises(ValueError, match=r"\|pair amplitude\| must be < 1"):
            run_scheme_b(0.1, 1.0, order=order, pair_amplitude=amp)
    with pytest.raises(ValueError, match="overflows"):
        analyze_polarization_postselection(1.0, True, 1e154)
    for variant in ("ubs", "pbs"):
        with pytest.raises(ValueError, match="order 21: a mode would hold 21 photons"):
            scheme_b_state(0.3, MAX_FACTORIAL_CUTOFF + 1, variant, 1.0)


def test_scheme_b_higher_order_emission():
    base = run_scheme_b(0.1, 1.0, order=1)
    extended = run_scheme_b(0.1, 1.0, order=2, pair_amplitude=0.0)
    assert extended.event("d2_click").probability == \
        pytest.approx(base.event("d2_click").probability, abs=1e-12)
    noisy = run_scheme_b(0.1, 1.0, order=2, pair_amplitude=0.2)
    assert noisy.event("d2_click").extras["fidelity_favored"] < \
        base.event("d2_click").extras["fidelity_favored"]


@pytest.mark.parametrize("run, distribution, args, other", [
    (run_scheme_a, scheme_a_click_distribution, (0.3, 0.8, 2), (0.3, 0.8, 1)),
    (run_scheme_b, scheme_b_click_distribution, (0.3, 0.8, 2, "ubs", 0.5),
     (0.3, 0.8, 2, "ubs", 0.0)),
    (run_scheme_b, scheme_b_click_distribution, (0.3, 0.8, 2, "pbs", 0.5),
     (0.3, 0.8, 2, "pbs", 0.0)),
], ids=["scheme-a", "scheme-b-ubs", "scheme-b-pbs"])
def test_click_distribution_is_the_reported_one(run, distribution, args, other):
    """--shots samples the distribution whose single-click entries are the
    report's two event probabilities, exactly, and it follows the order
    (scheme A) or the pair amplitude (scheme B) as the report does."""
    first, second = run(*args).events
    dist = distribution(*args)
    assert dist["click,silent"] == first.probability
    assert dist["silent,click"] == second.probability
    assert abs(dist["click,silent"] - distribution(*other)["click,silent"]) > 1e-3


# --------------------------------------------------------------------------
# Post-selection analyses
# --------------------------------------------------------------------------

def test_polarization_x_only_swaps_perfectly():
    report = analyze_polarization_postselection(1.0, include_double_pairs=False)
    ev = report.event("d2_and_d3")
    assert ev.extras["swapped_target"] == "psi-"
    assert ev.extras["fidelity_swapped_target"] == pytest.approx(1.0, abs=1e-12)
    assert ev.extras["empty_beam_weight"] == pytest.approx(0.0, abs=1e-12)


def test_polarization_full_input_has_empty_beams():
    report = analyze_polarization_postselection(1.0)
    ev = report.event("d2_and_d3")
    assert ev.extras["empty_beam_weight"] > 0.0
    assert ev.extras["fidelity_swapped_target"] < 1.0


def test_polarization_zero_eta_flagged():
    report = analyze_polarization_postselection(0.0)
    assert report.events[0].impossible


def vacuum_one_photon_oracle_fidelity(eta):
    # branch enumeration of the five-term post-BS state: relative squared
    # weights 1/4 (psi+ heralding branch) and 1/2 (bunched |20> branch) of
    # the 5/2 total; only those two reach the 2' detector
    w_psi = (0.25 / 2.5) * eta
    w_vac = (0.5 / 2.5) * (1.0 - (1.0 - eta) ** 2)
    return w_psi / (w_psi + w_vac), (w_psi + w_vac)


@pytest.mark.parametrize("eta", [1.0, 0.6, 0.25])
def test_vacuum_one_photon_against_branch_oracle(eta):
    report = analyze_vacuum_one_photon(eta)
    ev = report.event("d2prime_click")
    expected_fid, expected_p = vacuum_one_photon_oracle_fidelity(eta)
    assert ev.probability == pytest.approx(expected_p, abs=1e-12)
    assert ev.fidelity_psi_plus == pytest.approx(expected_fid, abs=1e-12)
    assert ev.extras["vacuum_weight"] == pytest.approx(1.0 - expected_fid, abs=1e-12)


def test_vacuum_one_photon_unit_eta_is_one_third():
    ev = analyze_vacuum_one_photon(1.0).event("d2prime_click")
    assert ev.fidelity_psi_plus == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert ev.extras["vacuum_weight"] == pytest.approx(2.0 / 3.0, abs=1e-12)
    # the |11>_{14} no-click branch never leaks into the click ensemble
    for _, member in ev.ensemble.members:
        assert member.amplitude((0, 1, 1)) == pytest.approx(0.0, abs=1e-12)


def test_vacuum_one_photon_zero_eta_flagged():
    assert analyze_vacuum_one_photon(0.0).events[0].impossible


# --------------------------------------------------------------------------
# Sampling
# --------------------------------------------------------------------------

def test_sample_run_validation_and_determinism():
    dist = scheme_a_click_distribution(0.1, 1.0)
    for shots in (0, 2**63):
        with pytest.raises(ValueError, match=r"shots must be in \[1, 2\*\*63 - 1\]"):
            sample_run(dist, shots, seed=1)
    a = sample_run(dist, 1000, seed=42)
    b = sample_run(dist, 1000, seed=42)
    assert a == b
    assert sum(a.values()) == 1000
    assert a != sample_run(dist, 1000, seed=43)


def test_sample_run_negative_probability_boundary():
    # round-off below zero down to -1e-12 is clipped; beyond it is an error
    assert sample_run({"a": -1e-13, "b": 1.0}, 10, seed=0) == {"a": 0, "b": 10}
    with pytest.raises(ValueError, match="negative probability"):
        sample_run({"a": -1e-11, "b": 1.0}, 10, seed=0)


def test_sample_run_frequencies_within_binomial_bands():
    dist = scheme_a_click_distribution(0.3, 0.9)
    shots = 1_000_000
    counts = sample_run(dist, shots, seed=7)
    for key, p in dist.items():
        sigma = math.sqrt(max(p * (1 - p) * shots, 1.0))
        assert abs(counts[key] - p * shots) <= 5 * sigma


# --------------------------------------------------------------------------
# Report structure
# --------------------------------------------------------------------------

def test_report_json_schema():
    report = run_scheme_a(0.1, 0.9)
    data = report.to_json_dict()
    assert data["scheme"] == "scheme-a"
    assert set(data["params"]) >= {"tau", "eta", "order"}
    for ev in data["events"]:
        assert set(ev) >= {"name", "probability", "fidelity_psi_plus",
                           "fidelity_psi_minus"}
        assert 0.0 <= ev["probability"] <= 1.0
    assert "dropped_mass" in data


def test_report_event_looks_up_by_name():
    report = run_scheme_a(0.1, 0.9)
    assert report.event("event2") is report.events[1]
    with pytest.raises(KeyError, match="event3"):
        report.event("event3")


ETA_ENTRY_POINTS = {
    "run_scheme_a": lambda eta: run_scheme_a(0.1, eta),
    "run_phase_verification": lambda eta: run_phase_verification(0.1, eta),
    "run_scheme_b": lambda eta: run_scheme_b(0.3, eta),
    "analyze_polarization_postselection": analyze_polarization_postselection,
    "analyze_vacuum_one_photon": analyze_vacuum_one_photon,
    "scheme_a_click_distribution": lambda eta: scheme_a_click_distribution(0.1, eta),
    "scheme_b_click_distribution": lambda eta: scheme_b_click_distribution(0.3, eta),
    "measure": lambda eta: measure(bell_state("psi+", ("1", "2")), [("1",)], eta),
    "ThresholdDetector": ThresholdDetector,
}


@pytest.mark.parametrize("eta", [-0.1, 1.5])
@pytest.mark.parametrize("entry", ETA_ENTRY_POINTS)
def test_eta_out_of_range_rejected_everywhere(entry, eta):
    # ThresholdDetector holds the one check and every entry point reaches it
    with pytest.raises(ValueError, match=r"eta must be in \[0, 1\], got"):
        ETA_ENTRY_POINTS[entry](eta)


# --------------------------------------------------------------------------
# Constant kets: every ket that depends on no argument is built once, at
# import, and no call changes it
# --------------------------------------------------------------------------

PSI = ("psi+", "psi-")
TARGET_MAPPINGS = {
    "scheme-a": protocols._SCHEME_A.targets,
    "scheme-b": protocols._SCHEME_B.targets,
    "bell-outer": protocols._BELL_OUTER,
    "bell-inner": protocols._BELL_INNER,
    "postselect-pol": protocols._POL_TARGETS,
    "postselect-vac": protocols._VAC_TARGETS,
}

# every report, and both click distributions, at a few parameter points
CONSTANT_USERS = [
    (run_scheme_a, (math.sqrt(0.05), 0.7, 2)),
    (run_scheme_a, (math.sqrt(0.1), 1.0, 1)),
    (run_phase_verification, (math.sqrt(0.02), 0.8, 2)),
    (run_phase_verification, (math.sqrt(0.1), 1.0, 1)),
    (run_scheme_b, (0.3, 0.9, 2, "ubs", 0.5)),
    (run_scheme_b, (0.25, 1.0, 1, "pbs")),
    (run_theta_swapping, (0.3,)),
    (run_theta_swapping, (0.0,)),
    (bell_decomposition_check, ()),
    (analyze_polarization_postselection, (0.9,)),
    (analyze_polarization_postselection, (1.0, False)),
    (analyze_vacuum_one_photon, (0.8,)),
    (analyze_vacuum_one_photon, (1.0,)),
    (scheme_a_click_distribution, (math.sqrt(0.05), 0.7, 2)),
    (scheme_b_click_distribution, (0.3, 0.9, 2, "pbs", 0.5)),
]


def _bits(x):
    """A call's output with every float as ``float.hex``."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return {k: _bits(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    return x


def _output_bits(result):
    """A report's JSON and every ensemble member's register and amplitudes,
    or a click distribution, as bits."""
    if not isinstance(result, protocols.ProtocolReport):
        return _bits(result)
    members = [[(w.hex(), ket_bits(s)) for w, s in ev.ensemble.members]
               for ev in result.events if ev.ensemble is not None]
    return _bits(result.to_json_dict()), members


def _constants_and_fresh():
    """(constant ket, the same ket built afresh by the public builders) for
    every constant ket of ``protocols``."""
    empty = vacuum(ModeRegister(("3'",), 1))
    fresh = {
        "scheme-a": {kind: bell_state(kind, ("3", "4")) for kind in PSI},
        "scheme-b": {kind: bell_state(kind, ("1", "4")) for kind in PSI},
        "bell-outer": {kind: bell_state(kind, ("1", "4")) for kind in BELL_KINDS},
        "bell-inner": {kind: bell_state(kind, ("2", "3")) for kind in BELL_KINDS},
        "postselect-pol": {kind: protocols._pol_bell(kind) for kind in BELL_KINDS},
        "postselect-vac": {kind: tensor_product(empty, bell_state(kind, ("1", "4")))
                           for kind in PSI},
    }
    pairs = []
    for name, targets in TARGET_MAPPINGS.items():
        assert tuple(targets.kets) == tuple(fresh[name])
        pairs += [(targets.kets[kind], fresh[name][kind]) for kind in targets.kets]
    refs = protocols._PHASE_REFERENCES
    assert isinstance(refs, tuple)
    pairs += zip(refs, [bell_state(kind, ("3", "4"), 2) for kind in PSI], strict=True)
    pairs.append((protocols._SINGLET_PAIRS,
                  tensor_product(bell_state("psi-", ("1", "2")), bell_state("psi-", ("3", "4")))))
    pairs.append((protocols._VAC_SOURCE, vacuum_one_photon_postbs()))
    return pairs


def test_constant_kets_stay_constant(monkeypatch):
    # two passes over every report give the same bits.  Every constant ket
    # equals a fresh build before the first pass, and after each event and
    # each call of the second, so a change that an even number of events
    # would undo shows too
    pairs = _constants_and_fresh()
    fresh = {id(constant): ket_bits(ket) for constant, ket in pairs}

    def assert_unchanged(kets):
        assert [ket_bits(k) for k in kets] == [fresh[id(k)] for k in kets]

    constants = [k for k, _ in pairs]
    assert_unchanged(constants)
    first = [_output_bits(fn(*args)) for fn, args in CONSTANT_USERS]

    def checked_event(*args):
        ev = event(*args)
        assert_unchanged(args[3].kets.values())
        return ev

    event = protocols._event
    monkeypatch.setattr(protocols, "_event", checked_event)
    assert_unchanged(constants)
    second = []
    for fn, args in CONSTANT_USERS:
        second.append(_output_bits(fn(*args)))
        assert_unchanged(constants)
    assert second == first


def test_no_call_builds_a_constant_ket(monkeypatch):
    # the constants are built at import, so a call builds no target and no
    # fixed source
    built = []
    for name in ("bell_state", "tensor_product", "vacuum_one_photon_postbs", "_pol_bell",
                 "_targets"):
        build = getattr(protocols, name)
        monkeypatch.setattr(protocols, name,
                            lambda *args, _name=name, _build=build:
                            built.append(_name) or _build(*args))
    for fn, args in CONSTANT_USERS:
        fn(*args)
    assert built == []


def test_targets_rejects_an_unnormalized_ket():
    kets = {kind: bell_state(kind, ("3", "4")) for kind in PSI}
    targets = protocols._targets(kets)
    assert type(targets.kets) is MappingProxyType
    assert [id(t) for t in targets.kets.values()] == [id(t) for t in kets.values()]
    # a target's norm may be off 1 by at most 1e-9
    psi_m = kets["psi-"]
    kets["psi-"] = psi_m.scaled(1.0 + 1e-10)
    assert protocols._targets(kets).kets["psi-"] is kets["psi-"]
    kets["psi-"] = psi_m.scaled(1.0 + 1e-8)
    with pytest.raises(ValueError, match="fidelity target must be normalized"):
        protocols._targets(kets)


def test_targets_rejects_kets_on_different_registers():
    kets = {"psi+": bell_state("psi+", ("3", "4")), "psi-": bell_state("psi-", ("1", "4"))}
    with pytest.raises(ValueError, match="must share one register's labels"):
        protocols._targets(kets)


def test_targets_keep_their_kets_when_the_source_dict_changes():
    # _targets copies the dict it checks: a later edit of the caller's dict
    # reaches neither the mapping nor the labels and support taken from it
    kets = {kind: bell_state(kind, ("3", "4")) for kind in PSI}
    psi_p = kets["psi+"]
    targets = protocols._targets(kets)
    kets["psi+"] = psi_p.scaled(5.0)
    kets["phi+"] = bell_state("phi+", ("3", "4"))
    del kets["psi-"]
    assert list(targets.kets) == list(PSI)
    assert targets.kets["psi+"] is psi_p
    assert targets.kets["psi+"].norm() == pytest.approx(1.0)
    assert targets.labels == ("3", "4")
    assert targets.support == {(0, 1), (1, 0)}


@pytest.mark.parametrize("name", TARGET_MAPPINGS)
def test_every_target_mapping_comes_from_targets(name):
    # _targets returns a read-only mapping of kets it checked to be
    # normalized, with the labels they share and every occupation they hold
    targets = TARGET_MAPPINGS[name]
    assert type(targets) is protocols._Targets
    assert type(targets.kets) is MappingProxyType
    for t in targets.kets.values():
        assert abs(t.norm() - 1.0) <= 1e-9
        assert t.register.labels == targets.labels
    assert targets.support == {occ for t in targets.kets.values() for occ in t.terms}
    with pytest.raises(TypeError):
        targets.kets["psi+"] = bell_state("psi-", ("3", "4"))


def test_ensemble_outside_the_support_has_float_fidelity_zero():
    # no member shares an occupation with psi+ or psi-, so none is read: each
    # fidelity is still a float with the bits of fock.fidelity
    targets = protocols._SCHEME_A.targets
    reg = ModeRegister(("3", "4"), 2)
    ens = WeightedEnsemble(reg, ((0.75, FockKet(reg, {(0, 0): 1.0})),
                                 (0.25, FockKet(reg, {(1, 1): 0.6, (2, 0): 0.8}))))
    ev = protocols._event("e", 0.5, ens, targets, protocols._favored)
    for kind, got in (("psi+", ev.fidelity_psi_plus), ("psi-", ev.fidelity_psi_minus)):
        want = fidelity(ens, targets.kets[kind])
        assert type(got) is type(want) is float
        assert got.hex() == want.hex() == (0.0).hex()


def test_event_rejects_a_target_on_another_register():
    ens = WeightedEnsemble.pure(bell_state("psi+", ("1", "4")))
    targets = protocols._targets({kind: bell_state(kind, ("3", "4")) for kind in PSI})
    with pytest.raises(ValueError, match="register mismatch between ensemble and target"):
        protocols._event("e", 1.0, ens, targets, dict)


def _amplitude_types(kets):
    return {type(a) for ket in kets for a in ket.terms.values()}


@pytest.mark.parametrize("eta", (0.7, 1.0))
def test_real_tau_gives_only_float_amplitudes(monkeypatch, eta):
    # a real tau, real beam splitters and real detection keep every amplitude
    # a built-in float: the source, every herald branch and every member that
    # the phase tables measure
    measured = []
    tables = protocols.mixture_tables

    def recording_tables(mixtures, *args):
        measured.extend(ket for members in mixtures for _, ket in members)
        return tables(mixtures, *args)

    monkeypatch.setattr(protocols, "mixture_tables", recording_tables)
    tau = math.sqrt(0.05)
    report = run_phase_verification(tau, eta, 6)
    branches = [s for ev in report.events if ev.ensemble is not None
                for _, s in ev.ensemble.members]
    assert branches and measured
    assert _amplitude_types([double_pass_source(tau, 6)]) == {float}
    assert _amplitude_types(branches) == {float}
    assert _amplitude_types(measured) == {float}


def test_complex_tau_gives_complex_source_amplitudes():
    # tau**0 is real, so the vacuum term stays a float beside complex ones
    source = double_pass_source(cmath.rect(0.3, 0.7), 4)
    assert _amplitude_types([source]) == {float, complex}


# --------------------------------------------------------------------------
# Bit identity: every output field of a fixed set of calls, pinned as one
# SHA-256 of their float.hex walk
# --------------------------------------------------------------------------

# the heralds at order 6 and 10 with eta 0.7 put groups whose first term is
# pruned behind later ones, and at tau2 0.02, order 10, eta 1 the plan has
# such a group too
PINNED_CALLS = [
    (fn, (math.sqrt(tau2), eta, order))
    for fn in (run_scheme_a, run_phase_verification)
    for tau2, order in ((0.1, 6), (0.02, 10))
    for eta in (0.0, 0.7, 1.0)
] + [
    (run_scheme_b, (0.3, 0.8, 4, "ubs", 0.5)),
    (run_scheme_b, (0.3, 0.8, 4, "pbs", 0.5)),
    (analyze_polarization_postselection, (0.9,)),
    (analyze_vacuum_one_photon, (0.8,)),
    (run_theta_swapping, (0.3,)),
    (bell_decomposition_check, ()),
    (scheme_a_click_distribution, (math.sqrt(0.05), 0.7, 8)),
    (scheme_b_click_distribution, (0.3, 0.9, 4, "pbs", 0.5)),
]
PINNED_DIGEST = "8b7708682183e683bdd0b3235b2ccc65fe434b9bdbdac064fbb7e219e0a4a7d8"


def test_outputs_match_the_pinned_digest():
    # every field of each call as bits: the report's JSON and its ensemble
    # members' registers, occupations and amplitudes, or the click
    # distribution.  A change that moves any bit of any output changes it
    walk = repr([_output_bits(fn(*args)) for fn, args in PINNED_CALLS])
    assert hashlib.sha256(walk.encode()).hexdigest() == PINNED_DIGEST


# complex tau keeps complex amplitudes through the engine: every output bit
# of these calls is pinned too, beside the real-tau calls above
COMPLEX_PINNED_CALLS = [
    (fn, (cmath.rect(r, phase), eta, order))
    for fn in (run_scheme_a, run_phase_verification)
    for r, phase, order in ((0.3, 0.7, 4), (math.sqrt(0.05), -2.1, 7),
                            (math.sqrt(0.02), 1.3, 10))
    for eta in (0.7, 1.0)
] + [
    (scheme_a_click_distribution, (cmath.rect(0.25, 2.5), 0.7, 6)),
]
COMPLEX_PINNED_DIGEST = "e642fe28a2d1fd3d0db904be11ceeed01c115a018e75d5fc264074f7e52945c9"


def test_complex_tau_outputs_match_the_pinned_digest():
    walk = repr([_output_bits(fn(*args)) for fn, args in COMPLEX_PINNED_CALLS])
    assert hashlib.sha256(walk.encode()).hexdigest() == COMPLEX_PINNED_DIGEST
