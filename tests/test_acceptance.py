"""Acceptance suite: one pass/fail line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`.
"""
import io
import math
import time

import numpy as np

from swapsim import cli, fock
from swapsim.fock import FockKet, fidelity
from swapsim.oracle import dense_from_fock, verify_scheme_a
from swapsim.protocols import (
    analyze_polarization_postselection,
    analyze_vacuum_one_photon,
    bell_decomposition_check,
    run_phase_verification,
    run_scheme_a,
    run_scheme_b,
    run_theta_swapping,
    scheme_b_state,
)
from swapsim.sources import vacuum_one_photon_postbs

from test_oracle import number_resolving_measure
from test_oracle import test_sparse_dense_equivalence_randomized as _sparse_dense_randomized
from test_protocols import vacuum_one_photon_oracle_fidelity


def report(n, ok, desc):
    print(f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {n}: {desc}"


def test_criterion_1_scheme_a_headline():
    tau2 = 1e-3
    t0 = time.perf_counter()
    rep = run_scheme_a(math.sqrt(tau2), 1.0, order=1)
    elapsed = time.perf_counter() - t0
    order_1 = 1.0 / (1.0 + tau2 / 2.0)
    # the order-1 value (the converged one is 1 - tau2) is confirmed against
    # the dense oracle at the same order before asserting it
    oracle_dev = verify_scheme_a(math.sqrt(tau2), 1.0, order=1)
    ok = oracle_dev <= 1e-12 and elapsed < 1.0
    for ev in rep.events:
        fav = ev.extras["fidelity_favored"]
        ok = ok and fav >= 0.999 and abs(fav - order_1) <= 1e-12
    report(1, ok, f"scheme A favored fidelity at --order 1 = 1/(1+tau2/2) = {order_1:.12f}, "
                  f"oracle dev {oracle_dev:.2e}, {elapsed * 1e3:.0f} ms")


def test_criterion_2_bell_decomposition():
    rep = bell_decomposition_check()
    ok = len(rep.events) == 4
    for ev in rep.events:
        ok = ok and abs(ev.probability - 0.25) <= 1e-12
        ok = ok and abs(ev.extras["fidelity_matched"] - 1.0) <= 1e-12
    report(2, ok, "four Bell outcomes at p = 1/4 with matched fidelity 1")


def test_criterion_3_theta_swapping():
    ok = True
    for theta in (0.1, 0.3, math.pi / 4):
        expected = math.sin(theta) ** 2 * math.cos(theta) ** 2
        rep = run_theta_swapping(theta)
        for kind in ("psi+", "psi-"):
            ev = rep.event(kind)
            ok = ok and abs(ev.probability - expected) <= 1e-12
            ok = ok and abs(ev.extras["fidelity_matched"] - 1.0) <= 1e-12
    report(3, ok, "P(psi+-) = sin^2 cos^2 theta with conditional fidelity 1")


def test_criterion_4_phase_verification():
    tau2 = 1e-3
    ok = True
    for eta in (1.0, 0.8, 0.5):
        rep = run_phase_verification(math.sqrt(tau2), eta)
        ideal = rep.coincidences["ideal_psi_plus"]
        ok = ok and abs(ideal["p_d3"] - eta) <= 1e-12
        ok = ok and 0.0 <= rep.coincidences["event1"]["p_d4"] <= tau2
        marg = rep.coincidences["marginals"]
        ok = ok and abs(marg["beam3"] - 0.5) <= 1e-12
        ok = ok and abs(marg["beam4"] - 0.5) <= 1e-12
    report(4, ok, "P(D3|event1) = eta, P(D4|event1) <= tau2, marginals (1/2, 1/2)")


def test_criterion_5_scheme_b():
    rep = run_scheme_b(0.1, 1.0)
    ok = rep.event("d2_click").extras["favored"] == "psi+"
    ok = ok and rep.event("d3_click").extras["favored"] == "psi-"
    eps_grid = [0.3, 0.1, 0.03]
    infid = [1.0 - run_scheme_b(e, 1.0).event("d2_click").extras["fidelity_favored"]
             for e in eps_grid]
    slope = float(np.polyfit(np.log(eps_grid), np.log(infid), 1)[0])
    ok = ok and abs(slope - 2.0) <= 0.1
    for eps in eps_grid:
        a = scheme_b_state(eps, variant="ubs")
        b = scheme_b_state(eps, variant="pbs")
        for occ in set(a.terms) | set(b.terms):
            ok = ok and abs(a.amplitude(occ) - b.amplitude(occ)) <= 1e-12
    report(5, ok, f"D2 -> psi+, D3 -> psi-, infidelity slope {slope:.3f}, "
                  "PBS variant amplitude-identical to UBS")


def test_criterion_6_vacuum_one_photon():
    ev = analyze_vacuum_one_photon(1.0).event("d2prime_click")
    expected_fid, _ = vacuum_one_photon_oracle_fidelity(1.0)
    ok = ev.extras["vacuum_weight"] > 0.0
    ok = ok and abs(ev.fidelity_psi_plus - expected_fid) <= 1e-12
    nr = number_resolving_measure(dense_from_fock(vacuum_one_photon_postbs()), "2'", 1)
    reg = nr.ensemble.register
    r = 1.0 / math.sqrt(2.0)
    psi_p = FockKet(reg, {(0, 0, 1): r, (0, 1, 0): r})
    f_nr = fidelity(nr.ensemble, psi_p)
    ok = ok and abs(f_nr - 1.0) <= 1e-12
    report(6, ok, f"click-conditioned fidelity {ev.fidelity_psi_plus:.12f} "
                  f"(oracle {expected_fid:.12f}), number-resolving fidelity {f_nr:.12f}")


def test_criterion_7_polarization_postselection():
    pure = analyze_polarization_postselection(1.0, include_double_pairs=False)
    ev_pure = pure.event("d2_and_d3")
    ok = abs(ev_pure.extras["fidelity_swapped_target"] - 1.0) <= 1e-12
    full = analyze_polarization_postselection(1.0)
    empty = full.event("d2_and_d3").extras["empty_beam_weight"]
    ok = ok and empty > 0.0
    report(7, ok, f"pure-X fidelity 1, full-input empty-beam weight {empty:.6f} > 0")


def test_criterion_8_oracle_equivalence():
    t0 = time.perf_counter()
    _sparse_dense_randomized()  # 120 randomized cases at 1e-12
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    report(8, ok, f"120 sparse-vs-dense cases within 1e-12 in {elapsed:.1f} s")


def test_criterion_9_property_suite():
    from swapsim.detection import measure
    from swapsim.elements import apply_mode_unitary, balanced_bs
    from swapsim.fock import ModeRegister

    rng = np.random.default_rng(5)
    ok = True
    for _ in range(20):
        reg = ModeRegister(("1", "2", "3"), 3)
        terms = {tuple(int(rng.integers(0, 4)) for _ in range(3)):
                 complex(rng.normal(), rng.normal()) for _ in range(5)}
        ket = FockKet(reg, terms).normalized()
        out = apply_mode_unitary(ket, balanced_bs(), ("1", "2"))
        ok = ok and abs(out.norm() - 1.0) <= 1e-12
        before = sorted(sum(o) for o, a in ket.items() if abs(a) > 1e-13)
        after = {sum(o) for o, a in out.items() if abs(a) > 1e-13}
        ok = ok and after <= set(before)
        table = measure(out, [("1",), ("2",)], float(rng.uniform(0, 1)))
        ok = ok and abs(sum(o.probability for o in table.values()) - 1.0) <= 1e-12
    buf_a, buf_b = io.StringIO(), io.StringIO()
    argv = ["scheme-a", "--tau2", "1e-3", "--format", "json", "--shots", "100",
            "--seed", "3"]
    cli.run(argv, out=buf_a)
    cli.run(argv, out=buf_b)
    ok = ok and buf_a.getvalue() == buf_b.getvalue()
    report(9, ok, "norm preservation, photon conservation, POVM completeness, "
                  "byte-stable CLI output")


def test_pruning_does_not_shift_results(monkeypatch):
    # disabling pruning must not move probabilities or fidelities by > 1e-10
    rep = run_scheme_a(0.1, 0.8)
    monkeypatch.setattr(fock, "PRUNE_TOL", 0.0)
    raw = run_scheme_a(0.1, 0.8)
    for ev, rv in zip(rep.events, raw.events):
        assert abs(ev.probability - rv.probability) <= 1e-10
        assert abs(ev.fidelity_psi_plus - rv.fidelity_psi_plus) <= 1e-10
