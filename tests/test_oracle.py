import io
import math

import numpy as np
import pytest

from swapsim import cli, detection, oracle, protocols
from swapsim.detection import CLICK, SILENT, ConditionalOutcome, measure
from swapsim.elements import ModeUnitary, apply_mode_unitary, balanced_bs
from swapsim.fock import FockKet, ModeRegister, WeightedEnsemble, bell_state, fidelity
from swapsim.oracle import (
    DenseState,
    dense_apply,
    dense_from_fock,
    dense_measure,
    verify_phase_verification,
    verify_scheme_a,
    verify_scheme_b,
)
from swapsim.protocols import run_phase_verification, run_scheme_b
from swapsim.sources import vacuum_one_photon_postbs

R2 = 1.0 / math.sqrt(2.0)


def dense_to_fock(state: DenseState) -> FockKet:
    terms = {}
    for occ in np.ndindex(state.amplitudes.shape):
        amp = state.amplitudes[occ]
        if amp != 0.0:
            terms[occ] = amp
    return FockKet(state.register, terms)


def number_resolving_measure(state: DenseState, mode: str, n: int) -> ConditionalOutcome:
    """Project onto exactly n photons in one mode (a dense-only detector)."""
    reg = state.register
    i = reg.index(mode)
    if not 0 <= n <= reg.cutoff:
        raise ValueError(f"photon number {n} outside [0, {reg.cutoff}]")
    rest_idx = [j for j in range(reg.size) if j != i]
    rest_reg = ModeRegister(tuple(reg.labels[j] for j in rest_idx), reg.cutoff)
    sub: dict[tuple[int, ...], complex] = {}
    for occ in np.ndindex(state.amplitudes.shape):
        amp = state.amplitudes[occ]
        if amp == 0.0 or occ[i] != n:
            continue
        sub[tuple(occ[j] for j in rest_idx)] = amp
    total = sum(abs(a) ** 2 for a in sub.values())
    if total <= 0.0:
        return ConditionalOutcome(0.0, None)
    ket = oracle._normalized(FockKet(rest_reg, sub))
    return ConditionalOutcome(total, WeightedEnsemble(rest_reg, ((1.0, ket),)))


def test_dense_apply_single_photon():
    reg = ModeRegister(("1", "2"), 1)
    state = dense_from_fock(FockKet(reg, {(1, 0): 1.0}))
    out = dense_apply(state, balanced_bs(), ("1", "2"))
    ket = dense_to_fock(out)
    assert ket.amplitude((1, 0)) == pytest.approx(R2, abs=1e-13)
    assert ket.amplitude((0, 1)) == pytest.approx(R2, abs=1e-13)


def test_dense_apply_identity():
    reg = ModeRegister(("1", "2", "3"), 2)
    ket = FockKet(reg, {(1, 2, 0): 0.6, (0, 1, 1): 0.8})
    out = dense_apply(dense_from_fock(ket), ModeUnitary(np.eye(2)), ("1", "3"))
    back = dense_to_fock(out)
    for occ in ket.terms:
        assert back.amplitude(occ) == pytest.approx(ket.amplitude(occ), abs=1e-13)


def test_dense_round_trip():
    reg = ModeRegister(("a", "b"), 2)
    ket = FockKet(reg, {(2, 1): 0.3 + 0.4j, (0, 0): 0.5})
    back = dense_to_fock(dense_from_fock(ket))
    assert back.terms == ket.terms


def test_dense_size_limits():
    reg = ModeRegister(tuple(str(i) for i in range(9)), 1)
    with pytest.raises(ValueError):
        dense_from_fock(FockKet(reg, {(0,) * 9: 1.0}))


def test_number_resolving_measure_on_post_bs_state():
    state = dense_from_fock(vacuum_one_photon_postbs())
    out = number_resolving_measure(state, "2'", 1)
    assert out.probability == pytest.approx(0.25 / 2.5, abs=1e-12)
    reg = out.ensemble.register  # ("3'", "1", "4")
    psi_p = FockKet(reg, {(0, 0, 1): R2, (0, 1, 0): R2})
    assert fidelity(out.ensemble, psi_p) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        number_resolving_measure(state, "2'", 9)


def test_dense_threshold_equals_projector_at_unit_eta():
    reg = ModeRegister(("1", "2"), 1)
    ket = FockKet(reg, {(0, 0): 0.6, (1, 0): 0.8}).normalized()
    out = dense_measure(dense_from_fock(ket), [("1",)], 1.0)[(CLICK,)]
    assert out.probability == pytest.approx(0.64, abs=1e-15)


def test_scheme_pipelines_agree_with_oracle():
    assert verify_scheme_a(math.sqrt(1e-3), 1.0) <= 1e-12
    assert verify_scheme_a(0.3, 0.6, order=2) <= 1e-12
    assert verify_scheme_b(0.1, 1.0) <= 1e-12
    assert verify_scheme_b(0.25, 0.7, variant="pbs") <= 1e-12


def random_unitary(rng) -> ModeUnitary:
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    return ModeUnitary(q)


def random_ket(rng, reg) -> FockKet:
    terms = {}
    for _ in range(rng.integers(1, 7)):
        occ = tuple(int(rng.integers(0, reg.cutoff + 1)) for _ in range(reg.size))
        terms[occ] = complex(rng.normal(), rng.normal())
    return FockKet(reg, terms).normalized()


def test_sparse_dense_equivalence_randomized():
    """>= 100 random cases: amplitudes, outcome probabilities, fidelities."""
    rng = np.random.default_rng(20260824)
    for case in range(120):
        n_modes = int(rng.integers(2, 5))
        cutoff = int(rng.integers(1, 4))
        reg = ModeRegister(tuple(f"m{i}" for i in range(n_modes)), cutoff)
        ket = random_ket(rng, reg)
        u = random_unitary(rng)
        modes = tuple(rng.choice(reg.labels, size=2, replace=False))

        sparse_out = apply_mode_unitary(ket, u, modes)
        dense_out = dense_to_fock(dense_apply(dense_from_fock(ket), u, modes))
        for occ in set(sparse_out.terms) | set(dense_out.terms):
            assert dense_out.amplitude(occ) == pytest.approx(
                sparse_out.amplitude(occ), abs=1e-12)

        eta = float(rng.uniform(0.0, 1.0))
        detectors = [(str(rng.choice(reg.labels)),)]
        sparse = measure(sparse_out, detectors, eta)
        dense = dense_measure(dense_apply(dense_from_fock(ket), u, modes), detectors, eta)
        assert list(dense) == list(sparse) == [(CLICK,), (SILENT,)]
        target = None
        for out, so in sparse.items():
            do = dense[out]
            assert do.probability == pytest.approx(so.probability, abs=1e-12)
            if so.ensemble is not None and do.ensemble is not None:
                if target is None:
                    target = random_ket(rng, so.ensemble.register)
                fs = fidelity(so.ensemble, target)
                fd = fidelity(do.ensemble, target)
                assert fd == pytest.approx(fs, abs=1e-12)
            else:
                assert (so.ensemble is None) == (do.ensemble is None)


def test_verify_scheme_b_checks_the_reported_state(monkeypatch):
    # every outcome (what --shots samples), then the two heralded ones
    # alone (what the report computes)
    calls, sparse = [], []
    herald = protocols._herald

    def record(pre, mixed, eta, outcomes=None):
        out = herald(pre, mixed, eta, outcomes)
        calls.append(outcomes)
        sparse.append([out[(CLICK, SILENT)].probability, out[(SILENT, CLICK)].probability])
        return out

    monkeypatch.setattr(protocols, "_herald", record)
    assert verify_scheme_b(0.3, 0.8, order=2, pair_amplitude=0.5) <= 1e-10
    monkeypatch.undo()
    report = run_scheme_b(0.3, 0.8, order=2, pair_amplitude=0.5)
    assert calls == [None, protocols._HERALDS]
    assert sparse == [[report.event("d2_click").probability,
                       report.event("d3_click").probability]] * 2


@pytest.mark.parametrize("outcome", protocols._HERALDS)
def test_verify_catches_a_skew_of_the_heralded_outcomes_alone(monkeypatch, outcome):
    # the reports measure only the heralded outcomes; a fault there alone,
    # with the full herald (--shots) intact, must still fail --verify
    table = detection.coincidence_table

    def skewed(state, detectors, eta, unitary=None, outcomes=None):
        out = table(state, detectors, eta, unitary, outcomes)
        if outcomes is not None:
            total, branches = out[outcome]
            out[outcome] = (total + 1e-6, branches)
        return out

    monkeypatch.setattr(detection, "coincidence_table", skewed)
    pre = protocols.scheme_a_state(0.3, 2)
    full = protocols._herald(pre, ("1", "2"), 0.6)
    heralded = protocols._herald(pre, ("1", "2"), 0.6, protocols._HERALDS)
    assert heralded[outcome].probability == full[outcome].probability + 1e-6
    assert verify_scheme_a(0.3, 0.6, order=2) == pytest.approx(1e-6, rel=1e-6)
    assert verify_scheme_b(0.25, 0.7, order=2, pair_amplitude=0.5) == \
        pytest.approx(1e-6, rel=1e-6)
    assert verify_phase_verification(0.3, 0.6, order=2) == pytest.approx(1e-6, rel=1e-6)
    for argv in (["scheme-a", "--tau2", "0.09", "--eta", "0.6", "--order", "2"],
                 ["scheme-b", "--epsilon", "0.25", "--eta", "0.7", "--order", "2",
                  "--pair-amplitude", "0.5"],
                 ["verify-phase", "--tau2", "0.09", "--eta", "0.6", "--order", "2"]):
        assert cli.run(argv + ["--verify"], out=io.StringIO()) == 3


@pytest.mark.parametrize("outcome", [(CLICK, CLICK), (SILENT, SILENT)])
def test_verify_compares_every_outcome(monkeypatch, outcome):
    # --verify covers the unheralded outcomes too, which --shots samples
    dense_measure = oracle.dense_measure

    def skewed(*args):
        out = dense_measure(*args)
        o = out[outcome]
        out[outcome] = ConditionalOutcome(o.probability + 1e-6, o.ensemble)
        return out

    monkeypatch.setattr(oracle, "dense_measure", skewed)
    assert verify_scheme_a(0.3, 0.6, order=2) == pytest.approx(1e-6, rel=1e-6)
    assert verify_scheme_b(0.25, 0.7, order=2, pair_amplitude=0.5) == \
        pytest.approx(1e-6, rel=1e-6)


@pytest.mark.parametrize("tau, eta, order", [
    (math.sqrt(1e-3), 1.0, 1), (0.3, 0.6, 2), (0.2, 0.9, 4), (0.3, 0.0, 2), (0.0, 1.0, 1),
    # the largest grid, then a heralded weight near dense_measure's 1e-28 cut
    (math.sqrt(0.1), 0.6, 10), (math.sqrt(0.1), 1.0, 10), (math.sqrt(1e-27), 1.0, 2),
])
def test_verify_phase_verification_agrees(tau, eta, order):
    assert verify_phase_verification(tau, eta, order) <= 1e-12


def test_verify_phase_verification_checks_the_reported_tables(monkeypatch):
    tables = []
    phase_tables = protocols._phase_tables

    def record(ensembles, eta):
        out = phase_tables(ensembles, eta)
        tables.extend(out)
        return out

    monkeypatch.setattr(protocols, "_phase_tables", record)
    assert verify_phase_verification(0.3, 0.8, order=2) <= 1e-10
    monkeypatch.undo()
    report = run_phase_verification(0.3, 0.8, order=2)
    assert len(tables) == 4  # the two events and the two ideal references
    assert [protocols._joint_json(t) for t in tables[:2]] == [
        report.coincidences["event1"]["joint"], report.coincidences["event2"]["joint"]]
    assert [protocols._click_marginals(t) for t in tables[2:]] == [
        report.coincidences["ideal_psi_plus"], report.coincidences["ideal_psi_minus"]]


@pytest.mark.parametrize("table", ["event", "ideal"])
def test_verify_phase_verification_catches_a_skewed_table(monkeypatch, table):
    phase_tables = protocols._phase_tables

    def skewed(ensembles, eta):
        out = phase_tables(ensembles, eta)
        # the event1 table, or the ideal psi- reference (the last table)
        out[0 if table == "event" else -1][(CLICK, CLICK)] += 1e-6
        return out

    monkeypatch.setattr(protocols, "_phase_tables", skewed)
    assert verify_phase_verification(0.3, 0.6, order=2) == pytest.approx(1e-6, rel=1e-6)
