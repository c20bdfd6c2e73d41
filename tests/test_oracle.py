import ast
import io
import math
import pathlib

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
from swapsim.protocols import run_phase_verification
from swapsim.sources import double_pass_source, vacuum_one_photon_postbs

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


def replaced(record, **changes):
    """A copy of a report record with some of its fields changed."""
    return type(record)(**{**dict(zip(record._fields, record._values())), **changes})


SCHEME_B_ARGS = (0.3, 0.8, 2, "ubs", 0.5)
SCHEME_B_ARGV = ["scheme-b", "--epsilon", "0.3", "--eta", "0.8", "--order", "2",
                 "--pair-amplitude", "0.5", "--verify"]
SCHEME_A_ARGV = ["scheme-a", "--tau2", "0.09", "--eta", "0.6", "--order", "2", "--verify"]


def test_verify_scheme_b_checks_the_reported_state(monkeypatch):
    # the check reads the report run_scheme_b returns, looked up when it
    # runs: one printed probability raised by 1e-6 is the deviation
    run = protocols.run_scheme_b

    def skewed(*args):
        report = run(*args)
        first, second = report.events
        return replaced(report, events=(first, replaced(second,
                                                        probability=second.probability + 1e-6)))

    assert verify_scheme_b(*SCHEME_B_ARGS) <= 1e-12
    monkeypatch.setattr(protocols, "run_scheme_b", skewed)
    assert verify_scheme_b(*SCHEME_B_ARGS) == pytest.approx(1e-6, rel=1e-6)
    assert cli.run(SCHEME_B_ARGV, out=io.StringIO()) == 3


def test_verify_catches_swapped_psi_fidelities(monkeypatch):
    # every report builds its events with _event; its psi+ and psi- columns
    # swapped are a fault only a check of the printed fidelities sees
    event = protocols._event

    def swapped(*args, **kwargs):
        ev = event(*args, **kwargs)
        return replaced(ev, fidelity_psi_plus=ev.fidelity_psi_minus,
                        fidelity_psi_minus=ev.fidelity_psi_plus)

    monkeypatch.setattr(protocols, "_event", swapped)
    assert verify_scheme_a(0.3, 0.6, order=2) > 0.5
    assert cli.run(SCHEME_A_ARGV, out=io.StringIO()) == 3
    assert cli.run(SCHEME_B_ARGV, out=io.StringIO()) == 3


def test_verify_catches_a_miswired_scheme_a(monkeypatch):
    # the oracle wires scheme A itself: a herald on beams 1, 4 with the
    # swapped pair on 2, 3 runs, and prints numbers of the wrong scheme
    scheme = protocols._SCHEME_A
    miswired = protocols._Heralded(("1", "4"), scheme.events,
                                   protocols._bell_targets(("2", "3"), protocols._PSI))
    monkeypatch.setattr(protocols, "_SCHEME_A", miswired)
    assert verify_scheme_a(0.3, 0.6, order=2) > 0.5
    assert cli.run(SCHEME_A_ARGV, out=io.StringIO()) == 3


def test_oracle_reads_no_private_name_of_the_engine():
    # the oracle reaches protocols and detection only through their public
    # names, and never through the sparse measurement it cross-checks
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
    engine = {"protocols", "detection"}
    sparse = {"measure_pattern", "coincidence_table"}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] in engine:
            for alias in node.names:
                assert not alias.name.startswith("_") and alias.name not in sparse, alias.name
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in engine:
            assert not node.attr.startswith("_") and node.attr not in sparse, node.attr


@pytest.mark.parametrize("outcome", protocols._HERALDS)
def test_verify_catches_a_skew_of_the_heralded_outcomes_alone(monkeypatch, outcome):
    # the reports measure only the heralded outcomes, through measure; a
    # fault there alone, with the full herald (--shots) intact, must still
    # fail --verify
    table = detection.coincidence_table

    def skewed(state, detectors, eta, unitary=None, outcomes=None):
        out = table(state, detectors, eta, unitary, outcomes)
        if outcomes is not None:
            total, branches = out[outcome]
            out[outcome] = (total + 1e-6, branches)
        return out

    monkeypatch.setattr(detection, "coincidence_table", skewed)
    pre, detectors = double_pass_source(0.3, 2), protocols._SCHEME_A.detectors
    full = protocols.coincidence_table(pre, detectors, 0.6, balanced_bs())
    heralded = detection.coincidence_table(pre, detectors, 0.6, balanced_bs(),
                                           protocols._HERALDS)
    assert protocols.coincidence_table is table
    assert heralded[outcome][0] == full[outcome][0] + 1e-6
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


def test_verify_phase_verification_checks_the_printed_marginals(monkeypatch):
    # beam 3's and beam 4's photon probabilities, doubled, leave their shares
    # as they were: only the raw_beam3/raw_beam4 comparison sees the fault
    occupied = protocols._occupied_probabilities
    monkeypatch.setattr(protocols, "_occupied_probabilities",
                        lambda ens, modes: tuple(2 * p for p in occupied(ens, modes)))
    assert verify_phase_verification(0.3, 0.6, order=2) > 0.1
    argv = ["verify-phase", "--tau2", "0.09", "--eta", "0.6", "--order", "2", "--verify"]
    assert cli.run(argv, out=io.StringIO()) == 3


@pytest.mark.parametrize("check, report", [(verify_scheme_a, "run_scheme_a"),
                                           (verify_scheme_b, "run_scheme_b"),
                                           (verify_phase_verification, "run_phase_verification")])
def test_a_report_that_conditions_where_the_dense_side_does_not_is_inf(check, report, monkeypatch):
    # the report at eta = 0, where no herald clicks, against a dense chain at
    # eta = 0.6, where both do
    run = getattr(protocols, report)
    monkeypatch.setattr(protocols, report, lambda first, eta, *rest: run(first, 0.0, *rest))
    assert check(0.3, 0.6, 2) == math.inf


@pytest.mark.parametrize("edit", [
    lambda co: {**co, "event1": None},
    lambda co: {k: v for k, v in co.items() if k != "marginals"},
    lambda co: {**co, "marginals": {**co["marginals"], "beam3": None}},
    lambda co: {**co, "marginals": {**co["marginals"], "total": 1.0}},
], ids=["event-table", "marginals", "marginal-share", "marginals-keys"])
def test_verify_phase_verification_is_inf_when_a_printed_block_differs_in_shape(edit, monkeypatch):
    run = protocols.run_phase_verification

    def edited(*args):
        report = run(*args)
        return replaced(report, coincidences=edit(report.coincidences))

    monkeypatch.setattr(protocols, "run_phase_verification", edited)
    assert verify_phase_verification(0.3, 0.6, 2) == math.inf


def test_dense_state_rejects_a_shape_its_register_does_not_have():
    with pytest.raises(ValueError, match=r"amplitude shape \(2, 3\) does not match register"):
        DenseState(ModeRegister(("1", "2"), 1), np.zeros((2, 3)))


def test_normalizing_the_zero_ket_raises():
    with pytest.raises(ValueError, match="cannot normalize the zero ket"):
        oracle._normalized(FockKet(ModeRegister(("1",), 1), {}))


@pytest.mark.parametrize("limit, value, message", [
    ("MAX_MODES", 1, "too many modes for the dense oracle"),
    # the beam splitter needs three levels per mode for |1, 1>: 3**2 > 8
    ("MAX_ELEMENTS", 8, "acted sector too large for the dense oracle"),
])
def test_dense_apply_rejects_a_register_over_its_limits(limit, value, message, monkeypatch):
    state = dense_from_fock(FockKet(ModeRegister(("1", "2"), 1), {(1, 1): 1.0}))
    monkeypatch.setattr(oracle, limit, value)
    with pytest.raises(ValueError, match=message):
        dense_apply(state, balanced_bs(), ("1", "2"))


def test_dense_apply_returns_the_zero_ket_as_it_is():
    zero = DenseState(ModeRegister(("1", "2"), 1), np.zeros((2, 2)))
    assert dense_apply(zero, balanced_bs(), ("1", "2")) is zero


# --------------------------------------------------------------------------
# The stored log of the balanced beam splitter
# --------------------------------------------------------------------------

def test_the_stored_balanced_bs_log_exponentiates_to_the_beam_splitter():
    # expm of logm's bits misses the matrix by about 1.5e-15 (13 ulp of
    # 1/sqrt(2)); a wrong stored digit misses it by far more
    from scipy.linalg import expm

    assert np.abs(expm(oracle._BALANCED_BS_LOG) - balanced_bs().matrix).max() <= 4e-15


def test_the_stored_balanced_bs_log_is_the_installed_logm_within_rounding():
    # a tolerance, not bits: scipy is unpinned here, and the benchmark's
    # golden --verify lines pin the bits
    from scipy.linalg import logm

    assert np.abs(oracle._BALANCED_BS_LOG - logm(balanced_bs().matrix)).max() <= 1e-14


def test_dense_apply_lifts_any_unitary_with_the_balanced_bs_bytes_alike():
    # the stored log is picked by the matrix bytes, not by the instance
    twin = ModeUnitary(balanced_bs().entries)
    assert twin is not balanced_bs() and twin.matrix.tobytes() == oracle._BALANCED_BS_BYTES
    state = dense_from_fock(FockKet(ModeRegister(("1", "2", "3"), 2),
                                    {(1, 1, 0): 0.6, (2, 0, 1): 0.8j}))
    applied = []
    for u in (balanced_bs(), twin):
        oracle._lift_matrix.cache_clear()
        applied.append(dense_apply(state, u, ("1", "2")).amplitudes)
    assert applied[0].tobytes() == applied[1].tobytes()
