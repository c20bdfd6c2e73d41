import math

import numpy as np
import pytest

from swapsim import detection
from swapsim.detection import (
    CLICK,
    SILENT,
    ClickPattern,
    DetectorAssignment,
    ThresholdDetector,
    measure_pattern,
)
from swapsim.elements import ModeUnitary, apply_mode_unitary, balanced_bs
from swapsim.fock import FockKet, ModeRegister, bell_state, fidelity
from swapsim.oracle import (
    DenseState,
    dense_apply,
    dense_from_fock,
    dense_measure,
    dense_to_fock,
    number_resolving_measure,
    verify_scheme_a,
    verify_scheme_b,
)
from swapsim.protocols import run_scheme_b
from swapsim.sources import vacuum_one_photon_postbs

R2 = 1.0 / math.sqrt(2.0)


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
    det = ThresholdDetector(1.0)
    pat = ClickPattern((DetectorAssignment("D", ("1",), det, CLICK),))
    out = dense_measure(dense_from_fock(ket), pat)
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
    """>= 100 random cases: amplitudes, pattern probabilities, fidelities."""
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
        det = ThresholdDetector(eta)
        measured = str(rng.choice(reg.labels))
        outcome = CLICK if rng.integers(0, 2) else SILENT
        pat = ClickPattern((DetectorAssignment("D", (measured,), det, outcome),))
        so = measure_pattern(sparse_out, pat)
        do = dense_measure(dense_apply(dense_from_fock(ket), u, modes), pat)
        assert do.probability == pytest.approx(so.probability, abs=1e-12)
        if so.ensemble is not None and do.ensemble is not None:
            target = random_ket(rng, so.ensemble.members[0][1].register)
            fs = fidelity(so.ensemble, target)
            fd = fidelity(do.ensemble, target)
            assert fd == pytest.approx(fs, abs=1e-12)
        else:
            assert (so.ensemble is None) == (do.ensemble is None)


def test_verify_scheme_b_checks_the_reported_state(monkeypatch):
    sparse = []

    def record(state, pat):
        out = measure_pattern(state, pat)
        sparse.append(out.probability)
        return out

    monkeypatch.setattr(detection, "measure_pattern", record)
    assert verify_scheme_b(0.3, 0.8, order=2, pair_amplitude=0.5) <= 1e-10
    report = run_scheme_b(0.3, 0.8, order=2, pair_amplitude=0.5)
    assert sparse == [report.event("d2_click").probability,
                      report.event("d3_click").probability]
