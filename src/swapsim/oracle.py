"""Dense brute-force engine for cross-checking the sparse core.

Deliberately naive: full amplitude arrays, explicit basis enumeration, and
mode unitaries lifted through scipy's matrix log/exp instead of the sparse
engine's multinomial substitution.  The threshold POVM is summed over the
full basis with its own arithmetic (a silent probability of ``1 - p_click``,
a branch weight from the pruned ket's norm), so ``dense_measure`` shares no
code path with ``detection.measure`` beyond the detector's click probability.
Every ket the dense side builds goes through the public, validating
``FockKet`` constructor, never the engine's trusted one.  Every dense
reference is one chain, ``_dense_chain``: a ket, balanced beam splitters
applied in order, then one detector per beam.  The phase-verification
coincidence tables, which the sparse engine builds from the members of
each heralded ensemble, are checked against one run of the whole chain by
Bayes' rule, reading no member, and the oracle builds its own targets and
ideal references with ``bell_state`` rather than reading the engine's
constants.

Trust boundary: each check starts from the engine's ket just before the
heralding beam splitter, ``scheme_a_state`` or ``scheme_b_state``.  So
``verify_scheme_b`` does not check scheme B's two unbalanced beam
splitters; only the randomized sparse-vs-dense test in
``tests/test_oracle.py`` checks the sparse kernel that applies them
(``apply_mode_unitary`` against ``dense_apply``).
Used only in tests and the CLI's --verify mode; small registers only.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from scipy.linalg import expm, logm

from . import protocols
from .detection import CLICK, SILENT, ConditionalOutcome, ThresholdDetector, measure_pattern
from .elements import ModeUnitary, balanced_bs
from .fock import FockKet, ModeRegister, WeightedEnsemble, _Record, bell_state, fidelity

MAX_MODES = 8
MAX_ELEMENTS = 5_000_000


class DenseState(_Record):
    """Full amplitude array over all (cutoff+1)^m occupation tuples."""

    __slots__ = _fields = ("register", "amplitudes")

    def __init__(self, register: ModeRegister, amplitudes: np.ndarray):
        a = np.asarray(amplitudes, dtype=complex)
        d = register.cutoff + 1
        if a.shape != (d,) * register.size:
            raise ValueError(f"amplitude shape {a.shape} does not match register")
        object.__setattr__(self, "register", register)
        object.__setattr__(self, "amplitudes", a)


def dense_from_fock(ket: FockKet) -> DenseState:
    reg = ket.register
    d = reg.cutoff + 1
    if d**reg.size > MAX_ELEMENTS or reg.size > MAX_MODES:
        raise ValueError("register too large for the dense oracle")
    a = np.zeros((d,) * reg.size, dtype=complex)
    for occ, amp in ket.items():
        a[occ] = amp
    return DenseState(reg, a)


def _normalized(ket: FockKet) -> FockKet:
    # FockKet.normalized builds through the engine's trusted constructor
    n = ket.norm()
    if n == 0.0:
        raise ValueError("cannot normalize the zero ket")
    c = 1.0 / n
    return FockKet(ket.register, {occ: c * a for occ, a in ket.items()})


def _ladder(dim: int) -> np.ndarray:
    ad = np.zeros((dim, dim), dtype=complex)
    for n in range(dim - 1):
        ad[n + 1, n] = math.sqrt(n + 1)
    return ad


@functools.lru_cache(maxsize=4)
def _lift_matrix(raw: bytes, k: int, dim: int) -> np.ndarray:
    """Fock-space unitary exp(sum_jk G[j,k] a_j^dag a_k) with G = log(U), for
    the k x k mode unitary U whose matrix bytes are ``raw``."""
    # keyed by the matrix bytes: one verify_phase_verification call applies
    # the beam splitter five times, at one or two working dimensions
    g = logm(np.frombuffer(raw, dtype=complex).reshape(k, k))
    ad = _ladder(dim)
    a = ad.conj().T
    gen = np.zeros((dim**k, dim**k), dtype=complex)
    eye = np.eye(dim, dtype=complex)
    for j in range(k):
        for l in range(k):
            if g[j, l] == 0.0:
                continue
            ops = []
            for pos in range(k):
                if pos == j == l:
                    ops.append(ad @ a)
                elif pos == j:
                    ops.append(ad)
                elif pos == l:
                    ops.append(a)
                else:
                    ops.append(eye)
            term = ops[0]
            for op in ops[1:]:
                term = np.kron(term, op)
            gen += g[j, l] * term
    lift = expm(gen)
    lift.flags.writeable = False
    return lift


def dense_apply(state: DenseState, u: ModeUnitary, modes: tuple[str, ...]) -> DenseState:
    """Apply a mode unitary by full matrix-vector product on the acted axes.

    The working dimension grows so that every occupied sector of the acted
    modes fits (truncation-free), as the sparse engine grows its cutoff;
    all axes are padded to the final cutoff.
    """
    reg = state.register
    if reg.size > MAX_MODES:
        raise ValueError("too many modes for the dense oracle")
    idx = [reg.index(m) for m in modes]
    nz = np.argwhere(np.abs(state.amplitudes) > 0)
    if nz.size == 0:
        return state
    acted_total = int(max(sum(row[i] for i in idx) for row in nz))
    dim = max(reg.cutoff, acted_total) + 1
    if dim**reg.size > MAX_ELEMENTS:
        raise ValueError("acted sector too large for the dense oracle")

    amps = state.amplitudes
    pad = dim - (reg.cutoff + 1)
    if pad > 0:
        amps = np.pad(amps, [(0, pad)] * reg.size)
    lift = _lift_matrix(u.matrix.tobytes(), u.size, dim)

    moved = np.moveaxis(amps, idx, range(len(idx)))
    head = dim ** len(idx)
    flat = moved.reshape(head, -1)
    flat = lift @ flat
    moved = flat.reshape(moved.shape)
    amps = np.moveaxis(moved, range(len(idx)), idx)
    return DenseState(reg.with_cutoff(dim - 1), amps)


def dense_measure(state: DenseState, detectors, eta: float) -> dict:
    """Threshold POVM by explicit summation over the full basis: every
    click/silent outcome, keyed as in ``detection.measure``."""
    det = ThresholdDetector(eta)
    detectors = [tuple(modes) for modes in detectors]
    reg = state.register
    measured = [m for modes in detectors for m in modes]
    idx = [reg.index(m) for m in measured]
    rest_idx = [i for i in range(reg.size) if i not in idx]
    rest_reg = (ModeRegister(tuple(reg.labels[i] for i in rest_idx), reg.cutoff)
                if rest_idx else None)

    # the nonzero cells in np.ndindex's C order
    amps = state.amplitudes
    groups: dict[tuple[int, ...], dict[tuple[int, ...], complex]] = {}
    for occ in map(tuple, np.argwhere(amps != 0.0).tolist()):
        amp = amps[occ]
        key = tuple(occ[i] for i in idx)
        rest = tuple(occ[i] for i in rest_idx)
        groups.setdefault(key, {})[rest] = amp

    outcomes = list(itertools.product((CLICK, SILENT), repeat=len(detectors)))
    totals = {out: 0.0 for out in outcomes}
    branches = {out: [] for out in outcomes}
    for key, sub in groups.items():
        if rest_reg is not None:
            ket = FockKet(rest_reg, sub)  # prunes expm round-off dust
            w = ket.norm() ** 2
        else:
            ket = None
            w = sum(abs(a) ** 2 for a in sub.values())
        if w <= 1e-28:
            continue
        branch = _normalized(ket) if ket is not None else None
        clicks = []
        pos = 0
        for modes in detectors:
            clicks.append(det.p_click(sum(key[pos:pos + len(modes)])))
            pos += len(modes)
        for out in outcomes:
            p_out = 1.0
            for o, p in zip(out, clicks):
                p_out *= p if o == CLICK else 1.0 - p
            contrib = w * p_out
            if contrib > 0.0:
                totals[out] += contrib
                if branch is not None:
                    branches[out].append((contrib, branch))
    return {out: ConditionalOutcome(totals[out], WeightedEnsemble.from_branches(branches[out])
                                    if branches[out] else None)
            for out in outcomes}


# --------------------------------------------------------------------------
# Full-pipeline cross-checks used by the CLI's --verify mode
# --------------------------------------------------------------------------

def _compare_outcomes(sparse_out: ConditionalOutcome, dense_out: ConditionalOutcome,
                      targets) -> float:
    worst = abs(sparse_out.probability - dense_out.probability)
    if sparse_out.ensemble is None or dense_out.ensemble is None:
        if (sparse_out.ensemble is None) != (dense_out.ensemble is None):
            return float("inf")
        return worst
    for t in targets:
        fs = fidelity(sparse_out.ensemble, t)
        fd = fidelity(dense_out.ensemble, t)
        worst = max(worst, abs(fs - fd))
    return worst


def _dense_chain(ket: FockKet, pairs, eta: float) -> dict:
    """A balanced beam splitter on each pair of beams of ``ket``, in order,
    then one threshold detector on each of those beams, in pair order."""
    state = dense_from_fock(ket)
    for pair in pairs:
        state = dense_apply(state, balanced_bs(), pair)
    return dense_measure(state, [(m,) for pair in pairs for m in pair], eta)


def _verify_herald(pre: FockKet, scheme: protocols._Heralded,
                   eta: float) -> tuple[float, dict, dict]:
    """Max |sparse - dense| over outcome probabilities and psi-fidelities on
    the outer beams of the step both schemes herald with: a balanced beam
    splitter on ``scheme.mixed`` and one threshold detector on each output.
    The sparse side is measured twice: every outcome (the ``--shots``
    distribution), and the two heralded ones alone, which is what the
    reports compute, each outcome's ensemble built by ``measure_pattern``
    as the reports build theirs.  The heralded sparse outcomes and the
    dense ones are returned with it."""
    sparse, heralded = (
        {out: measure_pattern(*entry)
         for out, entry in protocols._herald(pre, scheme.mixed, eta, outcomes).items()}
        for outcomes in (None, protocols._HERALDS))
    dense = _dense_chain(pre, [scheme.mixed], eta)
    targets = [bell_state("psi+", scheme.outer), bell_state("psi-", scheme.outer)]
    worst = max(_compare_outcomes(outcomes[out], dense[out], targets)
                for outcomes in (sparse, heralded) for out in outcomes)
    return worst, heralded, dense


def verify_scheme_a(tau: complex, eta: float, order: int = 1) -> float:
    """Max |sparse - dense| over scheme A's outcome probabilities and psi-fidelities."""
    return _verify_herald(protocols.scheme_a_state(tau, order), protocols._SCHEME_A, eta)[0]


def verify_phase_verification(tau: complex, eta: float, order: int = 1) -> float:
    """``verify_scheme_a`` plus every coincidence table of the phase
    verification: max |sparse - dense| over each outcome's probability.

    The dense side runs the whole chain once, BS(1, 2) then BS(3, 4) and a
    detector on each beam, and takes each heralded event's table by Bayes'
    rule, P(herald, D3/D4 outcome) / P(herald); each ideal psi+/psi-
    reference, built here, goes through BS(3, 4) and D3/D4 alone.  The
    sparse tables come from ``_phase_tables``, whose tables
    ``run_phase_verification`` reports.
    """
    pre = protocols.scheme_a_state(tau, order)
    scheme = protocols._SCHEME_A
    worst, heralded, dense = _verify_herald(pre, scheme, eta)
    chain = _dense_chain(pre, [scheme.mixed, scheme.outer], eta)
    # the heralded events (an ensemble on one side only already made worst
    # inf), then the ideal references, in _phase_tables' order
    sparse_ens, refs = [], []
    for herald in protocols._HERALDS:
        if heralded[herald].ensemble is not None and dense[herald].ensemble is not None:
            sparse_ens.append(heralded[herald].ensemble)
            joint = {out[2:]: o.probability for out, o in chain.items() if out[:2] == herald}
            p_herald = math.fsum(joint.values())
            refs.append({out: p / p_herald for out, p in joint.items()})
    for kind in ("psi+", "psi-"):
        ideal = _dense_chain(bell_state(kind, scheme.outer, 2), [scheme.outer], eta)
        refs.append({out: o.probability for out, o in ideal.items()})
    tables = protocols._phase_tables(sparse_ens, eta)
    for table, ref in zip(tables, refs, strict=True):
        worst = max(worst, max(abs(table[out] - p) for out, p in ref.items()))
    return worst


def verify_scheme_b(epsilon: float, eta: float, order: int = 1,
                    variant: str = "ubs", pair_amplitude: float = 0.0) -> float:
    """Max |sparse - dense| over scheme B's outcome probabilities and psi-fidelities."""
    pre = protocols.scheme_b_state(epsilon, order, variant, pair_amplitude)
    return _verify_herald(pre, protocols._SCHEME_B, eta)[0]
