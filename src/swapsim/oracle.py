"""Dense brute-force engine for cross-checking the sparse core.

Deliberately naive: full amplitude arrays, explicit basis enumeration, and
mode unitaries lifted through scipy's matrix log/exp instead of the sparse
engine's multinomial substitution.  Every ket the dense side builds goes
through the public, validating ``FockKet`` constructor, never the engine's
trusted one.
Used only in tests and the CLI's --verify mode; small registers only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm, logm

from .detection import CLICK, ClickPattern, ConditionalOutcome
from .elements import ModeUnitary, apply_mode_unitary, balanced_bs
from .fock import FockKet, ModeRegister, WeightedEnsemble

MAX_MODES = 8
MAX_ELEMENTS = 5_000_000


@dataclass(frozen=True)
class DenseState:
    """Full amplitude array over all (cutoff+1)^m occupation tuples."""

    register: ModeRegister
    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex)
        d = self.register.cutoff + 1
        if a.shape != (d,) * self.register.size:
            raise ValueError(f"amplitude shape {a.shape} does not match register")
        object.__setattr__(self, "amplitudes", a)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalized(self) -> "DenseState":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero state")
        return DenseState(self.register, self.amplitudes / n)


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


def dense_to_fock(state: DenseState) -> FockKet:
    terms = {}
    for occ in np.ndindex(state.amplitudes.shape):
        amp = state.amplitudes[occ]
        if amp != 0.0:
            terms[occ] = amp
    return FockKet(state.register, terms)


def _ladder(dim: int) -> np.ndarray:
    ad = np.zeros((dim, dim), dtype=complex)
    for n in range(dim - 1):
        ad[n + 1, n] = math.sqrt(n + 1)
    return ad


def _lift(u: ModeUnitary, dim: int) -> np.ndarray:
    """Fock-space unitary exp(sum_jk G[j,k] a_j^dag a_k) with G = log(U)."""
    g = logm(u.matrix)
    k = u.size
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
    return expm(gen)


def dense_apply(state: DenseState, u: ModeUnitary, modes: tuple[str, ...]) -> DenseState:
    """Apply a mode unitary by full matrix-vector product on the acted axes.

    The working dimension grows so that every occupied sector of the acted
    modes fits (truncation-free), mirroring the sparse engine's "grow"
    policy; all axes are padded to the final cutoff.
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
    lift = _lift(u, dim)

    moved = np.moveaxis(amps, idx, range(len(idx)))
    head = dim ** len(idx)
    flat = moved.reshape(head, -1)
    flat = lift @ flat
    moved = flat.reshape(moved.shape)
    amps = np.moveaxis(moved, range(len(idx)), idx)
    return DenseState(reg.with_cutoff(dim - 1), amps)


def dense_measure(state: DenseState, pattern: ClickPattern) -> ConditionalOutcome:
    """Threshold POVM by explicit summation over the full basis."""
    reg = state.register
    measured = [m for a in pattern.assignments for m in a.modes]
    idx = [reg.index(m) for m in measured]
    rest_idx = [i for i in range(reg.size) if i not in idx]
    rest_reg = (ModeRegister(tuple(reg.labels[i] for i in rest_idx), reg.cutoff)
                if rest_idx else None)

    spans = []
    pos = 0
    for a in pattern.assignments:
        spans.append((a, slice(pos, pos + len(a.modes))))
        pos += len(a.modes)

    groups: dict[tuple[int, ...], dict[tuple[int, ...], complex]] = {}
    for occ in np.ndindex(state.amplitudes.shape):
        amp = state.amplitudes[occ]
        if amp == 0.0:
            continue
        key = tuple(occ[i] for i in idx)
        rest = tuple(occ[i] for i in rest_idx)
        groups.setdefault(key, {})[rest] = amp

    total = 0.0
    branches = []
    for key, sub in groups.items():
        if rest_reg is not None:
            ket = FockKet(rest_reg, sub)  # prunes expm round-off dust
            w = ket.norm() ** 2
        else:
            ket = None
            w = sum(abs(a) ** 2 for a in sub.values())
        if w <= 1e-28:
            continue
        p_out = 1.0
        for a, span in spans:
            n = sum(key[span])
            p = a.detector.p_click(n)
            p_out *= p if a.outcome == CLICK else 1.0 - p
        contrib = w * p_out
        if contrib > 0.0:
            total += contrib
            if ket is not None:
                branches.append((contrib, _normalized(ket)))
    if total <= 0.0:
        return ConditionalOutcome(0.0, None, impossible=True)
    ensemble = WeightedEnsemble.from_branches(branches) if branches else None
    return ConditionalOutcome(total, ensemble)


def number_resolving_measure(state: DenseState, mode: str, n: int) -> ConditionalOutcome:
    """Project onto exactly n photons in one mode (oracle-only detector)."""
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
        return ConditionalOutcome(0.0, None, impossible=True)
    ket = _normalized(FockKet(rest_reg, sub))
    return ConditionalOutcome(total, WeightedEnsemble(rest_reg, ((1.0, ket),)))


# --------------------------------------------------------------------------
# Full-pipeline cross-checks used by the CLI's --verify mode
# --------------------------------------------------------------------------

def _compare_outcomes(sparse_out: ConditionalOutcome, dense_out: ConditionalOutcome,
                      targets) -> float:
    from .fock import fidelity

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


def verify_scheme_a(tau: complex, eta: float, order: int = 1) -> float:
    """Max |sparse - dense| over event probabilities and psi-fidelities."""
    from .detection import DetectorAssignment, ThresholdDetector, measure_pattern
    from .fock import bell_state, reorder
    from .sources import SpdcParams, double_pass_source

    src = reorder(double_pass_source(SpdcParams(tau, order)), ("1", "2", "3", "4"))
    sp = apply_mode_unitary(src, balanced_bs(), ("1", "2"))
    dn = dense_apply(dense_from_fock(src), balanced_bs(), ("1", "2"))
    det = ThresholdDetector(eta)
    targets = [bell_state("psi+", ("3", "4")), bell_state("psi-", ("3", "4"))]
    worst = 0.0
    for click, silent in (("1", "2"), ("2", "1")):
        pat = ClickPattern((
            DetectorAssignment("Dc", (click,), det, CLICK),
            DetectorAssignment("Ds", (silent,), det, "silent"),
        ))
        worst = max(worst, _compare_outcomes(
            measure_pattern(sp, pat), dense_measure(dn, pat), targets))
    return worst


def verify_scheme_b(epsilon: float, eta: float, order: int = 1,
                    variant: str = "ubs", pair_amplitude: float = 0.0) -> float:
    from .detection import DetectorAssignment, ThresholdDetector, measure_pattern
    from .fock import bell_state
    from .protocols import scheme_b_state

    pre = scheme_b_state(epsilon, order, variant, pair_amplitude)
    sp = apply_mode_unitary(pre, balanced_bs(), ("2", "3"))
    dn = dense_apply(dense_from_fock(pre), balanced_bs(), ("2", "3"))
    det = ThresholdDetector(eta)
    targets = [bell_state("psi+", ("1", "4")), bell_state("psi-", ("1", "4"))]
    worst = 0.0
    for click, silent in (("2", "3"), ("3", "2")):
        pat = ClickPattern((
            DetectorAssignment("Dc", (click,), det, CLICK),
            DetectorAssignment("Ds", (silent,), det, "silent"),
        ))
        worst = max(worst, _compare_outcomes(
            measure_pattern(sp, pat), dense_measure(dn, pat), targets))
    return worst
