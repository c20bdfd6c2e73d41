"""Dense brute-force engine for cross-checking the sparse core.

Deliberately naive: full amplitude arrays, explicit basis enumeration, and
mode unitaries lifted through a matrix log and scipy's ``expm``
(``_lift_matrix``) instead of the sparse engine's multinomial
substitution.  The threshold POVM is summed over the full basis with its
own arithmetic (a silent probability of ``1 - p_click``, a branch weight
from the pruned ket's norm), so ``dense_measure`` shares no code path with
``detection.measure`` beyond the detector's click probability.  Every ket
the dense side builds goes through the public, validating ``FockKet``
constructor, never the engine's trusted one.  Every dense reference is one
chain, ``_dense_chain``: a ket, balanced beam splitters applied in order,
then one detector per beam.

Each check of the CLI's --verify compares its dense chain with what the
subcommand prints or samples, read from the public functions of
``protocols`` that the CLI calls, looked up when the check runs
(``_herald_gap``, ``verify_phase_verification``).  The oracle writes its
own wiring and builds its own targets and ideal references with
``bell_state``; it reads no private name of ``protocols`` or
``detection``.  What the reports do not print is not compared here: the
psi+/psi- fidelities of the (click, click) and (silent, silent)
ensembles, verify-phase's unheralded D1/D2 outcomes and the entries of
its ideal tables; the randomized sparse-vs-dense test in
``tests/test_oracle.py`` covers them.

Trust boundary: each check starts from the ket just before the heralding
beam splitter, ``sources.double_pass_source`` or
``protocols.scheme_b_state``.  So ``verify_scheme_b`` does not check scheme
B's two unbalanced beam splitters; only the randomized test checks the
sparse kernel that applies them (``apply_mode_unitary`` against
``dense_apply``).  Used only in tests and the CLI's --verify mode; small
registers only.
"""
from __future__ import annotations

import functools
import itertools
import math

import numpy as np
from scipy.linalg import expm

from . import protocols
from .detection import CLICK, SILENT, ConditionalOutcome, ThresholdDetector
from .elements import ModeUnitary, balanced_bs
from .fock import FockKet, ModeRegister, WeightedEnsemble, _Record, bell_state, fidelity
from .sources import double_pass_source

MAX_MODES = 8
MAX_ELEMENTS = 5_000_000

# the wiring the checks give each scheme, written here rather than read from
# the engine: scheme A mixes beams 1, 2 and swaps onto 3, 4 (scheme B's is
# in verify_scheme_b), and the heralded events, in report order, are the
# first detector clicking alone, then the second
_A_MIXED, _A_OUTER = ("1", "2"), ("3", "4")
_HERALDS = ((CLICK, SILENT), (SILENT, CLICK))

# scipy.linalg.logm(balanced_bs().matrix) as scipy 1.17.1 with numpy 2.4.6
# returns it, bit for bit: (real, imag) float.hex pairs in row order.  The
# --verify deviations that the CLI prints come from expm of these bits
_BALANCED_BS_BYTES = balanced_bs().matrix.tobytes()
_BALANCED_BS_LOG = np.array([complex(float.fromhex(re), float.fromhex(im)) for re, im in (
    ("-0x1.c41a74470519ep-50", "0x1.d71e0e59b28cbp-2"),
    ("-0x1.2134e88e0a342p-51", "-0x1.1c5831add62e2p+0"),
    ("-0x1.2134e88e0a343p-51", "-0x1.1c5831add62e1p+0"),
    ("-0x1.45cb1771f5cbap-51", "0x1.573bf3790c7fbp+1"),
)]).reshape(2, 2)
_BALANCED_BS_LOG.flags.writeable = False


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
    the k x k mode unitary U whose matrix bytes are ``raw``.  For the
    balanced beam splitter, the one unitary every --verify chain lifts, G is
    the stored ``_BALANCED_BS_LOG``: ``logm``'s first call imports
    ``scipy.special``, about 0.1 s of a cold process, to compute one fixed
    2 x 2 log.  Any other U, which only tests lift, gets its log from
    ``logm``, imported here.
    """
    # keyed by the matrix bytes: one verify_phase_verification call applies
    # the beam splitter five times, at one or two working dimensions
    if raw == _BALANCED_BS_BYTES:
        g = _BALANCED_BS_LOG
    else:
        from scipy.linalg import logm

        g = logm(np.frombuffer(raw, dtype=complex).reshape(k, k))
    ad = _ladder(dim)
    a = ad.conj().T
    gen = np.zeros((dim**k, dim**k), dtype=complex)
    eye = np.eye(dim, dtype=complex)
    for j in range(k):
        for l in range(k):
            if g[j, l] == 0.0:
                continue
            # the operator on each acted mode, Kronecker-multiplied in mode order
            ops = [ad @ a if pos == j == l else ad if pos == j else a if pos == l else eye
                   for pos in range(k)]
            gen += g[j, l] * functools.reduce(np.kron, ops)
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

def _dense_chain(ket: FockKet, pairs, eta: float) -> dict:
    """A balanced beam splitter on each pair of beams of ``ket``, in order,
    then one threshold detector on each of those beams, in pair order."""
    state = dense_from_fock(ket)
    for pair in pairs:
        state = dense_apply(state, balanced_bs(), pair)
    return dense_measure(state, [(m,) for pair in pairs for m in pair], eta)


def _table_gap(printed: dict, dense: dict) -> float:
    """Max |printed - dense| over a table keyed as the reports print it
    ("click,silent" etc.); ``inf`` unless both hold the same outcomes."""
    dense = {",".join(out): p for out, p in dense.items()}
    return (max(abs(printed[key] - p) for key, p in dense.items())
            if printed.keys() == dense.keys() else math.inf)


def _herald_gap(report, distribution: dict | None, pre: FockKet, mixed: tuple[str, str],
                outer: tuple[str, str], eta: float) -> tuple[float, dict]:
    """Max |printed - dense| over the two events of ``report`` and every
    outcome of ``distribution`` (unless None), for a balanced beam splitter
    on ``mixed`` and one threshold detector on each output: the first event
    is the first detector clicking alone, the second the second.  Each
    event's probability and fidelities to psi+ and psi- on ``outer`` are
    compared, and an event that conditions on one side only gives ``inf``.
    The dense outcomes are returned with it."""
    dense = _dense_chain(pre, [mixed], eta)
    worst = 0.0 if distribution is None else _table_gap(
        distribution, {out: o.probability for out, o in dense.items()})
    plus, minus = (bell_state(kind, outer) for kind in ("psi+", "psi-"))
    for ev, out in zip(report.events, _HERALDS, strict=True):
        ens = dense[out].ensemble
        if ev.impossible != (ens is None):
            return math.inf, dense
        worst = max(worst, abs(ev.probability - dense[out].probability))
        if ens is not None:
            worst = max(worst, abs(ev.fidelity_psi_plus - fidelity(ens, plus)),
                        abs(ev.fidelity_psi_minus - fidelity(ens, minus)))
    return worst, dense


def verify_scheme_a(tau: complex, eta: float, order: int = 1) -> float:
    """Max |printed - dense| over scheme A's report and click distribution."""
    return _herald_gap(protocols.run_scheme_a(tau, eta, order),
                       protocols.scheme_a_click_distribution(tau, eta, order),
                       double_pass_source(tau, order), _A_MIXED, _A_OUTER, eta)[0]


def _marginals_gap(printed: dict, ens: WeightedEnsemble) -> float:
    """Max |printed - dense| over verify-phase's ``marginals`` block: the
    probability that each outer beam holds a photon in ``ens`` (``raw_beam3``,
    ``raw_beam4``) and each one's share of their sum (``beam3``, ``beam4``);
    ``inf`` unless both hold the same keys, with a share None on both or
    neither."""
    raw = {m: math.fsum(w * abs(a) ** 2 for w, ket in ens.members for occ, a in ket.items()
                        if occ[ens.register.index(m)])
           for m in _A_OUTER}
    total = sum(raw.values())
    dense = {**{f"raw_beam{m}": p for m, p in raw.items()},
             **{f"beam{m}": p / total if total > 0 else None for m, p in raw.items()}}
    if printed.keys() != dense.keys() or any(
            (printed[key] is None) != (p is None) for key, p in dense.items()):
        return math.inf
    return max((abs(printed[key] - p) for key, p in dense.items() if p is not None), default=0.0)


def verify_phase_verification(tau: complex, eta: float, order: int = 1) -> float:
    """Max |printed - dense| over the phase verification's two events, the
    ``joint`` D3/D4 table of each heralded one, ``p_d3``/``p_d4`` of each
    ideal psi+/psi- reference, and the ``marginals`` block.

    The dense side runs the whole chain once, BS(1, 2) then BS(3, 4) and a
    detector on each beam, and takes each heralded event's table by Bayes'
    rule, P(herald, D3/D4 outcome) / P(herald), reading no member of a
    heralded ensemble; each ideal reference, built here, goes through BS(3,
    4) and D3/D4 alone.  The ``marginals`` block, printed when event 1
    heralds, is compared with the dense event-1 ensemble.
    """
    report = protocols.run_phase_verification(tau, eta, order)
    pre = double_pass_source(tau, order)
    worst, dense = _herald_gap(report, None, pre, _A_MIXED, _A_OUTER, eta)
    chain = _dense_chain(pre, [_A_MIXED, _A_OUTER], eta)
    co = report.coincidences
    for ev, herald in zip(report.events, _HERALDS):
        if (co[ev.name] is None) != (dense[herald].ensemble is None):
            return math.inf
        if co[ev.name] is not None:
            joint = {out[2:]: o.probability for out, o in chain.items() if out[:2] == herald}
            p_herald = math.fsum(joint.values())
            worst = max(worst, _table_gap(co[ev.name]["joint"],
                                          {out: p / p_herald for out, p in joint.items()}))
    ens1 = dense[_HERALDS[0]].ensemble
    if ("marginals" in co) != (ens1 is not None):
        return math.inf
    if ens1 is not None:
        worst = max(worst, _marginals_gap(co["marginals"], ens1))
    for kind, name in (("psi+", "ideal_psi_plus"), ("psi-", "ideal_psi_minus")):
        ideal = _dense_chain(bell_state(kind, _A_OUTER, 2), [_A_OUTER], eta)
        for i, key in enumerate(("p_d3", "p_d4")):
            p = math.fsum(o.probability for out, o in ideal.items() if out[i] == CLICK)
            worst = max(worst, abs(co[name][key] - p))
    return worst


def verify_scheme_b(epsilon: float, eta: float, order: int = 1,
                    variant: str = "ubs", pair_amplitude: float = 0.0) -> float:
    """Max |printed - dense| over scheme B's report and click distribution."""
    args = (epsilon, eta, order, variant, pair_amplitude)
    return _herald_gap(protocols.run_scheme_b(*args), protocols.scheme_b_click_distribution(*args),
                       protocols.scheme_b_state(epsilon, order, variant, pair_amplitude),
                       ("2", "3"), ("1", "4"), eta)[0]
