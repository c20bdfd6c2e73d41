"""End-to-end swapping pipelines returning structured reports.

Bell "measurements" in the algebraic checks are ideal projectors; detector
based conditioning (with efficiency eta) is used exactly where the schemes
use detectors.  Every pipeline is pure given its parameters (and seed).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .detection import (
    CLICK,
    SILENT,
    ClickPattern,
    ConditionalOutcome,
    DetectorAssignment,
    ThresholdDetector,
    coincidence_table,
    marginal_click_probability,
    measure_pattern,
)
from .elements import apply_mode_unitary, balanced_bs, pbs, polarization_rotation, unbalanced_bs
from .fock import (
    BELL_KINDS,
    FockKet,
    ModeRegister,
    WeightedEnsemble,
    bell_state,
    fidelity,
    format_ket,
    inner_product,
    partial_project,
    relabel,
    reorder,
    tensor_product,
)
from .sources import (
    SpdcParams,
    double_pass_source,
    polarization_double_pass,
    theta_product,
    vacuum_one_photon_postbs,
)

BRANCH_REPORT_TOL = 1e-12


@dataclass(frozen=True)
class EventResult:
    name: str
    probability: float
    fidelity_psi_plus: float | None
    fidelity_psi_minus: float | None
    ensemble: WeightedEnsemble | None = None
    extras: dict = field(default_factory=dict)
    impossible: bool = False


@dataclass(frozen=True)
class ProtocolReport:
    scheme: str
    params: dict
    events: tuple[EventResult, ...]
    coincidences: dict | None = None
    dropped_mass: float = 0.0
    notes: tuple[str, ...] = ()

    def event(self, name: str) -> EventResult:
        for ev in self.events:
            if ev.name == name:
                return ev
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        events = []
        for ev in self.events:
            d = {
                "name": ev.name,
                "probability": ev.probability,
                "fidelity_psi_plus": ev.fidelity_psi_plus,
                "fidelity_psi_minus": ev.fidelity_psi_minus,
            }
            if ev.ensemble is not None:
                d["ensemble"] = _summarize_ensemble(ev.ensemble)[0]
            if ev.extras:
                d["extras"] = ev.extras
            if ev.impossible:
                d["impossible"] = True
            events.append(d)
        return {
            "scheme": self.scheme,
            "params": self.params,
            "events": events,
            "coincidences": self.coincidences,
            "dropped_mass": self.dropped_mass,
            "notes": list(self.notes),
        }


def _summarize_ensemble(ens: WeightedEnsemble) -> tuple[list[dict], float]:
    kept, dropped = [], 0.0
    for w, state in ens.members:
        if w < BRANCH_REPORT_TOL:
            dropped += w
        else:
            kept.append({"weight": w, "state": format_ket(state)})
    kept.sort(key=lambda d: -d["weight"])
    return kept, dropped


def _psi_fidelities(ens: WeightedEnsemble, modes: tuple[str, str]) -> tuple[float, float]:
    fp = fidelity(ens, bell_state("psi+", modes))
    fm = fidelity(ens, bell_state("psi-", modes))
    return fp, fm


# --------------------------------------------------------------------------
# Bell-basis identities (ideal projectors)
# --------------------------------------------------------------------------

def _bell_project_events(state: FockKet, inner_modes: tuple[str, str],
                         outer_modes: tuple[str, str]) -> list[EventResult]:
    events = []
    for kind in BELL_KINDS:
        proj = bell_state(kind, inner_modes)
        cond = partial_project(state, proj)
        p = cond.norm() ** 2
        if p < 1e-300:
            events.append(EventResult(kind, 0.0, None, None, impossible=True))
            continue
        ens = WeightedEnsemble.pure(cond)
        fp, fm = _psi_fidelities(ens, outer_modes)
        matched = bell_state(kind, outer_modes)
        f_match = fidelity(ens, matched)
        sign = inner_product(matched, cond.normalized()).real
        events.append(EventResult(
            kind, p, fp, fm, ensemble=ens,
            extras={
                "fidelity_matched": f_match,
                "amplitude_sign": 1.0 if sign >= 0 else -1.0,
                "fidelity_phi_plus": fidelity(ens, bell_state("phi+", outer_modes)),
                "fidelity_phi_minus": fidelity(ens, bell_state("phi-", outer_modes)),
            },
        ))
    return events


def bell_decomposition_check() -> ProtocolReport:
    """Project psi- x psi- on the inner pair; four equal Bell outcomes."""
    state = reorder(
        _tensor_bells("psi-", ("1", "2"), "psi-", ("3", "4")), ("1", "2", "3", "4")
    )
    events = _bell_project_events(state, ("2", "3"), ("1", "4"))
    return ProtocolReport("bell-check", {}, tuple(events))


def _tensor_bells(kind_a, modes_a, kind_b, modes_b) -> FockKet:
    return tensor_product(bell_state(kind_a, modes_a), bell_state(kind_b, modes_b))


def run_theta_swapping(theta: float) -> ProtocolReport:
    """Bell-project the inner pair of two non-maximal (theta) pair states.

    Probabilities come from the normalized four-mode state itself; a printed
    constant-prefactor form of this decomposition found elsewhere is not
    normalization-consistent and is not reproduced.
    """
    state = theta_product(theta)
    events = _bell_project_events(state, ("2", "3"), ("1", "4"))
    return ProtocolReport(
        "theta", {"theta": theta}, tuple(events),
        notes=("outcome probabilities computed from the normalized state",),
    )


# --------------------------------------------------------------------------
# Scheme A: double-pass SPDC + balanced beam splitter on the inner beams
# --------------------------------------------------------------------------

def _scheme_a_conditionals(tau: complex, eta: float, order: int):
    p = SpdcParams(tau, order)
    src = reorder(double_pass_source(p), ("1", "2", "3", "4"))
    st = apply_mode_unitary(src, balanced_bs(), ("1", "2"))
    det = ThresholdDetector(eta)

    def pattern(click_mode, silent_mode):
        return ClickPattern((
            DetectorAssignment("D1" if click_mode == "1" else "D2",
                               (click_mode,), det, CLICK),
            DetectorAssignment("D2" if silent_mode == "2" else "D1",
                               (silent_mode,), det, SILENT),
        ))

    ev1 = measure_pattern(st, pattern("1", "2"))
    ev2 = measure_pattern(st, pattern("2", "1"))
    return st, ev1, ev2


def _event_from_outcome(name: str, out: ConditionalOutcome,
                        outer_modes: tuple[str, str]) -> EventResult:
    if out.impossible or out.ensemble is None:
        return EventResult(name, out.probability, None, None, impossible=True)
    fp, fm = _psi_fidelities(out.ensemble, outer_modes)
    favored = "psi+" if fp >= fm else "psi-"
    return EventResult(name, out.probability, fp, fm, ensemble=out.ensemble,
                       extras={"favored": favored, "fidelity_favored": max(fp, fm)})


def run_scheme_a(tau: complex, eta: float, order: int = 1) -> ProtocolReport:
    """Double-pass scheme: events {D1 click, D2 silent} and {D2 click, D1 silent}.

    The event-to-Bell-state mapping is computed from the state, not assumed;
    the favored target of each event is reported in its extras.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    _, out1, out2 = _scheme_a_conditionals(tau, eta, order)
    events = (
        _event_from_outcome("event1", out1, ("3", "4")),
        _event_from_outcome("event2", out2, ("3", "4")),
    )
    dropped = 0.0
    for ev in events:
        if ev.ensemble is not None:
            dropped += _summarize_ensemble(ev.ensemble)[1]
    return ProtocolReport(
        "scheme-a",
        {"tau": _num(tau), "tau2": abs(tau) ** 2, "eta": eta, "order": order},
        events, dropped_mass=dropped,
    )


def _num(x):
    x = complex(x)
    return x.real if x.imag == 0.0 else {"re": x.real, "im": x.imag}


# --------------------------------------------------------------------------
# Phase verification: second beam splitter on the outer beams
# --------------------------------------------------------------------------

def _verification_table(state: FockKet, eta: float) -> dict:
    post = apply_mode_unitary(state, balanced_bs(), ("3", "4"))
    table = coincidence_table(post, [("D3", ("3",)), ("D4", ("4",))], eta)
    return table


def _ensemble_verification(ens: WeightedEnsemble, eta: float) -> dict:
    joint: dict[tuple[str, str], float] = {}
    for w, member in ens.members:
        table = _verification_table(member, eta)
        for out, p in table.items():
            joint[out] = joint.get(out, 0.0) + w * p
    return joint


def _occupied_probability(ens: WeightedEnsemble, mode: str) -> float:
    idx = ens.register.index(mode)
    total = 0.0
    for w, member in ens.members:
        total += w * sum(abs(a) ** 2 for occ, a in member.items() if occ[idx] >= 1)
    return total


def _joint_json(joint: Mapping[tuple[str, ...], float]) -> dict:
    return {",".join(out): p for out, p in sorted(joint.items())}


def run_phase_verification(tau: complex, eta: float, order: int = 1) -> ProtocolReport:
    """Fig.-3B-style verification: route the swapped pair through a second
    balanced beam splitter and record D3/D4 coincidences.

    Reports both the full-scheme conditionals (after events 1/2, including
    the pair-emission contamination) and the ideal psi+/psi- reference.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    _, out1, out2 = _scheme_a_conditionals(tau, eta, order)
    events = (
        _event_from_outcome("event1", out1, ("3", "4")),
        _event_from_outcome("event2", out2, ("3", "4")),
    )

    coincidences: dict = {}
    for name, out in (("event1", out1), ("event2", out2)):
        if out.ensemble is None:
            coincidences[name] = None
            continue
        joint = _ensemble_verification(out.ensemble, eta)
        coincidences[name] = {
            "p_d3": sum(p for o, p in joint.items() if o[0] == CLICK),
            "p_d4": sum(p for o, p in joint.items() if o[1] == CLICK),
            "joint": _joint_json(joint),
        }
    for kind in ("psi+", "psi-"):
        ideal = bell_state(kind, ("3", "4"), cutoff=2)
        table = _verification_table(ideal, eta)
        coincidences[f"ideal_{'psi_plus' if kind == 'psi+' else 'psi_minus'}"] = {
            "p_d3": marginal_click_probability(table, 0),
            "p_d4": marginal_click_probability(table, 1),
        }
    if out1.ensemble is not None:
        p3 = _occupied_probability(out1.ensemble, "3")
        p4 = _occupied_probability(out1.ensemble, "4")
        s = p3 + p4
        coincidences["marginals"] = {
            "beam3": p3 / s if s > 0 else None,
            "beam4": p4 / s if s > 0 else None,
            "raw_beam3": p3,
            "raw_beam4": p4,
        }
    return ProtocolReport(
        "verify-phase",
        {"tau": _num(tau), "tau2": abs(tau) ** 2, "eta": eta, "order": order},
        events, coincidences=coincidences,
    )


# --------------------------------------------------------------------------
# Scheme B: single-pass pair through unbalanced beam splitters (or PBS)
# --------------------------------------------------------------------------

def _pair_terms(order: int, pair_amplitude: float):
    # emission truncation above one pair needs an explicit amplitude ratio;
    # with pair_amplitude = 0 only the single-pair term survives
    if order < 1:
        raise ValueError("order must be >= 1")
    if not math.isfinite(pair_amplitude):
        raise ValueError(f"pair amplitude must be finite, got {pair_amplitude}")
    amps = {1: 1.0}
    try:
        for n in range(2, order + 1):
            amps[n] = pair_amplitude ** (n - 1)
    except OverflowError:
        raise ValueError(f"pair amplitude {pair_amplitude} overflows at order {order}") from None
    return amps


def scheme_b_state(epsilon: float, order: int = 1, variant: str = "ubs",
                   pair_amplitude: float = 0.0) -> FockKet:
    """Four-mode state on beams (1,2,3,4) just before the balanced beam splitter."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    if variant not in ("ubs", "pbs"):
        raise ValueError(f"unknown variant {variant!r}")
    amps = _pair_terms(order, pair_amplitude)
    cutoff = max(2, order)
    if variant == "ubs":
        reg = ModeRegister(("1", "2", "3", "4"), cutoff)
        src = FockKet(reg, {(n, 0, 0, n): a for n, a in amps.items()}).normalized()
        st = apply_mode_unitary(src, unbalanced_bs(epsilon), ("1", "2"))
        st = apply_mode_unitary(st, unbalanced_bs(epsilon), ("4", "3"))
        return st
    reg = ModeRegister(("uH", "uV", "lH", "lV"), cutoff)
    src = FockKet(reg, {(n, 0, n, 0): a for n, a in amps.items()}).normalized()
    rot = polarization_rotation(epsilon)
    st = apply_mode_unitary(src, rot, ("uH", "uV"))
    st = apply_mode_unitary(st, rot, ("lH", "lV"))
    routing = {}
    routing.update(pbs(("uH", "uV"), ("1", "2")))
    routing.update(pbs(("lH", "lV"), ("4", "3")))
    return reorder(relabel(st, routing), ("1", "2", "3", "4"))


def run_scheme_b(epsilon: float, eta: float, order: int = 1, variant: str = "ubs",
                 pair_amplitude: float = 0.0) -> ProtocolReport:
    """Single-pass scheme: D2/D3 threshold detection after mixing beams 2, 3."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    st = scheme_b_state(epsilon, order, variant, pair_amplitude)
    st = apply_mode_unitary(st, balanced_bs(), ("2", "3"))
    det = ThresholdDetector(eta)
    out_d2 = measure_pattern(st, ClickPattern((
        DetectorAssignment("D2", ("2",), det, CLICK),
        DetectorAssignment("D3", ("3",), det, SILENT),
    )))
    out_d3 = measure_pattern(st, ClickPattern((
        DetectorAssignment("D3", ("3",), det, CLICK),
        DetectorAssignment("D2", ("2",), det, SILENT),
    )))
    events = (
        _event_from_outcome("d2_click", out_d2, ("1", "4")),
        _event_from_outcome("d3_click", out_d3, ("1", "4")),
    )
    return ProtocolReport(
        "scheme-b",
        {"epsilon": epsilon, "eta": eta, "order": order, "variant": variant},
        events,
    )


# --------------------------------------------------------------------------
# Post-selection analyses of the earlier experimental set-ups
# --------------------------------------------------------------------------

_POL_OUTER = ("1H", "1V", "4H", "4V")


def _pol_bell(kind: str) -> FockKet:
    # polarization Bell states of beams 1, 4 on register (1H, 1V, 4H, 4V)
    reg = ModeRegister(_POL_OUTER, 2)
    r = 1.0 / math.sqrt(2.0)
    s = 1.0 if kind.endswith("+") else -1.0
    if kind.startswith("psi"):
        return FockKet(reg, {(1, 0, 0, 1): r, (0, 1, 1, 0): s * r})
    return FockKet(reg, {(1, 0, 1, 0): r, (0, 1, 0, 1): s * r})


def _empty_beam_weight(ens: WeightedEnsemble, beams: Sequence[tuple[str, ...]]) -> float:
    """Probability that at least one of the given beams holds zero photons."""
    idx = [[ens.register.index(m) for m in beam] for beam in beams]
    total = 0.0
    for w, member in ens.members:
        for occ, a in member.items():
            if any(all(occ[i] == 0 for i in beam) for beam in idx):
                total += w * abs(a) ** 2
    return total


def analyze_polarization_postselection(eta: float, include_double_pairs: bool = True,
                                       double_pair_weight: float = 1.0) -> ProtocolReport:
    """Polarization-space swapping with the double-pass source.

    Bell-measurement optics: beams 2 and 3 interfere on a balanced beam
    splitter acting per polarization, modes (2H,3H) and (2V,3V); the analysis
    conditions on the minimal D2-and-D3 coincidence, one threshold detector
    per output beam covering both of its polarization modes.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    src = polarization_double_pass(include_double_pairs, double_pair_weight)
    st = apply_mode_unitary(src, balanced_bs(), ("2H", "3H"))
    st = apply_mode_unitary(st, balanced_bs(), ("2V", "3V"))
    det = ThresholdDetector(eta)
    out = measure_pattern(st, ClickPattern((
        DetectorAssignment("D2", ("2H", "2V"), det, CLICK),
        DetectorAssignment("D3", ("3H", "3V"), det, CLICK),
    )))
    params = {
        "eta": eta,
        "include_double_pairs": include_double_pairs,
        "double_pair_weight": double_pair_weight,
    }
    if out.impossible or out.ensemble is None:
        ev = EventResult("d2_and_d3", 0.0, None, None, impossible=True)
        return ProtocolReport("postselect-pol", params, (ev,),
                              notes=("conditioning impossible at this eta",))
    ens = out.ensemble
    fids = {k: fidelity(ens, _pol_bell(k)) for k in BELL_KINDS}
    best = max(fids, key=fids.get)
    empty = _empty_beam_weight(ens, [("1H", "1V"), ("4H", "4V")])
    ev = EventResult(
        "d2_and_d3", out.probability, fids["psi+"], fids["psi-"], ensemble=ens,
        extras={
            "fidelity_phi_plus": fids["phi+"],
            "fidelity_phi_minus": fids["phi-"],
            "swapped_target": best,
            "fidelity_swapped_target": fids[best],
            "empty_beam_weight": empty,
        },
    )
    return ProtocolReport("postselect-pol", params, (ev,))


def analyze_vacuum_one_photon(eta: float) -> ProtocolReport:
    """Vacuum/one-photon swapping conditioned on a single threshold click at 2'."""
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta must be in [0, 1], got {eta}")
    st = vacuum_one_photon_postbs()
    det = ThresholdDetector(eta)
    out = measure_pattern(st, ClickPattern((
        DetectorAssignment("D", ("2'",), det, CLICK),
    )))
    params = {"eta": eta}
    if out.impossible or out.ensemble is None:
        ev = EventResult("d2prime_click", 0.0, None, None, impossible=True)
        return ProtocolReport("postselect-vac", params, (ev,),
                              notes=("conditioning impossible at this eta",))
    ens = out.ensemble
    reg = ens.register  # ("3'", "1", "4")
    r = 1.0 / math.sqrt(2.0)
    psi_p = FockKet(reg, {(0, 0, 1): r, (0, 1, 0): r})
    psi_m = FockKet(reg, {(0, 0, 1): r, (0, 1, 0): -r})
    vac_weight = _empty_beam_weight(ens, [("1", "4")])
    ev = EventResult(
        "d2prime_click", out.probability,
        fidelity(ens, psi_p), fidelity(ens, psi_m), ensemble=ens,
        extras={"vacuum_weight": vac_weight},
    )
    return ProtocolReport("postselect-vac", params, (ev,))


# --------------------------------------------------------------------------
# Synthetic sampling
# --------------------------------------------------------------------------

def scheme_a_click_distribution(tau: complex, eta: float, order: int = 1) -> dict:
    """Joint D1/D2 outcome distribution for scheme A (keys "click,silent" etc.)."""
    st, _, _ = _scheme_a_conditionals(tau, eta, order)
    table = coincidence_table(st, [("D1", ("1",)), ("D2", ("2",))], eta)
    return _joint_json(table)


def scheme_b_click_distribution(epsilon: float, eta: float, order: int = 1,
                                variant: str = "ubs", pair_amplitude: float = 0.0) -> dict:
    """Joint D2/D3 outcome distribution for scheme B."""
    st = scheme_b_state(epsilon, order, variant, pair_amplitude)
    st = apply_mode_unitary(st, balanced_bs(), ("2", "3"))
    table = coincidence_table(st, [("D2", ("2",)), ("D3", ("3",))], eta)
    return _joint_json(table)

def sample_run(distribution: Mapping, shots: int, seed: int) -> dict:
    """Multinomial click-count table from an exact pattern distribution.

    Deterministic for a fixed seed; keys keep the distribution's patterns.
    """
    if shots < 1:
        raise ValueError(f"shots must be >= 1, got {shots}")
    keys = sorted(distribution)
    probs = np.array([distribution[k] for k in keys], dtype=float)
    if np.any(probs < -1e-12):
        raise ValueError("negative probability in distribution")
    probs = np.clip(probs, 0.0, None)
    probs /= probs.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs)
    return {k: int(c) for k, c in zip(keys, counts)}
