"""End-to-end swapping pipelines returning structured reports.

Bell "measurements" in the algebraic checks are ideal projectors; detector
based conditioning (with efficiency eta) is used exactly where the schemes
use detectors.  Every pipeline is pure given its parameters (and seed).

Every report builds its events with ``_event``, the one place a fidelity
is computed.  Schemes A and B, each described once (``_SCHEME_A``,
``_SCHEME_B``), herald the same way: a balanced beam splitter on two
beams and one threshold detector on each output, one call of
``detection`` that never builds the mixed ket.  A report takes the two
heralded outcomes, ensembles included, from ``detection.measure``; the
click distributions read the probabilities of all four from
``coincidence_table``'s totals and build no ensemble.  A branch that both
heralded events share is one object, and its work is done once per
report: its fidelity overlaps, its ``format_ket`` text, and its pass
through the phase verification's second beam splitter.  Those
coincidence tables come from one call, ``_phase_tables``: both heralded
ensembles and the ideal psi+/psi- references, all on beams (3, 4), go to
``detection.mixture_tables``, which sums each table over its own members,
skipping a member too light to change any bit of it, and sends a ket
through the beam splitter only when some table first needs it.

Every ket that depends on no argument is a module constant, built once,
at import: psi+/psi- on each heralded scheme's outer beams (its
``targets``), the Bell targets and projectors of the decomposition
identity, bell-check's psi- x psi- input, the phase references, the
polarization Bell targets, and postselect-vac's source and targets.  They
sit in tuples or read-only mappings; the kets themselves are shared by
every call, and no report changes them.  The public ``fock.bell_state``
and ``sources.vacuum_one_photon_postbs`` still build a new ket per call,
since a caller may change the terms of a ket they return.  ``_targets``
checks each fidelity target's normalization once, where its constant is
built, and takes there the register labels the targets share and their
support (every occupation any of them holds).  It keeps a copy of the
kets it is given, so a later edit of the caller's dict cannot make them
stale.  Per event, ``_event`` compares the ensemble's labels with the
targets' once.

Scheme B's two optical forms are one chain.  The PBS form rotates the
polarization of each beam of an H-polarized pair, then its polarizing
beam splitters route H and V to different beams.  Each rotation acts only
on occupations (n, 0), where only its first column counts, and that
column is the unbalanced beam splitter's, bit for bit; a PBS only renames
modes.  So ``scheme_b_state`` sends ``sources.single_pass_source``
through the unbalanced-beam-splitter chain for either variant, and a test
builds the literal PBS chain from ``elements.polarization_rotation`` and
``elements.pbs`` to check it.  Every source ket comes from ``sources``;
this module builds none.

No report checks ``eta`` itself: each one reaches ``detection.measure``,
whose ``ThresholdDetector`` is the one check.  An event is ``impossible``
when it has no conditional ensemble, which is exactly when its outcome has
probability 0.
"""
from __future__ import annotations

import math
from operator import itemgetter
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence

from .detection import CLICK, SILENT, coincidence_table, measure, mixture_tables
from .elements import apply_mode_unitary, balanced_bs, unbalanced_bs
from .fock import (
    BELL_KINDS,
    FockKet,
    ModeRegister,
    WeightedEnsemble,
    _Record,
    _left_sum,
    bell_state,
    format_ket,
    inner_product,
    partial_project,
    tensor_product,
    vacuum,
)
from .sources import (
    double_pass_source,
    polarization_double_pass,
    single_pass_source,
    theta_product,
    vacuum_one_photon_postbs,
)

BRANCH_REPORT_TOL = 1e-12


class EventResult(_Record):
    __slots__ = _fields = ("name", "probability", "fidelity_psi_plus", "fidelity_psi_minus",
                           "ensemble", "extras")

    def __init__(self, name: str, probability: float, fidelity_psi_plus: float | None,
                 fidelity_psi_minus: float | None, ensemble: WeightedEnsemble | None = None,
                 extras: dict | None = None):
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "probability", probability)
        object.__setattr__(self, "fidelity_psi_plus", fidelity_psi_plus)
        object.__setattr__(self, "fidelity_psi_minus", fidelity_psi_minus)
        object.__setattr__(self, "ensemble", ensemble)
        object.__setattr__(self, "extras", {} if extras is None else extras)

    @property
    def impossible(self) -> bool:
        return self.ensemble is None


class ProtocolReport(_Record):
    __slots__ = _fields = ("scheme", "params", "events", "coincidences", "dropped_mass",
                           "notes")

    def __init__(self, scheme: str, params: dict, events: tuple[EventResult, ...],
                 coincidences: dict | None = None, dropped_mass: float = 0.0,
                 notes: tuple[str, ...] = ()):
        object.__setattr__(self, "scheme", scheme)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "coincidences", coincidences)
        object.__setattr__(self, "dropped_mass", dropped_mass)
        object.__setattr__(self, "notes", notes)

    def event(self, name: str) -> EventResult:
        for ev in self.events:
            if ev.name == name:
                return ev
        raise KeyError(name)

    def to_json_dict(self) -> dict:
        events, texts = [], {}
        for ev in self.events:
            d = {
                "name": ev.name,
                "probability": ev.probability,
                "fidelity_psi_plus": ev.fidelity_psi_plus,
                "fidelity_psi_minus": ev.fidelity_psi_minus,
            }
            if ev.ensemble is not None:
                d["ensemble"] = _summarize_ensemble(ev.ensemble, texts)
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


def _summarize_ensemble(ens: WeightedEnsemble, texts: dict) -> list[dict]:
    # the members of weight at least BRANCH_REPORT_TOL, heaviest first, equal
    # weights in member order (a reversed sort is stable too); texts:
    # format_ket of each member by identity, shared by a report's events
    kept = sorted([m for m in ens.members if m[0] >= BRANCH_REPORT_TOL],
                  key=itemgetter(0), reverse=True)
    return [{"weight": w, "state": texts.get(id(s)) or texts.setdefault(id(s), format_ket(s))}
            for w, s in kept]


def _event(name: str, probability: float, ensemble: WeightedEnsemble | None,
           targets: _Targets, extras: Callable[[dict], dict],
           overlaps: dict | None = None) -> EventResult:
    """One report row: the fidelity of ``ensemble`` with each of ``targets``
    (kind -> ket, psi+ and psi- among them), psi+ and psi- in the columns
    and ``extras(fidelities)`` beside them.  Without an ensemble the event
    is impossible and has no fidelities.

    A fidelity is ``fock.fidelity``'s sum, bit for bit, of weighted
    overlaps |<t|s>|**2, which ``overlaps`` keeps by target, then member,
    identity: the events of a report that share it read a shared member
    once.  Each overlap is ``abs(fock.inner_product(t, s)) ** 2``.  A member
    that has no occupation in the targets' support, found once per event,
    is not read: its overlaps are exactly 0.0, and adding ``w * 0.0`` to a
    total, which starts at 0.0, changes no bit.

    ``targets`` come from ``_targets``, which checked each one's
    normalization, and took their shared register labels and their support,
    once, where the constant was built; per event the ensemble's labels are
    compared with the targets' once."""
    if ensemble is None:
        return EventResult(name, probability, None, None)
    if ensemble.register.labels != targets.labels:
        raise ValueError("register mismatch between ensemble and target")
    overlaps = {} if overlaps is None else overlaps
    support = targets.support
    members = [m for m in ensemble.members if not m[1].terms.keys().isdisjoint(support)]
    fids = {}
    for kind, t in targets.kets.items():
        read = overlaps.get(id(t))
        if read is None:
            read = overlaps[id(t)] = {}
        total = 0.0
        for w, s in members:
            o = read.get(id(s))
            if o is None:
                o = read[id(s)] = abs(inner_product(t, s)) ** 2
            total += w * o
        fids[kind] = total
    return EventResult(name, probability, fids["psi+"], fids["psi-"], ensemble=ensemble,
                       extras=extras(fids))


class _Targets(NamedTuple):
    """A set of fidelity targets, built by ``_targets``: ``kets`` (kind ->
    ket) as a read-only mapping, the register labels they share, and their
    ``support``, every occupation any of them holds."""
    kets: Mapping[str, FockKet]
    labels: tuple[str, ...]
    support: frozenset


def _targets(kets: Mapping[str, FockKet]) -> _Targets:
    """A copy of ``kets`` (kind -> ket), once each ket is checked to be
    normalized and all are checked to share their register labels: every
    fidelity target, and the Bell projectors built with them, pass here.
    The copy is read-only and later edits of ``kets`` do not reach it, so
    the labels and support taken here stay those of its kets."""
    kets = dict(kets)
    for t in kets.values():
        if abs(t.norm() - 1.0) > 1e-9:
            raise ValueError("fidelity target must be normalized")
    labels = {t.register.labels for t in kets.values()}
    if len(labels) != 1:
        raise ValueError("fidelity targets must share one register's labels")
    support = frozenset(occ for t in kets.values() for occ in t.terms)
    return _Targets(MappingProxyType(kets), labels.pop(), support)


def _bell_targets(modes: tuple[str, str],
                  kinds: Sequence[str] = BELL_KINDS) -> _Targets:
    """``bell_state(kind, modes)`` for each of ``kinds``, through ``_targets``."""
    return _targets({k: bell_state(k, modes) for k in kinds})


_PSI = ("psi+", "psi-")


# --------------------------------------------------------------------------
# Bell-basis identities (ideal projectors)
# --------------------------------------------------------------------------

# the Bell targets on the outer beams (1, 4) and the projectors on the inner (2, 3)
_BELL_OUTER = _bell_targets(("1", "4"))
_BELL_INNER = _bell_targets(("2", "3"))
# bell-check's input: psi- on beams 1, 2 times psi- on beams 3, 4
_SINGLET_PAIRS = tensor_product(bell_state("psi-", ("1", "2")), bell_state("psi-", ("3", "4")))


def _bell_project_events(state: FockKet) -> tuple[EventResult, ...]:
    events = []
    for kind in BELL_KINDS:
        cond = partial_project(state, _BELL_INNER.kets[kind])
        p = cond.norm() ** 2
        ens = WeightedEnsemble.pure(cond) if p >= 1e-300 else None
        events.append(_event(kind, p if ens is not None else 0.0, ens, _BELL_OUTER, lambda fids: {
            "fidelity_matched": fids[kind],
            "amplitude_sign":
                1.0 if inner_product(_BELL_OUTER.kets[kind], ens.members[0][1]).real >= 0
                else -1.0,
            "fidelity_phi_plus": fids["phi+"],
            "fidelity_phi_minus": fids["phi-"],
        }))
    return tuple(events)


def bell_decomposition_check() -> ProtocolReport:
    """Project psi- x psi- on the inner pair; four equal Bell outcomes."""
    events = _bell_project_events(_SINGLET_PAIRS)
    return ProtocolReport("bell-check", {}, events)


def run_theta_swapping(theta: float) -> ProtocolReport:
    """Bell-project the inner pair of two non-maximal (theta) pair states.

    Probabilities come from the normalized four-mode state itself; a printed
    constant-prefactor form of this decomposition found elsewhere is not
    normalization-consistent and is not reproduced.
    """
    state = theta_product(theta)
    events = _bell_project_events(state)
    return ProtocolReport(
        "theta", {"theta": theta}, events,
        notes=("outcome probabilities computed from the normalized state",),
    )


# --------------------------------------------------------------------------
# Scheme A: double-pass SPDC + balanced beam splitter on the inner beams
# --------------------------------------------------------------------------

class _Heralded(NamedTuple):
    """A scheme that heralds by mixing two beams on a balanced beam
    splitter, with one threshold detector on each output: its
    ``detectors``, one per mixed beam, in the order the beam splitter takes
    them; the names of its two events, ``_HERALDS``: the detector on the
    first mixed beam clicks alone, then the one on the second; and its
    fidelity targets, psi+ and psi- on the two outer beams that carry the
    swapped pair (their ``labels``), checked once by ``_targets``."""
    detectors: tuple[tuple[str], tuple[str]]
    events: tuple[str, str]
    targets: _Targets


_SCHEME_A = _Heralded((("1",), ("2",)), ("event1", "event2"), _bell_targets(("3", "4"), _PSI))
_SCHEME_B = _Heralded((("2",), ("3",)), ("d2_click", "d3_click"),
                      _bell_targets(("1", "4"), _PSI))
_HERALDS = ((CLICK, SILENT), (SILENT, CLICK))


def _favored(fids: dict) -> dict:
    fp, fm = fids["psi+"], fids["psi-"]
    return {"favored": "psi+" if fp >= fm else "psi-", "fidelity_favored": max(fp, fm)}


def _heralded_events(pre: FockKet, scheme: _Heralded, eta: float) -> tuple[EventResult, ...]:
    """The two heralded events of ``scheme``, each with its fidelity to
    psi+ and psi- on the outer beams and the one it favors.  Only the two
    heralded outcomes are measured."""
    measured = measure(pre, scheme.detectors, eta, balanced_bs(), _HERALDS)
    outcomes = (measured[out] for out in _HERALDS)
    overlaps: dict = {}
    return tuple(_event(name, o.probability, o.ensemble, scheme.targets, _favored, overlaps)
                 for name, o in zip(scheme.events, outcomes))


def _click_distribution(pre: FockKet, scheme: _Heralded, eta: float) -> dict:
    """Every outcome of ``scheme``'s two detectors (keys "click,silent" etc.)."""
    table = coincidence_table(pre, scheme.detectors, eta, balanced_bs())
    return _joint_json({out: total for out, (total, _) in table.items()})


def run_scheme_a(tau: complex, eta: float, order: int = 1) -> ProtocolReport:
    """Double-pass scheme: events {D1 click, D2 silent} and {D2 click, D1 silent}.

    The event-to-Bell-state mapping is computed from the state, not assumed;
    the favored target of each event is reported in its extras.
    """
    events = _heralded_events(double_pass_source(tau, order), _SCHEME_A, eta)
    # the weight _summarize_ensemble leaves out, one subtotal per event
    dropped = 0.0
    for ev in events:
        if ev.ensemble is not None:
            dropped += _left_sum([w for w, _ in ev.ensemble.members if w < BRANCH_REPORT_TOL])
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

# the ideal psi+ and psi- on beams 3, 4 that the phase verification's
# coincidences are compared with, in the order their tables come
_PHASE_REFERENCES = tuple(bell_state(kind, _SCHEME_A.targets.labels, 2) for kind in _PSI)


def _phase_tables(ensembles: Sequence[WeightedEnsemble], eta: float) -> list[dict]:
    """D3/D4 outcome probabilities after the second balanced beam splitter
    on beams 3 and 4 (``detection.mixture_tables``): one table per heralded
    ensemble, then one per ``_PHASE_REFERENCES`` ket."""
    mixtures = ([ens.members for ens in ensembles]
                + [((1.0, ket),) for ket in _PHASE_REFERENCES])
    return mixture_tables(mixtures, balanced_bs(), eta)


def _click_marginals(joint: Mapping[tuple[str, str], float]) -> dict:
    return {
        "p_d3": _left_sum(p for o, p in joint.items() if o[0] == CLICK),
        "p_d4": _left_sum(p for o, p in joint.items() if o[1] == CLICK),
    }


def _occupied_probabilities(ens: WeightedEnsemble, modes: tuple[str, str]) -> tuple[float, float]:
    """The probability that each of two modes holds a photon, in one pass
    over the members: each total is ``total += w * s`` from 0.0, with ``s``
    the member's |amp|**2 summed over its occupied terms in term order from
    0, which is ``fock._left_sum``'s float order."""
    i, j = (ens.register.index(m) for m in modes)
    p_i = p_j = 0.0
    for w, member in ens.members:
        s_i = s_j = 0
        for occ, a in member.terms.items():
            q = abs(a) ** 2
            if occ[i]:
                s_i += q
            if occ[j]:
                s_j += q
        p_i += w * s_i
        p_j += w * s_j
    return p_i, p_j


def _joint_json(joint: Mapping[tuple[str, ...], float]) -> dict:
    return {",".join(out): p for out, p in sorted(joint.items())}


def run_phase_verification(tau: complex, eta: float, order: int = 1) -> ProtocolReport:
    """Fig.-3B-style verification: route the swapped pair through a second
    balanced beam splitter and record D3/D4 coincidences.

    Reports both the full-scheme conditionals (after events 1/2, including
    the pair-emission contamination) and the ideal psi+/psi- reference.
    """
    events = _heralded_events(double_pass_source(tau, order), _SCHEME_A, eta)

    heralded = [ev for ev in events if ev.ensemble is not None]
    *joints, ideal_plus, ideal_minus = _phase_tables([ev.ensemble for ev in heralded], eta)
    coincidences: dict = {ev.name: None for ev in events}
    for ev, joint in zip(heralded, joints):
        coincidences[ev.name] = {**_click_marginals(joint), "joint": _joint_json(joint)}
    coincidences["ideal_psi_plus"] = _click_marginals(ideal_plus)
    coincidences["ideal_psi_minus"] = _click_marginals(ideal_minus)
    ens1 = events[0].ensemble
    if ens1 is not None:
        p3, p4 = _occupied_probabilities(ens1, ("3", "4"))
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

def scheme_b_state(epsilon: float, order: int = 1, variant: str = "ubs",
                   pair_amplitude: float = 0.0) -> FockKet:
    """Four-mode state on beams (1,2,3,4) just before the balanced beam splitter.

    The pairs of ``sources.single_pass_source`` (n, 0, 0, n) go through
    UBS(1, 2) and UBS(4, 3).  The ``"pbs"`` variant (polarization
    rotations, then a PBS on each beam) gives this ket bit for bit, so both
    variants build it (module docstring); ``variant`` is validated and
    reported, and ``unbalanced_bs`` checks ``epsilon``, first."""
    ubs = unbalanced_bs(epsilon)
    if variant not in ("ubs", "pbs"):
        raise ValueError(f"unknown variant {variant!r}")
    src = single_pass_source(order, pair_amplitude)
    st = apply_mode_unitary(src, ubs, ("1", "2"))
    return apply_mode_unitary(st, ubs, ("4", "3"))


def run_scheme_b(epsilon: float, eta: float, order: int = 1, variant: str = "ubs",
                 pair_amplitude: float = 0.0) -> ProtocolReport:
    """Single-pass scheme: D2/D3 threshold detection after mixing beams 2, 3."""
    events = _heralded_events(scheme_b_state(epsilon, order, variant, pair_amplitude),
                              _SCHEME_B, eta)
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
    reg = ModeRegister._derived(_POL_OUTER, 2)
    r = 1.0 / math.sqrt(2.0)
    s = 1.0 if kind.endswith("+") else -1.0
    if kind.startswith("psi"):
        return FockKet(reg, {(1, 0, 0, 1): r, (0, 1, 1, 0): s * r})
    return FockKet(reg, {(1, 0, 1, 0): r, (0, 1, 0, 1): s * r})


_POL_TARGETS = _targets({k: _pol_bell(k) for k in BELL_KINDS})


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
    src = polarization_double_pass(include_double_pairs, double_pair_weight)
    st = apply_mode_unitary(src, balanced_bs(), ("2H", "3H"))
    st = apply_mode_unitary(st, balanced_bs(), ("2V", "3V"))
    out = measure(st, [("2H", "2V"), ("3H", "3V")], eta, outcomes=[(CLICK, CLICK)])[(CLICK, CLICK)]
    params = {
        "eta": eta,
        "include_double_pairs": include_double_pairs,
        "double_pair_weight": double_pair_weight,
    }

    def extras(fids):
        best = max(fids, key=fids.get)
        return {
            "fidelity_phi_plus": fids["phi+"],
            "fidelity_phi_minus": fids["phi-"],
            "swapped_target": best,
            "fidelity_swapped_target": fids[best],
            "empty_beam_weight": _empty_beam_weight(out.ensemble, [("1H", "1V"), ("4H", "4V")]),
        }

    ev = _event("d2_and_d3", out.probability, out.ensemble, _POL_TARGETS, extras)
    notes = ("conditioning impossible at this eta",) if ev.impossible else ()
    return ProtocolReport("postselect-pol", params, (ev,), notes=notes)


# postselect-vac's state and the psi+/psi- targets of its heralded register
# (3', 1, 4): 3' empty, the psi pair on 1, 4
_VAC_SOURCE = vacuum_one_photon_postbs()
_VAC_TARGETS = _targets({k: tensor_product(vacuum(ModeRegister._derived(("3'",), 1)),
                                            bell_state(k, ("1", "4"))) for k in _PSI})


def analyze_vacuum_one_photon(eta: float) -> ProtocolReport:
    """Vacuum/one-photon swapping conditioned on a single threshold click at 2'."""
    out = measure(_VAC_SOURCE, [("2'",)], eta, outcomes=[(CLICK,)])[(CLICK,)]
    ev = _event("d2prime_click", out.probability, out.ensemble, _VAC_TARGETS,
                lambda fids: {"vacuum_weight": _empty_beam_weight(out.ensemble, [("1", "4")])})
    notes = ("conditioning impossible at this eta",) if ev.impossible else ()
    return ProtocolReport("postselect-vac", {"eta": eta}, (ev,), notes=notes)


# --------------------------------------------------------------------------
# Synthetic sampling
# --------------------------------------------------------------------------

def scheme_a_click_distribution(tau: complex, eta: float, order: int = 1) -> dict:
    """Joint D1/D2 outcome distribution for scheme A (keys "click,silent" etc.)."""
    return _click_distribution(double_pass_source(tau, order), _SCHEME_A, eta)


def scheme_b_click_distribution(epsilon: float, eta: float, order: int = 1,
                                variant: str = "ubs", pair_amplitude: float = 0.0) -> dict:
    """Joint D2/D3 outcome distribution for scheme B."""
    return _click_distribution(scheme_b_state(epsilon, order, variant, pair_amplitude),
                               _SCHEME_B, eta)


def sample_run(distribution: Mapping, shots: int, seed: int) -> dict:
    """Multinomial click-count table from an exact pattern distribution.

    Deterministic for a fixed seed; keys keep the distribution's patterns.
    The counts are those of numpy's ``default_rng(seed).multinomial`` on
    the normalized probabilities, drawn without numpy by the port in
    ``multinomial``.  numpy draws them as int64, and ``shots`` keeps that
    range, 1 to 2**63 - 1.
    """
    from . import multinomial  # only sampling needs it; a plain run never compiles it

    if not 1 <= shots <= 2**63 - 1:
        raise ValueError(f"shots must be in [1, 2**63 - 1], got {shots}")
    keys = sorted(distribution)
    probs = [float(distribution[k]) for k in keys]
    if any(p < -1e-12 for p in probs):
        raise ValueError("negative probability in distribution")
    probs = [0.0 if p < 0.0 else p for p in probs]
    total = multinomial.pairwise_sum(probs)
    # numpy divides 0.0 by 0.0 into nan, which its multinomial rejects
    probs = [p / total if total else math.nan for p in probs]
    counts = multinomial.multinomial(int(shots), probs, seed)
    return dict(zip(keys, counts))
