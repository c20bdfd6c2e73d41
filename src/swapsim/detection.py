"""Threshold (vacuum vs. non-vacuum) detectors with efficiency eta.

Loss model: each photon at a detector survives independently with
probability eta, so a mode (or group of modes covered by one detector)
holding n photons stays silent with probability (1 - eta)^n and clicks
with probability 1 - (1 - eta)^n.

``measure`` is the one implementation of this POVM.  It returns every
click/silent outcome of a set of detectors on a ket at once, keyed by a
tuple of ``CLICK``/``SILENT`` in detector order.  The ket is grouped once
by the occupation of the measured modes: groups with distinct measured
occupations are incoherent, terms sharing them stay coherent.  This is
exact for POVMs diagonal in the measured modes' Fock basis.  A group's
normalized branch on the unmeasured modes does not depend on the outcome
(only its weight does), so it is built once and shared by every outcome it
contributes to.

The detector check, the outcome list, each photon count's (click, silent)
pair and each measured occupation's row of outcome probabilities are set
up once per call.  When every mode is measured, each term is its own group
and no group is built.

A unitary just before the detectors need not be applied first.
``measure(state, ..., unitary=(u, modes))`` and ``outcome_probabilities``
(a batch of kets after one unitary on all of their modes) take the
transformed terms from ``elements._scatter`` and never build the
transformed ket: they prune and group those terms in one pass, exactly as
building the ket would, with the same bits.

``measure`` runs in two phases, which ``bench/spans.py`` times by name:
``coincidence_table`` groups the ket, weighs every group under every
outcome and builds the branches, and ``measure_pattern`` turns one
outcome's probability and weighted branches into its ``ConditionalOutcome``,
which builds the ensemble from them only when it is first read.  Callers
use ``measure``.
"""
from __future__ import annotations

import itertools
import math
from typing import Sequence

from . import fock
from .elements import ModeUnitary, _scatter
from .fock import FockKet, ModeRegister, WeightedEnsemble, _Record, _tuple_getter

CLICK = "click"
SILENT = "silent"


class ThresholdDetector(_Record):
    """Binary photon detector with per-photon efficiency ``eta``: the one
    place ``eta`` is checked, for every function that takes it."""

    __slots__ = _fields = ("eta",)

    def __init__(self, eta: float):
        if not 0.0 <= eta <= 1.0:
            raise ValueError(f"eta must be in [0, 1], got {eta}")
        object.__setattr__(self, "eta", eta)

    def p_silent(self, n: int) -> float:
        return (1.0 - self.eta) ** n

    def p_click(self, n: int) -> float:
        return 1.0 - (1.0 - self.eta) ** n


class ConditionalOutcome(_Record):
    """Outcome probability plus the conditional ensemble on unmeasured modes.

    ``measure`` gives each outcome its weighted branches, and the ensemble
    is built from them (``WeightedEnsemble.from_branches``) the first time
    ``.ensemble`` is read: most callers read one outcome's ensemble, or
    none."""

    _fields = ("probability", "ensemble")
    __slots__ = ("probability", "_ensemble", "_branches")

    def __init__(self, probability: float, ensemble: WeightedEnsemble | None):
        object.__setattr__(self, "probability", probability)
        object.__setattr__(self, "_ensemble", ensemble)
        object.__setattr__(self, "_branches", None)

    @classmethod
    def _lazy(cls, probability: float,
              branches: list[tuple[float, FockKet]]) -> "ConditionalOutcome":
        """An outcome whose ensemble is built from ``branches`` on first read
        (None when there are none)."""
        self = cls(probability, None)
        object.__setattr__(self, "_branches", branches or None)
        return self

    @property
    def ensemble(self) -> WeightedEnsemble | None:
        if self._branches is not None:
            object.__setattr__(self, "_ensemble", WeightedEnsemble.from_branches(self._branches))
            object.__setattr__(self, "_branches", None)
        return self._ensemble

    @property
    def impossible(self) -> bool:
        return self.probability == 0.0


class _Povm:
    """The set-up of one ``measure`` or ``outcome_probabilities`` call, done
    once for all of its kets: the detector check, the outcome list, the
    getters of the measured and unmeasured occupations, and each measured
    occupation's row of outcome probabilities (which depend only on the
    detectors' photon counts), computed the first time it is needed as one
    product per outcome over the detectors' (click, silent) pairs, in
    ``itertools.product`` order.  Each photon count's pair is computed once."""

    def __init__(self, reg: ModeRegister, detectors: Sequence[Sequence[str]], eta: float):
        self.det = ThresholdDetector(eta)
        detectors = [tuple(modes) for modes in detectors]
        measured_modes = [m for modes in detectors for m in modes]
        if len(set(measured_modes)) != len(measured_modes):
            raise ValueError("a mode may appear under at most one detector")
        measured_idx = [reg.index(m) for m in measured_modes]
        self.labels = reg.labels
        self.rest_idx = [i for i in range(reg.size) if i not in measured_idx]
        self.measured_of = _tuple_getter(measured_idx)
        self.rest_of = _tuple_getter(self.rest_idx)
        self.rest_labels = tuple(reg.labels[i] for i in self.rest_idx)
        # per-detector slice of the measured-occupation key
        self.spans = []
        pos = 0
        for modes in detectors:
            self.spans.append(slice(pos, pos + len(modes)))
            pos += len(modes)
        self.outcomes = list(itertools.product((CLICK, SILENT), repeat=len(detectors)))
        self.rows: dict[tuple[int, ...], list[float]] = {}  # measured occupation -> p_out per outcome
        self.pairs: dict[int, tuple[float, float]] = {}  # photon count -> (click, silent)

    def row(self, key: tuple[int, ...]) -> list[float]:
        out_probs = [1.0]
        for span in self.spans:
            n = sum(key[span])
            pair = self.pairs.get(n)
            if pair is None:
                pair = self.pairs[n] = (self.det.p_click(n), self.det.p_silent(n))
            out_probs = [p * q for p in out_probs for q in pair]
        self.rows[key] = out_probs
        return out_probs

    def term_sums(self, terms: dict) -> list[float]:
        """Each outcome's probability for a ket's terms with every mode
        measured: every term is its own group, of weight |amp|**2.  Terms
        that building a ket from them would prune (|amp| <= PRUNE_TOL) are
        skipped; a ket's own terms are all above it."""
        measured_of, rows, row = self.measured_of, self.rows, self.row
        sums = [0.0] * len(self.outcomes)
        tol = fock.PRUNE_TOL
        try:
            for occ, amp in terms.items():
                a = abs(amp)
                if a <= tol:
                    continue
                key = measured_of(occ)
                w = a ** 2
                for i, p_out in enumerate(rows.get(key) or row(key)):
                    contrib = w * p_out
                    if contrib > 0.0:
                        sums[i] += contrib
        except OverflowError:  # one squared amplitude is beyond the float range
            raise ValueError("ket norm overflows the float range") from None
        return sums


def outcome_probabilities(
    kets: Sequence[FockKet],
    u: ModeUnitary,
    detectors: Sequence[Sequence[str]],
    eta: float,
) -> list[dict[tuple[str, ...], float]]:
    """Every click/silent outcome's probability for each of several kets on
    one set of mode labels, after ``u`` acts on all of their modes in
    register order, with every mode measured and the set-up done once.

    Each dict is keyed as ``measure``'s result and holds the same
    probabilities, bit for bit, as ``measure(apply_mode_unitary(ket, u,
    ket.register.labels), detectors, eta)``, but the transformed ket is never
    built: its scattered terms are summed straight away, skipping those that
    building it would prune.
    """
    povm = _Povm(kets[0].register, detectors, eta)
    if povm.rest_idx:
        raise ValueError("outcome_probabilities measures every mode")
    tables = []
    for ket in kets:
        if ket.register.labels != povm.labels:
            raise ValueError("kets of one batch must share their mode labels")
        _, terms = _scatter(ket, u, povm.labels)
        tables.append(dict(zip(povm.outcomes, povm.term_sums(terms))))
    return tables


def coincidence_table(
    state: FockKet,
    detectors: Sequence[Sequence[str]],
    eta: float,
    unitary: tuple[ModeUnitary, Sequence[str]] | None = None,
) -> dict[tuple[str, ...], tuple[float, list[tuple[float, FockKet]]]]:
    """First phase of ``measure``: group the ket once, weigh every group
    under every outcome and build each group's branch the first time an
    outcome needs it, in one build: its amplitudes, all above
    ``fock.PRUNE_TOL``, times 1/sqrt(w), which gives the bits of
    ``FockKet(rest_reg, sub).normalized()``.

    Maps each outcome, in ``measure``'s order, to its probability and its
    ``(weight, branch)`` pairs in group order.  A group's weight under an
    outcome, ``contrib = w * p_out``, is its squared norm times the product
    over detectors of each one's click or silent probability; an outcome's
    probability is the sum of its groups' contribs.  The pairs are empty
    when no mode is left unmeasured.

    With ``unitary = (u, modes)`` the ket measured is ``u`` applied to
    ``modes`` of ``state``, which is never built: the grouping pass reads
    the scattered terms and prunes them as ``FockKet._trusted`` would, and
    the branches take the raised cutoff.
    """
    povm = _Povm(state.register, detectors, eta)
    reg, terms = (state.register, state.terms) if unitary is None else _scatter(state, *unitary)
    branches: list[list[tuple[float, FockKet]]] = [[] for _ in povm.outcomes]
    if not povm.rest_idx:
        return dict(zip(povm.outcomes, zip(povm.term_sums(terms), branches)))
    measured_of, rest_of, rows, row = povm.measured_of, povm.rest_of, povm.rows, povm.row
    tol = fock.PRUNE_TOL
    sums = [0.0] * len(povm.outcomes)
    rest_reg = ModeRegister(povm.rest_labels, reg.cutoff)
    groups: dict[tuple[int, ...], list] = {}  # measured occupation -> [w, {rest: amp}]
    try:
        for occ, amp in terms.items():
            if (m := abs(a := 0.0 + amp)) > tol:
                key = measured_of(occ)
                group = groups.get(key)
                if group is None:
                    group = groups[key] = [0.0, {}]
                group[0] += m ** 2
                group[1][rest_of(occ)] = a
        for key, (w, sub) in groups.items():
            ket = None
            for i, p_out in enumerate(rows.get(key) or row(key)):
                contrib = w * p_out
                if contrib > 0.0:
                    sums[i] += contrib
                    if ket is None:
                        c = 1.0 / math.sqrt(w)
                        ket = FockKet._trusted(rest_reg, {o: c * a for o, a in sub.items()})
                    branches[i].append((contrib, ket))
    except OverflowError:  # one squared amplitude is beyond the float range
        raise ValueError("ket norm overflows the float range") from None
    return dict(zip(povm.outcomes, zip(sums, branches)))


def measure_pattern(total: float, branches: list[tuple[float, FockKet]]) -> ConditionalOutcome:
    """Second phase of ``measure``: one outcome's ``ConditionalOutcome`` from
    its probability and weighted branches in ``coincidence_table``; the
    ensemble is built from the branches when it is first read."""
    if total <= 0.0:
        return ConditionalOutcome(0.0, None)
    return ConditionalOutcome._lazy(total, branches)


def measure(
    state: FockKet,
    detectors: Sequence[Sequence[str]],
    eta: float,
    unitary: tuple[ModeUnitary, Sequence[str]] | None = None,
) -> dict[tuple[str, ...], ConditionalOutcome]:
    """Exact probability and conditional ensemble of every click/silent outcome.

    ``detectors`` lists the modes each threshold detector covers; a mode may
    appear under at most one detector.  The result is keyed by outcome tuples
    in detector order, in ``itertools.product((CLICK, SILENT), ...)`` order,
    and its probabilities sum to 1.  An outcome is ``impossible`` when its
    probability is 0.  Its ensemble is None then, or when no mode is left
    unmeasured: a group's branch keeps at least its largest amplitude, so
    pruning never empties one.  With ``unitary = (u, modes)`` the result is
    bit for bit that of ``measure(apply_mode_unitary(state, u, modes), ...)``.
    """
    table = coincidence_table(state, detectors, eta, unitary)
    return {out: measure_pattern(total, branches)
            for out, (total, branches) in table.items()}
