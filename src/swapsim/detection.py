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
``measure(state, ..., unitary=(u, modes))`` takes the transformed terms
from ``elements._scatter``, and ``outcome_probabilities`` (a batch of kets
after one unitary on all of their modes) scatters them itself, keyed by
transfer-table index.  Neither builds the transformed ket: they prune and
group those terms in one pass, exactly as building the ket would, with the
same bits.

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
from typing import Callable, Sequence

from . import fock
from .elements import ModeUnitary, _check_acted, _scatter
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


class _Rows(dict):
    """Rows of outcome probabilities by key; a missing row is made by
    ``make(key)`` on its first lookup and kept."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[object], list[float]]):
        self.make = make  # dict.__new__ made the empty dict

    def __missing__(self, key):
        row = self[key] = self.make(key)
        return row


class _Povm:
    """The set-up of one ``measure`` or ``outcome_probabilities`` call, done
    once for all of its kets: the detector check, the outcome list, the
    getters of the measured and unmeasured occupations, and ``rows``, each
    measured occupation's row of outcome probabilities (which depend only on
    the detectors' photon counts), made the first time it is looked up as
    one product per outcome over the detectors' (click, silent) pairs, in
    ``itertools.product`` order.  Each photon count's pair is computed once.
    ``term_rows`` gives a fully measured term its row by the term's own
    occupation: it is ``rows`` when the detectors cover the register in
    order, so that no getter runs."""

    def __init__(self, reg: ModeRegister, detectors: Sequence[Sequence[str]], eta: float):
        det = ThresholdDetector(eta)
        detectors = [tuple(modes) for modes in detectors]
        measured_modes = [m for modes in detectors for m in modes]
        if len(set(measured_modes)) != len(measured_modes):
            raise ValueError("a mode may appear under at most one detector")
        measured_idx = [reg.index(m) for m in measured_modes]
        self.labels = reg.labels
        self.rest_idx = [i for i in range(reg.size) if i not in measured_idx]
        self.measured_of = measured_of = _tuple_getter(measured_idx)
        self.rest_of = _tuple_getter(self.rest_idx)
        self.rest_labels = tuple(reg.labels[i] for i in self.rest_idx)
        # per-detector slice of the measured-occupation key
        spans = []
        pos = 0
        for modes in detectors:
            spans.append(slice(pos, pos + len(modes)))
            pos += len(modes)
        self.outcomes = list(itertools.product((CLICK, SILENT), repeat=len(detectors)))
        pairs: dict[int, tuple[float, float]] = {}  # photon count -> (click, silent)

        def row(key: tuple[int, ...]) -> list[float]:
            out_probs = [1.0]
            for span in spans:
                n = sum(key[span])
                pair = pairs.get(n)
                if pair is None:
                    pair = pairs[n] = (det.p_click(n), det.p_silent(n))
                out_probs = [p * q for p in out_probs for q in pair]
            return out_probs

        self.rows = rows = _Rows(row)
        self.term_rows = rows if measured_idx == list(range(reg.size)) else \
            _Rows(lambda occ: rows[measured_of(occ)])

    def term_sums(self, terms: dict, rows: dict) -> list[float]:
        """Each outcome's probability for the terms of a ket with every mode
        measured: every term is its own group, of weight |amp|**2, and
        ``rows[key]`` is the row of the term keyed ``key``.  Terms that
        building a ket from them would prune (|amp| <= PRUNE_TOL) are
        skipped; a ket's own terms are all above it."""
        sums = [0.0] * len(self.outcomes)
        tol = fock.PRUNE_TOL
        try:
            for key, amp in terms.items():
                a = abs(amp)
                if a <= tol:
                    continue
                w = a ** 2
                for i, p_out in enumerate(rows[key]):
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
    building it would prune.  An output term is keyed by its transfer-table
    index, in the occupation keys' order, and each index's row is looked
    up once per batch.  An empty batch gives an empty list.
    """
    if not kets:
        return []
    povm = _Povm(kets[0].register, detectors, eta)
    if povm.rest_idx:
        raise ValueError("outcome_probabilities measures every mode")
    if any(ket.register.labels != povm.labels for ket in kets):
        raise ValueError("kets of one batch must share their mode labels")
    _check_acted(u, povm.labels, max(ket.register.cutoff for ket in kets))
    table, sector, powers_of, term_rows = u._table, u.sector, u._powers, povm.term_rows
    index_rows = _Rows(lambda i: term_rows[powers_of[i]])
    tables = []
    for ket in kets:
        out: dict[int, complex] = {}
        for occ, amp in ket.terms.items():
            nf, outputs, _ = table.get(occ) or sector(occ)
            pref = amp / nf
            for _, i, c, pf in outputs:
                out[i] = out.get(i, 0.0) + pref * c * pf
        tables.append(dict(zip(povm.outcomes, povm.term_sums(out, index_rows))))
    return tables


def coincidence_table(
    state: FockKet,
    detectors: Sequence[Sequence[str]],
    eta: float,
    unitary: tuple[ModeUnitary, Sequence[str]] | None = None,
) -> dict[tuple[str, ...], tuple[float, list[tuple[float, FockKet]]]]:
    """First phase of ``measure``: group the ket once, weigh every group
    under every outcome and build each group's branch the first time an
    outcome needs it, in one pass over the group: its amplitudes, all above
    ``fock.PRUNE_TOL``, times 1/sqrt(w), pruned as ``FockKet._trusted``
    prunes, which gives the bits of ``FockKet(rest_reg, sub).normalized()``.

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
        return dict(zip(povm.outcomes, zip(povm.term_sums(terms, povm.term_rows), branches)))
    measured_of, rest_of, rows = povm.measured_of, povm.rest_of, povm.rows
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
            for i, p_out in enumerate(rows[key]):
                contrib = w * p_out
                if contrib > 0.0:
                    sums[i] += contrib
                    if ket is None:
                        ket = FockKet._trusted(rest_reg, sub, 1.0 / math.sqrt(w))
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
