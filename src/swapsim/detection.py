"""Threshold (vacuum vs. non-vacuum) detectors with efficiency eta.

Loss model: each photon at a detector survives independently with
probability eta, so a mode (or group of modes covered by one detector)
holding n photons stays silent with probability (1 - eta)^n and clicks
with probability 1 - (1 - eta)^n.

``measure`` is the one implementation of this POVM.  It returns every
click/silent outcome asked for (all by default) of a set of detectors on a
ket at once, keyed by a tuple of ``CLICK``/``SILENT`` in detector order.
One function, ``_group``, groups the ket once by the occupation of the
measured modes: groups with distinct measured occupations are incoherent,
terms sharing them stay coherent.  This is exact for POVMs diagonal in the
measured modes' Fock basis.  A group's normalized branch on the unmeasured
modes does not depend on the outcome (only its weight does), so it is
built once and shared by every outcome it contributes to.

The detector check, the outcome list, each photon count's (click, silent)
pair and each measured occupation's row of outcome probabilities are set
up once per call; with two one-mode detectors, as in every herald and
phase table, a row is its four products written out, and any other layout
takes each detector's photon count from its span of the occupation.  When
every mode is measured, each term is its own group and no branch is built.

A unitary just before the detectors need not be applied first.
``measure(state, ..., unitary=u)``, where ``u`` acts on the measured modes
in detector order (as in every herald), scatters each term of ``state``
through ``u``'s transfer table into terms keyed by (output index, rest
occupation), the transformed ket's terms in its own order, which
``_group`` then groups as it groups any ket.  When only some outcomes are
asked for, a group whose row is exactly 0.0 on all of them (at ``eta =
1`` the vacuum and every group with photons at both heralding detectors)
builds no branch.

Whether an output of ``u`` is dead, its row exactly 0.0 on every outcome
asked for, is decided once per unitary, not per call: ``u`` keeps a plan
(``ModeUnitary._plans``) per key (detector shape, outcomes asked for),
the transfer table without its dead outputs.  A plan is made only when
some outcomes are left out and ``eta`` is exactly 1, where the key alone
decides every row: with the two heralds the dead outputs are those with
photons at both detectors or at neither.  Any other ``eta`` reads the
table itself, and the weighing skips whatever is dead: in the interior,
short of an underflow, only the vacuum; at ``eta = 0``, which no default
and no benchmark workload runs, every click outcome.  The plan keeps each
entry's largest output, so the branch cutoffs do not change.

``mixture_tables`` (mixtures of kets after one unitary on all of their
modes, each distinct ket measured the first time a table needs it)
scatters them keyed by output index too.  Neither it nor ``measure``
builds the transformed ket, and both give the same bits as building it.

``measure`` runs in two phases, which ``bench/spans.py`` times by name:
``coincidence_table`` groups the ket, weighs every group under every
outcome asked for and builds the branches, and ``measure_pattern`` turns one
outcome's probability and weighted branches into its ``ConditionalOutcome``,
ensemble included.  ``outcomes`` is the one way to skip work no caller
reads: every outcome returned has its ensemble built.  A caller that
reads only probabilities reads ``coincidence_table``'s totals.
"""
from __future__ import annotations

import itertools
import math
from operator import itemgetter
from typing import Callable, Iterable, Sequence

from . import fock
from .elements import ModeUnitary, _check_acted
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
    """Outcome probability plus the conditional ensemble on unmeasured modes."""

    __slots__ = _fields = ("probability", "ensemble")

    def __init__(self, probability: float, ensemble: WeightedEnsemble | None):
        object.__setattr__(self, "probability", probability)
        object.__setattr__(self, "ensemble", ensemble)

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
    """The set-up of one ``measure`` or ``mixture_tables`` call, done once
    for all of its kets: the detector check, the outcome list, the
    getters of the measured and unmeasured occupations, and ``rows``, each
    measured occupation's row of outcome probabilities (which depend only on
    the detectors' photon counts), made the first time it is looked up as
    one product per outcome over the detectors' (click, silent) pairs, in
    ``itertools.product`` order.  Each photon count's pair is computed once,
    and a detector's count is the sum of its span of the key; with two
    one-mode detectors the row is its four products written out.
    With ``outcomes``, the outcome list and every row (a tuple then) hold
    only the outcomes asked for, still in that order.

    ``plan_key`` names the plan that ``_scatter_terms`` reads: the
    detector shape (modes per detector) and the outcomes asked for, when
    some outcomes are left out and ``eta`` is exactly 1.  Every row is then
    made of 0.0s and 1.0s that the key alone decides.  It is None
    otherwise, and no filter runs: with every outcome asked for no row is
    all 0.0, at interior ``eta``, short of an underflow, only the vacuum's
    is, and at ``eta = 0`` every row is 0.0 on every click outcome."""

    def __init__(self, reg: ModeRegister, detectors: Sequence[Sequence[str]], eta: float,
                 outcomes: Iterable[tuple[str, ...]] | None = None):
        det = ThresholdDetector(eta)
        detectors = [tuple(modes) for modes in detectors]
        measured_modes = [m for modes in detectors for m in modes]
        if len(set(measured_modes)) != len(measured_modes):
            raise ValueError("a mode may appear under at most one detector")
        measured_idx = [reg.index(m) for m in measured_modes]
        self.measured = tuple(measured_modes)
        self.labels = reg.labels
        self.rest_idx = [i for i in range(reg.size) if i not in measured_idx]
        self.measured_of = _tuple_getter(measured_idx)
        self.rest_of = _tuple_getter(self.rest_idx)
        self.rest_labels = tuple(reg.labels[i] for i in self.rest_idx)
        every = list(itertools.product((CLICK, SILENT), repeat=len(detectors)))
        pairs = _Rows(lambda n: (det.p_click(n), det.p_silent(n)))  # photon count -> pair

        def product_row(counts) -> list[float]:
            out_probs = [1.0]
            for n in counts:
                click, silent = pairs[n]
                products = []
                for p in out_probs:
                    products += (p * click, p * silent)
                out_probs = products
            return out_probs

        if [len(modes) for modes in detectors] == [1, 1]:  # every herald and phase table
            def row(key: tuple[int, ...]) -> list[float]:  # product_row's bits
                c1, s1 = pairs[key[0]]
                c2, s2 = pairs[key[1]]
                return [c1 * c2, c1 * s2, s1 * c2, s1 * s2]
        else:
            spans = []  # per-detector slice of the measured-occupation key
            pos = 0
            for modes in detectors:
                spans.append(slice(pos, pos + len(modes)))
                pos += len(modes)
            row = lambda key: product_row([sum(key[span]) for span in spans])
        self.outcomes = every
        self.plan_key = None
        if outcomes is not None:
            wanted = set(outcomes)
            if not wanted:
                raise ValueError("no outcomes asked for")
            if not wanted <= set(every):
                raise ValueError(f"unknown outcomes {sorted(wanted - set(every))} "
                                 f"for {len(detectors)} detectors")
            picks = [k for k, out in enumerate(every) if out in wanted]
            if len(picks) < len(every):
                self.outcomes = [every[k] for k in picks]
                take = _tuple_getter(picks)
                row = lambda key, full_row=row: take(full_row(key))
                if eta == 1.0:
                    self.plan_key = (tuple(map(len, detectors)), tuple(self.outcomes))
        self.rows = _Rows(row)


def _all_modes_probabilities(ket: FockKet, u: ModeUnitary, rows: _Rows,
                             n_outcomes: int) -> list[float]:
    """One ket's outcome probabilities in ``mixture_tables``: its terms
    scattered through ``u``'s table, summed by output index and weighed by
    that index's row in ``rows``, each its own group of weight |amp|**2,
    skipping those that building the transformed ket would prune."""
    table, sector = u._table, u.sector
    out: dict[int, complex] = {}
    for occ, amp in ket.terms.items():
        nf, outputs, _ = table.get(occ) or sector(occ)
        pref = amp / nf
        for _, i, c, pf in outputs:
            out[i] = out.get(i, 0.0) + pref * c * pf
    sums = [0.0] * n_outcomes
    tol = fock.PRUNE_TOL
    try:
        for i, amp in out.items():  # each sum began at 0.0: amp is its own 0.0 + amp
            if (a := abs(amp)) > tol:
                w = a ** 2
                for k, p_out in enumerate(rows[i]):
                    contrib = w * p_out
                    if contrib > 0.0:
                        sums[k] += contrib
    except OverflowError:  # one squared amplitude is beyond the float range
        raise ValueError("ket norm overflows the float range") from None
    return sums


def mixture_tables(mixtures: Sequence[Sequence[tuple[float, FockKet]]], u: ModeUnitary,
                   detectors: Sequence[Sequence[str]], eta: float) -> list[dict]:
    """One table per mixture of ``(w, ket)`` members on one set of mode
    labels: every outcome's probability, keyed as ``measure``'s result,
    after ``u`` acts on all of the modes in register order, every mode
    measured.  A table is ``sum_k w_k p_k(out)`` in member order from 0.0,
    each ``p_k`` with the bits of ``measure(apply_mode_unitary(ket, u,
    labels), detectors, eta)``.  A member whose ``2 * w`` is below half an
    ulp of the table's smallest running entry is skipped there: ``p`` is at
    most 1 up to rounding, so ``w * p`` would change no bit.  Each distinct
    ket (by identity) is measured once, the first time a table needs it.
    Every member is checked first, those skipped too.
    """
    kets = [ket for members in mixtures for _, ket in members]
    povm = _Povm(kets[0].register, detectors, eta)
    if povm.rest_idx:
        raise ValueError("mixture_tables measures every mode")
    if any(ket.register.labels != povm.labels for ket in kets):
        raise ValueError("the members of every mixture must share their mode labels")
    _check_acted(u, povm.labels, max(ket.register.cutoff for ket in kets))
    rows, measured_of, powers_of = povm.rows, povm.measured_of, u._powers
    index_rows = _Rows(lambda i: rows[measured_of(powers_of[i])])
    n = len(povm.outcomes)
    probs: dict[int, list[float]] = {}  # id(ket) -> its outcome probabilities
    tables = []
    for members in mixtures:
        joint = [0.0] * n
        half_ulp = 0.0  # half an ulp of 0.0 rounds to 0.0: no member is skipped at 0.0
        for w, ket in members:
            if 2.0 * w < half_ulp:
                continue
            p = probs.get(id(ket))
            if p is None:
                p = probs[id(ket)] = _all_modes_probabilities(ket, u, index_rows, n)
            joint = [j + w * q for j, q in zip(joint, p)]
            half_ulp = math.ulp(min(joint)) / 2
        tables.append(dict(zip(povm.outcomes, joint)))
    return tables


def _group(terms: dict, measured_of: Callable, rest_of: Callable) -> dict:
    """A ket's terms, keyed as ``terms``, by measured occupation
    (``measured_of`` of a key), in the order of each group's first kept
    term: ``measured -> [w, {rest_of(key): amp}]``, pruned as
    ``FockKet._trusted`` prunes, ``w`` summing the kept squared ``abs`` from
    0.0 in term order."""
    tol = fock.PRUNE_TOL
    groups: dict[tuple[int, ...], list] = {}
    for occ, amp in terms.items():
        if (m := abs(a := 0.0 + amp)) > tol:
            key = measured_of(occ)
            group = groups.get(key)
            if group is None:
                group = groups[key] = [0.0, {}]
            group[0] += m ** 2
            group[1][rest_of(occ)] = a
    return groups


def _scatter_terms(state: FockKet, u: ModeUnitary, povm: _Povm) -> tuple[dict, int]:
    """The terms of ``u`` applied to the measured modes of ``state``, in
    detector order, without building that ket: ``{(output index, rest
    occupation): amp}``, the same amplitudes in the same order as that
    ket's terms, and the largest output occupation.

    Each input term is one table lookup and one scatter, summing ``pref * c
    * pf`` from 0.0 in input-term order as ``apply_mode_unitary`` does.

    The entries are the table's, or with ``povm.plan_key`` those of the
    plan it names on ``u``, which keeps only the outputs whose row is not
    all 0.0: a dead output makes no term and so no group.  The plan grows
    here, one acted occupation at a time, and keeps the table entry's
    largest output.
    """
    _check_acted(u, povm.measured, state.register.cutoff)
    table, sector = u._table, u.sector
    if povm.plan_key is not None:
        rows = povm.rows
        table = u._plans.setdefault(povm.plan_key, {})

        def sector(acted):
            entry = u.sector(acted)
            live = tuple(out for out in entry[1] if any(rows[out[0]]))
            if len(live) < len(entry[1]):
                entry = (entry[0], live, entry[2])
            table[acted] = entry
            return entry
    measured_of, rest_of = povm.measured_of, povm.rest_of
    terms: dict[tuple, complex] = {}
    get = terms.get
    max_occ = 0
    for occ, amp in state.terms.items():
        acted = measured_of(occ)
        nf, outputs, top = table.get(acted) or sector(acted)
        pref = amp / nf
        rest = rest_of(occ)
        for _, i, c, pf in outputs:
            key = (i, rest)
            terms[key] = get(key, 0.0) + pref * c * pf
        if top > max_occ:
            max_occ = top
    return terms, max_occ


def coincidence_table(
    state: FockKet,
    detectors: Sequence[Sequence[str]],
    eta: float,
    unitary: ModeUnitary | None = None,
    outcomes: Iterable[tuple[str, ...]] | None = None,
) -> dict[tuple[str, ...], tuple[float, list[tuple[float, FockKet]]]]:
    """First phase of ``measure``: group the ket once, weigh every group
    under every outcome asked for and build each group's branch the first
    time an outcome needs it, in one pass over the group: its amplitudes,
    all above ``fock.PRUNE_TOL``, times 1/sqrt(w), pruned as
    ``FockKet._trusted`` prunes, which gives the bits of ``FockKet(rest_reg,
    sub).normalized()``.

    Maps each outcome, in ``measure``'s order, to its probability and its
    ``(weight, branch)`` pairs in group order.  A group's weight under an
    outcome, ``contrib = w * p_out``, is its squared norm times the product
    over detectors of each one's click or silent probability; an outcome's
    probability is the sum of its groups' contribs.  The pairs are empty
    when no mode is left unmeasured.

    Without a unitary, ``_group`` groups the ket's own terms.  With
    ``unitary = u`` the ket measured is ``u`` applied to the measured modes
    of ``state`` in detector order, which is never built: ``_group`` groups
    the terms of ``_scatter_terms`` by output index, each group's row is
    looked up by that index, and the branches take the raised cutoff.
    When ``outcomes`` leaves some out, a group whose row is exactly 0.0 on
    every outcome asked for adds to no sum and builds no branch; at ``eta =
    1`` the unitary's plan keeps such a group from being scattered at all.
    """
    povm = _Povm(state.register, detectors, eta, outcomes)
    branches: list[list[tuple[float, FockKet]]] = [[] for _ in povm.outcomes]
    sums = [0.0] * len(povm.outcomes)
    try:
        if unitary is None:
            terms, measured_of, rest_of = state.terms, povm.measured_of, povm.rest_of
            cutoff, rows = state.register.cutoff, povm.rows
        else:
            terms, max_occ = _scatter_terms(state, unitary, povm)
            measured_of, rest_of = itemgetter(0), itemgetter(1)
            cutoff = max(max_occ, state.register.cutoff)
            powers_of, row = unitary._powers, povm.rows.make
            rows = _Rows(lambda i: row(powers_of[i]))
        rest_reg = ModeRegister(povm.rest_labels, cutoff) if povm.rest_idx else None
        for key, (w, sub) in _group(terms, measured_of, rest_of).items():
            ket = None
            for i, p_out in enumerate(rows[key]):
                contrib = w * p_out
                if contrib > 0.0:
                    sums[i] += contrib
                    if rest_reg is None:
                        continue
                    if ket is None:
                        ket = FockKet._trusted(rest_reg, sub, 1.0 / math.sqrt(w))
                    branches[i].append((contrib, ket))
    except OverflowError:  # one squared amplitude is beyond the float range
        raise ValueError("ket norm overflows the float range") from None
    return dict(zip(povm.outcomes, zip(sums, branches)))


def measure_pattern(total: float, branches: list[tuple[float, FockKet]]) -> ConditionalOutcome:
    """Second phase of ``measure``: one outcome's ``ConditionalOutcome`` from
    its probability and weighted branches in ``coincidence_table``, the
    ensemble built from the branches (None when there are none: a total of
    0.0, or no mode left unmeasured)."""
    ensemble = WeightedEnsemble.from_branches(branches) if branches else None
    return ConditionalOutcome(total, ensemble)


def measure(
    state: FockKet,
    detectors: Sequence[Sequence[str]],
    eta: float,
    unitary: ModeUnitary | None = None,
    outcomes: Iterable[tuple[str, ...]] | None = None,
) -> dict[tuple[str, ...], ConditionalOutcome]:
    """Exact probability and conditional ensemble of every click/silent
    outcome asked for, all by default.

    ``detectors`` lists the modes each threshold detector covers; a mode may
    appear under at most one detector.  The result is keyed by outcome tuples
    in detector order, in ``itertools.product((CLICK, SILENT), ...)`` order,
    and its probabilities sum to 1.  An outcome is ``impossible`` when its
    probability is 0.  Its ensemble is None then, or when no mode is left
    unmeasured: a group's branch keeps at least its largest amplitude, so
    pruning never empties one.  With ``unitary = u``, which must act on as
    many modes as the detectors measure, the result is bit for bit that of
    ``measure(apply_mode_unitary(state, u, measured), ...)``, ``measured``
    being the detectors' modes in order.  With ``outcomes`` (a non-empty
    iterable of outcome tuples), the result is the full one restricted to them, bit
    for bit: the same keys in the same order, the same branch registers,
    and a branch that two of them share is one object, as in the full one.
    """
    table = coincidence_table(state, detectors, eta, unitary, outcomes)
    return {out: measure_pattern(total, branches)
            for out, (total, branches) in table.items()}
