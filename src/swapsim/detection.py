"""Threshold (vacuum vs. non-vacuum) detectors with efficiency eta.

Loss model: each photon at a detector survives independently with
probability eta, so a mode (or group of modes covered by one detector)
holding n photons stays silent with probability (1 - eta)^n and clicks
with probability 1 - (1 - eta)^n.

``measure`` is the one implementation of this POVM.  It returns every
click/silent outcome asked for (all by default) of a set of detectors on a
ket at once, keyed by a tuple of ``CLICK``/``SILENT`` in detector order.
The ket is grouped once by the occupation of the measured modes: groups
with distinct measured occupations are incoherent, terms sharing them stay
coherent.  This is exact for POVMs diagonal in the measured modes' Fock
basis.  A group's normalized branch on the unmeasured modes does not
depend on the outcome (only its weight does), so it is built once and
shared by every outcome it contributes to.

What depends only on the detector layout (the register's labels, the
detectors and the outcomes asked for) is set up once per layout and kept
for the life of the process, in ``_Povm``: the detector check, the outcome
list and the getters of the measured and unmeasured occupations.  What
depends on ``eta`` or on the ket is set up once per call: the list of
(click, silent) pairs by photon count, each measured occupation's row of
outcome probabilities, and the branches' cutoff, the ket's.  Their register
is the one kept per (unmeasured labels, cutoff) by
``ModeRegister._derived``.  With two one-mode detectors, as in every herald
and phase table, a row is its four products written out, and any other
layout takes each detector's photon count from its span of the
occupation.  When every mode is measured, each term is its own group and
no branch is built.

A unitary just before the detectors need not be applied first.
``measure(state, ..., unitary=u)``, where ``u`` acts on the measured modes
in detector order (as in every herald), scatters each term of ``state``
through ``u``'s transfer table, and the groups are keyed by output index.
Which of two ways makes them is read from ``state`` on each call.  When no
two of its terms share a rest occupation (the occupation of the unmeasured
modes), as in scheme A's double-pass source, every (output, rest) key is
made by one term only, once: ``_scatter_groups`` prunes each output and
adds it to its group as it is made, in one pass, and that scatter order is
the transformed ket's term order.  Otherwise (scheme B's source),
``_scatter_terms`` sums the terms keyed by (output index, rest occupation)
in that same order, and ``_group``, the grouping of a ket without a
unitary, groups them.  When only some outcomes are asked for, a group
whose row is exactly 0.0 on all of them (at ``eta = 1`` the vacuum and
every group with photons at both heralding detectors) builds no branch.

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
modes, each mode under its own detector in register order, each distinct
ket measured the first time a table needs it) scatters them keyed by
output index too, through ``u``'s slot plan for the ket's term layout
(``ModeUnitary._slot_plans``): each term's table entry, and the output
indices in the order the layout first meets them, which is the order the
sums are weighed in.  Both make their rows of that index with the
function ``_Povm.rows`` returns: ``mixture_tables`` keeps them in a
``_Rows`` cache, one per call, and ``measure``, which reads each group's
row once, keeps none.  Neither builds the transformed ket, and both give
the same bits as building it.

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

# a ket of norm at most this keeps every squared amplitude, group weight and
# sum that coincidence_table makes of it (each about norm ** 2 at most) far
# inside the float range, with or without a unitary; the norm is bounded by
# sqrt(number of terms) times the largest |amplitude|
_SAFE_NORM = 1e150


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
    """``mixture_tables``' rows of outcome probabilities by output index; a
    missing row is made by ``make(key)`` on its first lookup and kept."""

    __slots__ = ("make",)

    def __init__(self, make: Callable[[object], list[float]]):
        self.make = make  # dict.__new__ made the empty dict

    def __missing__(self, key):
        row = self[key] = self.make(key)
        return row


# (register labels, detectors, outcomes asked for) -> its _Povm, for the
# life of the process; a layout that fails a check raises before it is kept
_POVMS: dict[tuple, "_Povm"] = {}


class _Povm:
    """The set-up of one detector layout, made once per (register labels,
    detectors, outcomes asked for) by ``_Povm.of`` and shared by every
    ``measure`` or ``mixture_tables`` call on that layout: the detector
    check, the outcome list, the getters of the measured and unmeasured
    occupations, the unmeasured labels, each detector's span of the
    measured-occupation key, the picks of the outcomes asked for and the
    plan key.  With ``outcomes``, the outcome list holds only the outcomes
    asked for, still in ``itertools.product`` order.

    What depends on ``eta`` is set up per call by ``rows``: each measured
    occupation's row of outcome probabilities (which depend only on the
    detectors' photon counts), or after a unitary each output index's, made
    by the function it returns as one product per outcome over the
    detectors' (click, silent) pairs, in ``itertools.product`` order.  The
    pairs are one list per call, by photon count, and a detector's count is
    the sum of its span of the key; with two one-mode detectors the row is
    its four products written out.  With ``outcomes``, every row (a tuple
    then) holds only the outcomes asked for.

    ``plan_key`` names the plan that ``_entries`` gives the herald when
    ``eta`` is exactly 1, a decision made per call: the detector shape
    (modes per detector) and the outcomes asked for, when some outcomes are
    left out.  Every row is then made of 0.0s and 1.0s that the key alone
    decides.  It is None with every outcome asked for, and at any other
    ``eta`` no filter runs: with every outcome asked for no row is all 0.0,
    at interior ``eta``, short of an underflow, only the vacuum's is, and at
    ``eta = 0`` every row is 0.0 on every click outcome."""

    __slots__ = ("measured", "labels", "rest_idx", "measured_of", "rest_of", "rest_labels",
                 "outcomes", "spans", "take", "plan_key")

    @classmethod
    def of(cls, reg: ModeRegister, detectors: Sequence[Sequence[str]],
           outcomes: Iterable[tuple[str, ...]] | None = None) -> "_Povm":
        """The set-up of ``detectors`` on ``reg``'s labels, made on first use."""
        detectors = tuple(map(tuple, detectors))
        if outcomes is not None:
            outcomes = frozenset(outcomes)
        key = (reg.labels, detectors, outcomes)
        povm = _POVMS.get(key)
        if povm is None:
            povm = _POVMS[key] = cls(reg, detectors, outcomes)
        return povm

    def __init__(self, reg: ModeRegister, detectors: tuple[tuple[str, ...], ...],
                 outcomes: frozenset | None):
        measured_modes = [m for modes in detectors for m in modes]
        if len(set(measured_modes)) != len(measured_modes):
            raise ValueError("a mode may appear under at most one detector")
        measured_idx = [reg.index(m) for m in measured_modes]
        self.measured = tuple(measured_modes)
        self.labels = reg.labels
        self.rest_idx = tuple(i for i in range(reg.size) if i not in measured_idx)
        self.measured_of = _tuple_getter(measured_idx)
        self.rest_of = _tuple_getter(self.rest_idx)
        self.rest_labels = tuple(reg.labels[i] for i in self.rest_idx)
        sizes = [len(modes) for modes in detectors]
        self.spans = None  # two one-mode detectors, as in every herald and phase table
        if sizes != [1, 1]:  # each detector's slice of the measured-occupation key
            self.spans = tuple(slice(end - n, end)
                               for n, end in zip(sizes, itertools.accumulate(sizes)))
        every = tuple(itertools.product((CLICK, SILENT), repeat=len(detectors)))
        self.outcomes, self.take, self.plan_key = every, None, None
        if outcomes is not None:
            if not outcomes:
                raise ValueError("no outcomes asked for")
            if not outcomes <= set(every):
                raise ValueError(f"unknown outcomes {sorted(outcomes - set(every))} "
                                 f"for {len(detectors)} detectors")
            picks = [k for k, out in enumerate(every) if out in outcomes]
            if len(picks) < len(every):
                self.outcomes = tuple(every[k] for k in picks)
                self.take = _tuple_getter(picks)
                self.plan_key = (tuple(sizes), self.outcomes)

    def rows(self, det: ThresholdDetector, cutoff: int,
             powers_of: Sequence | None = None) -> Callable[[object], Sequence[float]]:
        """This call's function that makes the row of outcome probabilities
        under ``det`` of a measured occupation, or with ``powers_of`` (a
        unitary's ``_powers``, its output occupations by index) of an
        output index.

        Each row is made by one closure from this call's list of (click,
        silent) pairs by photon count, ``(1.0 - q ** n, q ** n)`` with ``q =
        1.0 - eta``, the operations of ``ThresholdDetector.p_click`` and
        ``p_silent``.  The list covers every count a detector can see on a
        register with ``cutoff``: the measured modes hold at most
        ``cutoff`` photons each, and a unitary on them only moves those
        photons around, so an output mode can hold twice the per-mode limit
        after a beam splitter."""
        q = 1.0 - det.eta
        pairs = [(1.0 - q ** n, q ** n) for n in range(len(self.measured) * cutoff + 1)]
        spans, take = self.spans, self.take
        if spans is None:
            def row(key) -> Sequence[float]:  # the general row's bits, written out
                n1, n2 = key if powers_of is None else powers_of[key]
                c1, s1 = pairs[n1]
                c2, s2 = pairs[n2]
                full = [c1 * c2, c1 * s2, s1 * c2, s1 * s2]
                return full if take is None else take(full)
        else:
            def row(key) -> Sequence[float]:
                if powers_of is not None:
                    key = powers_of[key]
                out_probs = [1.0]
                for span in spans:
                    click, silent = pairs[sum(key[span])]
                    products = []
                    for p in out_probs:
                        products += (p * click, p * silent)
                    out_probs = products
                return out_probs if take is None else take(out_probs)
        return row


# term layouts a unitary keeps a slot plan for; a new one past this drops
# the oldest, so the shared balanced_bs() stays small whatever it is given
_SLOT_PLANS_MAX = 256


def _slot_plan(u: ModeUnitary, layout: tuple[tuple[int, ...], ...]) -> tuple:
    """``u``'s slot plan for kets whose terms are ``layout``, in order, made
    on first use and kept in ``u._slot_plans``: each term's transfer-table
    entry, the output indices in the order the layout first meets them,
    and the number of slots, one per output index up to the largest."""
    table, sector = u._table, u.sector
    entries = tuple(table.get(occ) or sector(occ) for occ in layout)
    first = dict.fromkeys(out[1] for entry in entries for out in entry[1])
    plans = u._slot_plans
    if len(plans) >= _SLOT_PLANS_MAX:
        del plans[next(iter(plans))]
    plan = plans[layout] = (entries, tuple(first), max(first, default=-1) + 1)
    return plan


def _all_modes_probabilities(ket: FockKet, u: ModeUnitary, rows: _Rows,
                             n_outcomes: int) -> list[float]:
    """One ket's outcome probabilities in ``mixture_tables``: its terms
    scattered through ``u``'s slot plan for their layout, summed into a
    list slot per output index from 0.0 in input-term order, and weighed
    output by output, in the order the layout first meets them, by the
    output's row in ``rows``: each output is its own group of weight
    |amp|**2, skipped when building the transformed ket would prune it.
    That is the order of a dict keyed by output index, so every sum keeps
    its float order.  With two modes the four outcomes are written out."""
    layout = tuple(ket.terms)
    entries, first, n_slots = u._slot_plans.get(layout) or _slot_plan(u, layout)
    amps = [0.0] * n_slots
    for amp, (nf, outputs, _) in zip(ket.terms.values(), entries):
        pref = amp / nf
        for _, i, c, pf in outputs:
            amps[i] += pref * c * pf
    tol = fock.PRUNE_TOL
    try:  # each slot began at 0.0: amps[i] is its own 0.0 + amp
        if n_outcomes == 4:
            s0 = s1 = s2 = s3 = 0.0
            for i in first:
                if (a := abs(amps[i])) > tol:
                    w = a ** 2
                    p0, p1, p2, p3 = rows[i]
                    if (p := w * p0) > 0.0:
                        s0 += p
                    if (p := w * p1) > 0.0:
                        s1 += p
                    if (p := w * p2) > 0.0:
                        s2 += p
                    if (p := w * p3) > 0.0:
                        s3 += p
            return [s0, s1, s2, s3]
        sums = [0.0] * n_outcomes
        for i in first:
            if (a := abs(amps[i])) > tol:
                w = a ** 2
                for k, p_out in enumerate(rows[i]):
                    if (p := w * p_out) > 0.0:
                        sums[k] += p
        return sums
    except OverflowError:  # one squared amplitude is beyond the float range
        raise ValueError("ket norm overflows the float range") from None


def mixture_tables(mixtures: Sequence[Sequence[tuple[float, FockKet]]], u: ModeUnitary,
                   eta: float) -> list[dict]:
    """One table per mixture of ``(w, ket)`` members on one set of mode
    labels: every outcome's probability, keyed as ``measure``'s result,
    after ``u`` acts on all of the modes in register order, each mode
    measured by its own detector, in register order.  A table is ``sum_k
    w_k p_k(out)`` in member order from 0.0, each ``p_k`` with the bits of
    ``measure(apply_mode_unitary(ket, u, labels), [(m,) for m in labels],
    eta)``.  A member whose ``2 * w`` is below half an
    ulp of the table's smallest running entry is skipped there: ``p`` is at
    most 1 up to rounding, so ``w * p`` would change no bit.  Half that ulp
    is made again only when the smallest entry moves, and with two modes
    the four sums are written out.  Each distinct
    ket (by identity) is measured once, the first time a table needs it,
    by ``_all_modes_probabilities`` through ``u``'s slot plan for its term
    layout.  Every member is checked first, those skipped too.  A finished
    table with an entry that is not finite (a scattered amplitude beyond
    the float range) raises ``FockKet.norm``'s error.
    """
    kets = [ket for members in mixtures for _, ket in members]
    det = ThresholdDetector(eta)
    povm = _Povm.of(kets[0].register, [(m,) for m in kets[0].register.labels])
    if any(ket.register.labels != povm.labels for ket in kets):
        raise ValueError("the members of every mixture must share their mode labels")
    cutoff = max(ket.register.cutoff for ket in kets)
    _check_acted(u, povm.labels, cutoff)
    rows = _Rows(povm.rows(det, cutoff, u._powers))  # its kets share output indices
    n = len(povm.outcomes)
    probs: dict[int, list[float]] = {}  # id(ket) -> its outcome probabilities
    tables = []
    for members in mixtures:
        j0 = j1 = j2 = j3 = 0.0
        joint = [0.0] * n
        # half an ulp of the smallest entry, made again only when that entry
        # moves; half an ulp of 0.0 rounds to 0.0: no member is skipped at 0.0
        low = half_ulp = 0.0
        for w, ket in members:
            if 2.0 * w < half_ulp:
                continue
            p = probs.get(id(ket))
            if p is None:
                p = probs[id(ket)] = _all_modes_probabilities(ket, u, rows, n)
            if n == 4:  # two modes, as in every phase table: the sums written out
                p0, p1, p2, p3 = p
                j0 += w * p0
                j1 += w * p1
                j2 += w * p2
                j3 += w * p3
                m = min(j0, j1, j2, j3)
            else:
                joint = [j + w * q for j, q in zip(joint, p)]
                m = min(joint)
            if m != low:
                low, half_ulp = m, math.ulp(m) / 2
        table = [j0, j1, j2, j3] if n == 4 else joint
        if not all(map(math.isfinite, table)):  # a ket's scattered sum overflowed
            raise ValueError("ket norm overflows the float range")
        tables.append(dict(zip(povm.outcomes, table)))
    return tables


def _group(terms: dict, measured_of: Callable, rest_of: Callable) -> dict:
    """A ket's terms, keyed as ``terms``, by measured occupation
    (``measured_of`` of a key), in the order of each group's first kept
    term: ``measured -> [w, {rest_of(key): amp}]``, pruned as
    ``FockKet._trusted`` prunes, ``w`` summing the kept squared ``abs`` from
    0.0 in term order.  It groups a ket's own terms, and after a unitary
    the terms of a state whose terms share rest occupations, summed by
    ``_scatter_terms``; ``_scatter_groups`` gives the same groups in one
    pass when none do."""
    tol = fock.PRUNE_TOL
    groups: dict[tuple[int, ...], list] = {}
    for occ, amp in terms.items():
        if (m := abs(a := 0.0 + amp)) > tol:
            key = measured_of(occ)
            group = groups.get(key)
            if group is None:  # 0.0 + m ** 2 is m ** 2
                groups[key] = [m ** 2, {rest_of(occ): a}]
            else:
                group[0] += m ** 2
                group[1][rest_of(occ)] = a
    return groups


def _entries(u: ModeUnitary, plan_key: tuple | None,
             row: Callable[[int], Sequence[float]]) -> tuple[dict, Callable]:
    """The entries a herald through ``u`` reads, and the function that
    makes a missing one: ``u``'s transfer table and ``u.sector``, or with
    ``plan_key`` (``povm.plan_key`` at ``eta = 1``, else None) the plan it
    names on ``u``, which keeps only the outputs whose ``row`` (of an
    output index) is not all 0.0: a dead output makes no term
    and so no group.  The plan grows here, one acted occupation at a time,
    and keeps the table entry's largest output."""
    if plan_key is None:
        return u._table, u.sector
    plan = u._plans.setdefault(plan_key, {})

    def sector(acted):
        entry = u.sector(acted)
        live = tuple(out for out in entry[1] if any(row(out[1])))
        if len(live) < len(entry[1]):
            entry = (entry[0], live, entry[2])
        plan[acted] = entry
        return entry
    return plan, sector


def _scatter_groups(state: FockKet, rests: list, measured_of: Callable, table: dict,
                    sector: Callable) -> tuple[dict, int]:
    """``_group`` of the terms of ``_scatter_terms`` in one pass, for a
    ``state`` none of whose terms share a rest occupation (``rests``, in
    term order), and the largest output occupation.  Each (output index,
    rest) key is then met by one input term only, and only once, since
    the outputs of one table entry are distinct: its amplitude is the
    ``0.0 + pref * c * pf`` that ``_scatter_terms`` would store, and the
    keys come in the order that dict would hold them, the transformed
    ket's term order.  So each output is pruned and added to its group
    (keyed by output index) as it is made, with the bits and in the order
    of ``_group``.  A group is made with its first output in it, its
    weight that output's ``m ** 2`` (``0.0 + m ** 2``)."""
    tol = fock.PRUNE_TOL
    groups: dict[int, list] = {}
    max_occ = 0
    for (occ, amp), rest in zip(state.terms.items(), rests):
        acted = measured_of(occ)
        nf, outputs, top = table.get(acted) or sector(acted)
        pref = amp / nf
        for _, i, c, pf in outputs:
            if (m := abs(a := 0.0 + pref * c * pf)) > tol:
                group = groups.get(i)
                if group is None:
                    groups[i] = [m ** 2, {rest: a}]
                else:
                    group[0] += m ** 2
                    group[1][rest] = a
        if top > max_occ:
            max_occ = top
    return groups, max_occ


def _scatter_terms(state: FockKet, rests: list, measured_of: Callable, table: dict,
                   sector: Callable) -> tuple[dict, int]:
    """The terms of a unitary applied to the measured modes of ``state``
    (``measured_of`` of a key, in detector order), without building that
    ket: ``{(output index, rest occupation): amp}``, the same amplitudes in
    the same order as that ket's terms, and the largest output occupation.

    Each input term is one lookup in ``table`` (made by ``sector`` when
    missing, see ``_entries``) and one scatter, summing ``pref * c * pf``
    from 0.0 in input-term order as ``apply_mode_unitary`` does; ``rests``
    holds each term's rest occupation, in term order.
    """
    terms: dict[tuple, complex] = {}
    get = terms.get
    max_occ = 0
    for (occ, amp), rest in zip(state.terms.items(), rests):
        acted = measured_of(occ)
        nf, outputs, top = table.get(acted) or sector(acted)
        pref = amp / nf
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
    of ``state`` in detector order, which is never built; the groups are
    keyed by output index, each group's row is looked up by that index,
    and the branches take the raised cutoff.  Which way the groups are made
    is read from ``state`` on each call: when no two of its terms share a
    rest occupation (scheme A's double-pass source, on scheme A's
    detectors), ``_scatter_groups`` makes them in one pass; otherwise
    (scheme B's source) ``_group`` groups the terms that ``_scatter_terms``
    sums.  Both give the same groups in the same order.
    When ``outcomes`` leaves some out, a group whose row is exactly 0.0 on
    every outcome asked for adds to no sum and builds no branch; at ``eta =
    1`` the unitary's plan keeps such a group from being scattered at all.
    A squared amplitude, a group's weight or a finished sum beyond the float
    range raises ``FockKet.norm``'s error; the sums are checked once, when
    done, so finite input does no extra work per term.  An outcome left out
    may be the one that overflows, so when ``outcomes`` leaves some out, one
    pass over the amplitudes bounds the ket's norm, and a ket whose norm may
    exceed ``_SAFE_NORM`` is first weighed under every outcome: the table
    raises exactly when the full one does.
    """
    det = ThresholdDetector(eta)
    povm = _Povm.of(state.register, detectors, outcomes)
    if povm.take is not None and max(map(abs, state.terms.values()), default=0.0) \
            * math.sqrt(len(state.terms)) > _SAFE_NORM:
        coincidence_table(state, detectors, eta, unitary)  # raises if the full table does
    cutoff = state.register.cutoff
    branches: list[list[tuple[float, FockKet]]] = [[] for _ in povm.outcomes]
    sums = [0.0] * len(povm.outcomes)
    try:
        if unitary is None:
            row = povm.rows(det, cutoff)
            groups = _group(state.terms, povm.measured_of, povm.rest_of)
        else:
            _check_acted(unitary, povm.measured, cutoff)
            row = povm.rows(det, cutoff, unitary._powers)
            entries = _entries(unitary, povm.plan_key if eta == 1.0 else None, row)
            rests = list(map(povm.rest_of, state.terms))
            if len(set(rests)) == len(rests):  # each (output, rest) key is made once
                groups, top = _scatter_groups(state, rests, povm.measured_of, *entries)
            else:
                terms, top = _scatter_terms(state, rests, povm.measured_of, *entries)
                groups = _group(terms, itemgetter(0), itemgetter(1))
            cutoff = max(top, cutoff)
        rest_reg = ModeRegister._derived(povm.rest_labels, cutoff) if povm.rest_idx else None
        branch, sqrt = FockKet._trusted, math.sqrt
        for key, (w, sub) in groups.items():
            ket = None
            for i, p_out in enumerate(row(key)):
                contrib = w * p_out
                if contrib > 0.0:
                    sums[i] += contrib
                    if rest_reg is None:
                        continue
                    if ket is None:
                        ket = branch(rest_reg, sub, 1.0 / sqrt(w))
                    branches[i].append((contrib, ket))
        if not all(map(math.isfinite, sums)):  # a group's weight or a sum is inf
            raise OverflowError
    except OverflowError:  # a squared amplitude or a sum is beyond the float range
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
