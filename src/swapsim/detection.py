"""Threshold (vacuum vs. non-vacuum) detectors with efficiency eta.

Loss model: each photon at a detector survives independently with
probability eta, so a mode (or group of modes covered by one detector)
holding n photons stays silent with probability (1 - eta)^n and clicks
with probability 1 - (1 - eta)^n.

``measure`` is the one implementation of this POVM.  It groups the ket
once by the occupation of the measured modes: groups with distinct
measured occupations are incoherent, terms sharing them stay coherent,
which is exact for POVMs diagonal in the measured modes' Fock basis.  A
group's normalized branch on the unmeasured modes does not depend on the
outcome, only its weight does, so it is built once and shared by every
outcome it feeds.  ``outcomes`` is the one way to skip work no caller
reads, and a caller that reads only probabilities reads
``coincidence_table``'s totals.  ``measure`` runs in two phases, which
``bench/spans.py`` times by name: ``coincidence_table`` weighs the groups
and builds the branches, ``measure_pattern`` builds each ensemble.

Given a unitary on the measured modes, as in every herald, the groups come
one of two ways, read from the input on each call.  When two or more of
its terms share a rest occupation (the photons of the unmeasured modes),
as scheme B's source does from order 2, ``apply_mode_unitary`` builds the
transformed ket and ``_group`` groups it.  When none do (scheme A, and
scheme B at order 1), ``_scatter_groups`` makes the same groups in one
pass without building the ket, keyed by output index.

At ``eta`` exactly 1, with some outcomes left out, every row is 0.0s and
1.0s that the detector shape and the outcomes alone decide.  There the
scatter reads a plan, kept per unitary in ``ModeUnitary._plans`` under
``_Povm.plan_key`` and grown one acted occupation at a time: the transfer
table without the outputs whose row is 0.0 on every outcome asked for
(for the two heralds, photons at both detectors or at neither), whose
groups would add to no sum and build no branch.  Each plan entry keeps
its table entry's largest output, so branch cutoffs do not change.  Any
other ``eta`` reads the table, and the weighing skips what is dead: short
of an underflow only the vacuum in the interior, and every click outcome
at ``eta = 0``, which no default and no benchmark runs.

``mixture_tables`` weighs the phase tables: mixtures of two-mode kets
after a unitary on both modes.  It scatters each distinct ket keyed by
output index, without building the transformed ket, through the unitary's
slot plan for the ket's term layout, kept in ``ModeUnitary._slot_plans``
(``_slot_plan``).
"""
from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Sequence

from . import fock
from .elements import ModeUnitary, _check_acted, apply_mode_unitary
from .fock import FockKet, ModeRegister, WeightedEnsemble, _Memo, _Record, _tuple_getter

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


# (register labels, detectors, outcomes asked for) -> its _Povm, for the
# life of the process; a layout that fails a check raises before it is kept
_POVMS: dict[tuple, "_Povm"] = {}


class _Povm:
    """The set-up of one detector layout (register labels, detectors, outcomes
    asked for), made by ``of`` on first use and kept in ``_POVMS``; ``rows``
    makes what depends on ``eta``, per call.  ``plan_key`` names the plan
    that ``_entries`` reads at ``eta`` exactly 1: the detector shape (modes
    per detector) and the outcomes asked for, or None when all are."""

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
        unitary's ``_powers``) of an output index: one product per outcome
        asked for over the detectors' (click, silent) pairs, written out for
        two one-mode detectors (every herald and phase table), and otherwise
        over each detector's span of the key.  The pairs, ``(1.0 - q ** n, q
        ** n)`` with ``q = 1.0 - eta`` (the operations of
        ``ThresholdDetector.p_click`` and ``p_silent``), are one list per call
        by photon count, long enough for every measured photon in one mode, as
        a unitary on the measured modes can put them."""
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
    and the number of slots, one per output index up to the largest.  It is
    kept on the unitary whose table it reads, so it never meets another
    unitary's output indices."""
    table, sector = u._table, u.sector
    entries = tuple(table.get(occ) or sector(occ) for occ in layout)
    first = dict.fromkeys(out[1] for entry in entries for out in entry[1])
    plans = u._slot_plans
    if len(plans) >= _SLOT_PLANS_MAX:
        del plans[next(iter(plans))]
    plan = plans[layout] = (entries, tuple(first), max(first, default=-1) + 1)
    return plan


def _all_modes_probabilities(ket: FockKet, u: ModeUnitary, rows: _Memo) -> list[float]:
    """One two-mode ket's four outcome probabilities in ``mixture_tables``.
    The terms are scattered through ``u``'s slot plan into a slot per
    output index, each summed from 0.0 in input-term order, and weighed in
    the order the layout first meets them, which is the order of a dict
    keyed by output index, so every sum keeps its float order.  Each output
    is its own group of weight |amp|**2, skipped when building the
    transformed ket would prune it."""
    layout = tuple(ket.terms)
    entries, first, n_slots = u._slot_plans.get(layout) or _slot_plan(u, layout)
    amps = [0.0] * n_slots
    for amp, (nf, outputs, _) in zip(ket.terms.values(), entries):
        pref = amp / nf
        for _, i, c, pf in outputs:
            amps[i] += pref * c * pf
    tol = fock.PRUNE_TOL
    s0 = s1 = s2 = s3 = 0.0
    try:  # each slot began at 0.0: amps[i] is its own 0.0 + amp
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
    except OverflowError:  # one squared amplitude is beyond the float range
        raise ValueError("ket norm overflows the float range") from None
    return [s0, s1, s2, s3]


def mixture_tables(mixtures: Sequence[Sequence[tuple[float, FockKet]]], u: ModeUnitary,
                   eta: float) -> list[dict]:
    """One table per mixture of ``(w, ket)`` members on one set of two mode
    labels: the four outcomes' probabilities, keyed as ``measure``'s
    result, after ``u`` acts on both modes in register order, each mode
    measured by its own detector, in register order.  A table is ``sum_k
    w_k p_k(out)`` in member order from 0.0, each ``p_k`` with the bits of
    ``measure(apply_mode_unitary(ket, u, labels), [(m,) for m in labels],
    eta)``, and each distinct ket (by identity) is measured once, the first
    time a table needs it.  A member whose ``2 * w`` is below half an ulp
    of the table's smallest running entry is skipped there: ``p`` is at
    most 1 up to rounding, so ``w * p`` would change no bit.  Every member
    is checked first, those skipped too: no members at all, members on
    other labels, or on a number of modes other than two, raise
    ``ValueError``, and so does an entry that is not finite, with
    ``FockKet.norm``'s error.
    """
    kets = [ket for members in mixtures for _, ket in members]
    if not kets:
        raise ValueError("no mixture members to weigh")
    det = ThresholdDetector(eta)
    povm = _Povm.of(kets[0].register, [(m,) for m in kets[0].register.labels])
    if any(ket.register.labels != povm.labels for ket in kets):
        raise ValueError("the members of every mixture must share their mode labels")
    cutoff = max(ket.register.cutoff for ket in kets)
    _check_acted(u, povm.labels, cutoff)
    if len(povm.labels) != 2:
        raise ValueError(f"mixture tables weigh two-mode kets, got {len(povm.labels)} modes")
    rows = _Memo(povm.rows(det, cutoff, u._powers))  # its kets share output indices
    probs: dict[int, list[float]] = {}  # id(ket) -> its outcome probabilities
    tables = []
    for members in mixtures:
        j0 = j1 = j2 = j3 = 0.0
        # half an ulp of the smallest entry, made again only when that entry
        # moves; half an ulp of 0.0 rounds to 0.0: no member is skipped at 0.0
        low = half_ulp = 0.0
        for w, ket in members:
            if 2.0 * w < half_ulp:
                continue
            p = probs.get(id(ket))
            if p is None:
                p = probs[id(ket)] = _all_modes_probabilities(ket, u, rows)
            p0, p1, p2, p3 = p
            j0 += w * p0
            j1 += w * p1
            j2 += w * p2
            j3 += w * p3
            if (m := min(j0, j1, j2, j3)) != low:
                low, half_ulp = m, math.ulp(m) / 2
        table = [j0, j1, j2, j3]
        if not all(map(math.isfinite, table)):  # a ket's scattered sum overflowed
            raise ValueError("ket norm overflows the float range")
        tables.append(dict(zip(povm.outcomes, table)))
    return tables


def _group(terms: dict, measured_of: Callable, rest_of: Callable) -> dict:
    """A ket's terms, keyed as ``terms``, grouped by measured occupation
    (``measured_of`` of a key) in the order of each group's first kept
    term: ``measured -> [w, {rest_of(key): amp}]``, pruned as
    ``FockKet._trusted`` prunes, ``w`` summing the kept squared ``abs``
    from 0.0 in term order."""
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
    """The entries ``_scatter_groups`` reads through ``u`` and the function
    that makes a missing one: ``u``'s transfer table and ``u.sector``, or
    with ``plan_key`` the plan it names on ``u``, whose missing entry is
    the table's with only the outputs whose ``row`` is not all 0.0, in
    table order (the table's own entry when none is dead)."""
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
    """``_group`` of ``apply_mode_unitary``'s terms in one pass, keyed by
    output index instead of output occupation, and the largest output
    occupation, for a ``state`` none of whose terms share a rest occupation
    (``rests``, in term order).  Each input term is one lookup in ``table``
    (made by ``sector`` when missing) and one scatter.  Each (output, rest)
    key is then met by one input term only, and once, since the outputs of
    one table entry are distinct: its amplitude is the ``0.0 + pref * c *
    pf`` that ``apply_mode_unitary`` would store, and the keys come in the
    transformed ket's term order.  So each output is pruned and added to its
    group as it is made, with ``_group``'s bits and order; a group is made
    with its first output in it, its weight ``0.0 + m ** 2``, which is
    ``m ** 2``."""
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


def coincidence_table(
    state: FockKet,
    detectors: Sequence[Sequence[str]],
    eta: float,
    unitary: ModeUnitary | None = None,
    outcomes: Iterable[tuple[str, ...]] | None = None,
) -> dict[tuple[str, ...], tuple[float, list[tuple[float, FockKet]]]]:
    """First phase of ``measure``: maps each outcome asked for, in
    ``measure``'s order, to its probability and its ``(weight, branch)``
    pairs in group order (none when no mode is left unmeasured).  A group
    of squared norm ``w`` whose row entry for an outcome is ``p_out`` adds
    ``contrib = w * p_out``, when above 0.0, to that outcome's probability,
    a sum from 0.0 in group order.  Its branch, built the first time an
    outcome needs it, is its amplitudes times 1/sqrt(w) pruned as
    ``FockKet._trusted`` prunes: the bits of ``FockKet(rest_reg,
    sub).normalized()``.  With ``unitary`` the branches take the raised
    cutoff.

    A squared amplitude, a group's weight or a finished sum beyond the float
    range raises ``FockKet.norm``'s error; the sums are checked once, when
    done, so finite input does no extra work per term.  An outcome left out
    may be the one that overflows, so when ``outcomes`` leaves some out, a
    ket whose norm may exceed ``_SAFE_NORM`` (bounded in one pass over the
    amplitudes) is first weighed under every outcome: the table raises
    exactly when the full one does.
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
        if unitary is not None:
            rests = list(map(povm.rest_of, state.terms))
            if len(set(rests)) < len(rests):  # terms share a rest occupation
                state = apply_mode_unitary(state, unitary, povm.measured)
                cutoff, unitary = state.register.cutoff, None
        if unitary is None:
            row = povm.rows(det, cutoff)
            groups = _group(state.terms, povm.measured_of, povm.rest_of)
        else:  # each (output, rest) key is made once
            _check_acted(unitary, povm.measured, cutoff)
            row = povm.rows(det, cutoff, unitary._powers)
            entries = _entries(unitary, povm.plan_key if eta == 1.0 else None, row)
            groups, top = _scatter_groups(state, rests, povm.measured_of, *entries)
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
    """Second phase of ``measure``: one outcome's ``ConditionalOutcome``,
    its ensemble built from the branches (None when there are none)."""
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
    iterable of outcome tuples), the result is the full one restricted to
    them, bit for bit: the same keys in the same order, the same branch
    registers, and a branch that two of them share is one object, as in the
    full one.
    """
    table = coincidence_table(state, detectors, eta, unitary, outcomes)
    return {out: measure_pattern(total, branches)
            for out, (total, branches) in table.items()}
