"""Threshold (vacuum vs. non-vacuum) detectors with efficiency eta.

Loss model: each photon at a detector survives independently with
probability eta, so a mode (or group of modes covered by one detector)
holding n photons stays silent with probability (1 - eta)^n and clicks
with probability 1 - (1 - eta)^n.

``measure`` is the one implementation of this POVM.  It returns every
click/silent outcome of a set of detectors at once, keyed by a tuple of
``CLICK``/``SILENT`` in detector order.  The state is grouped once by the
occupation of the measured modes: groups with distinct measured occupations
are incoherent, terms sharing them stay coherent.  This is exact for POVMs
diagonal in the measured modes' Fock basis.  A group's normalized branch on
the unmeasured modes does not depend on the outcome (only its weight does),
so it is built once and shared by every outcome it contributes to.

``measure`` runs in two phases, which ``bench/spans.py`` times by name:
``coincidence_table`` groups the state, weighs every group under every
outcome and builds the branches, and ``measure_pattern`` turns one
outcome's probability and weighted branches into its ensemble.  Callers use
``measure``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

from . import fock
from .fock import FockKet, ModeRegister, WeightedEnsemble

CLICK = "click"
SILENT = "silent"


@dataclass(frozen=True)
class ThresholdDetector:
    """Binary photon detector with per-photon efficiency ``eta``."""

    eta: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"detector efficiency must be in [0, 1], got {self.eta}")

    def p_silent(self, n: int) -> float:
        return (1.0 - self.eta) ** n

    def p_click(self, n: int) -> float:
        return 1.0 - (1.0 - self.eta) ** n


@dataclass(frozen=True)
class ConditionalOutcome:
    """Outcome probability plus the conditional ensemble on unmeasured modes."""

    probability: float
    ensemble: WeightedEnsemble | None
    impossible: bool = False


def _group_by_measured(state: FockKet, measured_idx: Sequence[int]):
    rest_idx = [i for i in range(state.register.size) if i not in measured_idx]
    groups: dict[tuple[int, ...], dict[tuple[int, ...], complex]] = {}
    for occ, amp in state.terms.items():
        key = tuple(occ[i] for i in measured_idx)
        rest = tuple(occ[i] for i in rest_idx)
        groups.setdefault(key, {})[rest] = amp
    return groups, rest_idx


def _branch(rest_reg: ModeRegister, sub: dict, squares: list, w: float) -> FockKet | None:
    """A group's normalized ket on the unmeasured modes; None if pruning
    leaves no term of it.

    The branch is normalized in one build, by 1/sqrt(w), when no amplitude of
    its group would be pruned: then FockKet(rest_reg, sub).normalized() sums
    the same squares and scales the same amplitudes.  Rounding is monotone,
    so a square above tol**2 means a magnitude above tol.  A state built
    under a lower tolerance than the current one takes the two-step path.
    """
    tol = fock._prune_tol
    if min(squares) > tol * tol:
        c = 1.0 / math.sqrt(w)
        return FockKet._trusted(rest_reg, {o: c * a for o, a in sub.items()})
    ket = FockKet(rest_reg, sub)
    return ket.normalized() if ket.terms else None


def coincidence_table(
    state: FockKet,
    detectors: Sequence[Sequence[str]],
    eta: float,
) -> dict[tuple[str, ...], tuple[float, list[tuple[float, FockKet]]]]:
    """First phase of ``measure``: group the state once, weigh every group
    under every outcome and build each group's branch the first time an
    outcome needs it.

    Maps each outcome, in ``measure``'s order, to its probability and its
    ``(contrib, branch)`` pairs in group order, where ``contrib = w * p_out``
    is the group's weight times the product over detectors of each one's
    click or silent probability.  The pairs are empty when no mode is left
    unmeasured.
    """
    det = ThresholdDetector(eta)
    detectors = [tuple(modes) for modes in detectors]
    measured_modes = [m for modes in detectors for m in modes]
    if len(set(measured_modes)) != len(measured_modes):
        raise ValueError("a mode may appear under at most one detector")
    reg = state.register
    groups, rest_idx = _group_by_measured(state, [reg.index(m) for m in measured_modes])
    rest_reg = (ModeRegister(tuple(reg.labels[i] for i in rest_idx), reg.cutoff)
                if rest_idx else None)

    # per-detector slice of the measured-occupation key
    spans = []
    pos = 0
    for modes in detectors:
        spans.append(slice(pos, pos + len(modes)))
        pos += len(modes)

    outcomes = list(itertools.product((CLICK, SILENT), repeat=len(detectors)))
    totals = [0.0] * len(outcomes)
    branches: list[list[tuple[float, FockKet]]] = [[] for _ in outcomes]
    for key, sub in groups.items():
        squares = [abs(a) ** 2 for a in sub.values()]
        w = sum(squares)
        probs = []
        for span in spans:
            n = sum(key[span])
            probs.append({CLICK: det.p_click(n), SILENT: det.p_silent(n)})
        ket = None
        built = rest_reg is None
        for i, out in enumerate(outcomes):
            p_out = 1.0
            for p, o in zip(probs, out):
                p_out *= p[o]
            contrib = w * p_out
            if contrib > 0.0:
                totals[i] += contrib
                if not built:
                    ket = _branch(rest_reg, sub, squares, w)
                    built = True
                if ket is not None:
                    branches[i].append((contrib, ket))
    return dict(zip(outcomes, zip(totals, branches)))


def measure_pattern(total: float, branches: list[tuple[float, FockKet]]) -> ConditionalOutcome:
    """Second phase of ``measure``: one outcome's ``ConditionalOutcome`` from
    its probability and weighted branches in ``coincidence_table``."""
    if total <= 0.0:
        return ConditionalOutcome(0.0, None, impossible=True)
    ensemble = WeightedEnsemble.from_branches(branches) if branches else None
    return ConditionalOutcome(total, ensemble)


def measure(
    state: FockKet,
    detectors: Sequence[Sequence[str]],
    eta: float,
) -> dict[tuple[str, ...], ConditionalOutcome]:
    """Exact probability and conditional ensemble of every click/silent outcome.

    ``detectors`` lists the modes each threshold detector covers; a mode may
    appear under at most one detector.  The result is keyed by outcome tuples
    in detector order, in ``itertools.product((CLICK, SILENT), ...)`` order,
    and its probabilities sum to 1.  An outcome's ensemble is None when no
    mode is left unmeasured, when the outcome is impossible (``impossible``
    is then set and the probability is 0), or when every branch it has was
    pruned away.
    """
    table = coincidence_table(state, detectors, eta)
    return {out: measure_pattern(total, branches)
            for out, (total, branches) in table.items()}
