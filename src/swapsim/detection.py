"""Threshold (vacuum vs. non-vacuum) detectors with efficiency eta.

Loss model: each photon at a detector survives independently with
probability eta, so a mode (or group of modes covered by one detector)
holding n photons stays silent with probability (1 - eta)^n and clicks
with probability 1 - (1 - eta)^n.

Conditioning keys ensembles on the measured-mode occupation tuple:
branches with distinct measured occupations are incoherent, branches
sharing them stay coherent.  This is exact for POVMs diagonal in the
measured modes' Fock basis.
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
    """Binary photon detector; ``dark_count_rate`` is reserved and must stay 0."""

    eta: float
    dark_count_rate: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"detector efficiency must be in [0, 1], got {self.eta}")
        if self.dark_count_rate != 0.0:
            raise NotImplementedError("dark counts are not modeled")

    def p_silent(self, n: int) -> float:
        return (1.0 - self.eta) ** n

    def p_click(self, n: int) -> float:
        return 1.0 - (1.0 - self.eta) ** n


@dataclass(frozen=True)
class DetectorAssignment:
    """One detector watching one or more modes, with a required outcome."""

    name: str
    modes: tuple[str, ...]
    detector: ThresholdDetector
    outcome: str

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        if self.outcome not in (CLICK, SILENT):
            raise ValueError(f"outcome must be {CLICK!r} or {SILENT!r}")


@dataclass(frozen=True)
class ClickPattern:
    assignments: tuple[DetectorAssignment, ...]

    def __post_init__(self):
        object.__setattr__(self, "assignments", tuple(self.assignments))
        seen = [m for a in self.assignments for m in a.modes]
        if len(set(seen)) != len(seen):
            raise ValueError("a mode may appear under at most one detector")


@dataclass(frozen=True)
class ConditionalOutcome:
    """Pattern probability plus the conditional ensemble on unmeasured modes."""

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


def measure_pattern(state: FockKet, pattern: ClickPattern) -> ConditionalOutcome:
    """Exact probability and conditional ensemble for one click pattern."""
    reg = state.register
    measured_modes = [m for a in pattern.assignments for m in a.modes]
    measured_idx = [reg.index(m) for m in measured_modes]
    groups, rest_idx = _group_by_measured(state, measured_idx)
    rest_reg = (ModeRegister(tuple(reg.labels[i] for i in rest_idx), reg.cutoff)
                if rest_idx else None)

    # per-detector slice of the measured-occupation key
    spans = []
    pos = 0
    for a in pattern.assignments:
        spans.append((a, slice(pos, pos + len(a.modes))))
        pos += len(a.modes)

    # A branch is normalized in one build, by 1/sqrt(w), when no amplitude of
    # its group would be pruned: then FockKet(rest_reg, sub).normalized() sums
    # the same squares and scales the same amplitudes.  Rounding is monotone,
    # so a square above tol**2 means a magnitude above tol.  A state built
    # under a lower tolerance than the current one takes the two-step path.
    tol = fock._prune_tol
    floor = tol * tol
    total = 0.0
    branches: list[tuple[float, FockKet]] = []
    for key, sub in groups.items():
        squares = [abs(a) ** 2 for a in sub.values()]
        w = sum(squares)
        p_out = 1.0
        for a, span in spans:
            n = sum(key[span])
            p_out *= a.detector.p_click(n) if a.outcome == CLICK else a.detector.p_silent(n)
        contrib = w * p_out
        if contrib > 0.0:
            total += contrib
            if rest_reg is None:
                continue
            if min(squares) > floor:
                c = 1.0 / math.sqrt(w)
                ket = FockKet._trusted(rest_reg, {o: c * a for o, a in sub.items()})
            else:
                ket = FockKet(rest_reg, sub).normalized()
            branches.append((contrib, ket))

    if total <= 0.0:
        return ConditionalOutcome(0.0, None, impossible=True)
    ensemble = WeightedEnsemble.from_branches(branches) if branches else None
    return ConditionalOutcome(total, ensemble)


def coincidence_table(
    state: FockKet,
    detectors: Sequence[tuple[str, tuple[str, ...]]],
    eta: float,
) -> dict[tuple[str, ...], float]:
    """Joint click/silent probability for every outcome combination.

    ``detectors`` is a list of (name, covered modes).  The returned table is
    keyed by outcome tuples in detector order and sums to 1.
    """
    det = ThresholdDetector(eta)
    reg = state.register
    measured_modes = [m for _, modes in detectors for m in modes]
    measured_idx = [reg.index(m) for m in measured_modes]
    groups, _ = _group_by_measured(state, measured_idx)

    spans = []
    pos = 0
    for name, modes in detectors:
        spans.append(slice(pos, pos + len(modes)))
        pos += len(modes)

    table: dict[tuple[str, ...], float] = {
        out: 0.0 for out in itertools.product((CLICK, SILENT), repeat=len(detectors))
    }
    for key, sub in groups.items():
        w = sum(abs(a) ** 2 for a in sub.values())
        clicks = [det.p_click(sum(key[s])) for s in spans]
        for out in table:
            p = w
            for o, pc in zip(out, clicks):
                p *= pc if o == CLICK else 1.0 - pc
            table[out] += p
    return table


def marginal_click_probability(table: dict, detector_index: int) -> float:
    return sum(p for out, p in table.items() if out[detector_index] == CLICK)
