"""Sparse multimode Fock kets over a fixed register of named modes.

A state is a sparse map from occupation tuples to complex amplitudes.
Amplitudes with magnitude below the pruning tolerance are discarded at
construction; the tolerance can be overridden (or disabled) with the
``pruning`` context manager.  All values are immutable after construction
and every operation is a pure function.

A ket is built by one of two constructors.  The public ``FockKet(register,
terms)`` takes outside input: it converts every occupation to an int tuple,
checks its length and cutoff, merges duplicate keys and rejects NaN or
infinite amplitudes.  Sources, Bell targets, ``vacuum``, ``from_json_dict``,
hand-written kets and the whole dense oracle use it; the oracle is the
independent cross-check, so it must not share the fast path it checks.
``FockKet._trusted`` is for terms the engine derived from valid kets
(``scaled``/``normalized``, ``reorder``, ``relabel``, ``tensor_product``,
``partial_project``, ``elements.apply_mode_unitary`` and the heralded
branches of ``detection.measure``).  Their keys are already distinct
int tuples of register length within the cutoff, so it skips those checks
and keeps only the amplitude arithmetic: on such terms both constructors
give bit-identical kets.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

DEFAULT_PRUNE_TOL = 1e-14

_prune_tol = DEFAULT_PRUNE_TOL


class pruning:
    """Temporarily override the zero-pruning tolerance (0 disables pruning)."""

    def __init__(self, tol: float):
        self.tol = float(tol)

    def __enter__(self):
        global _prune_tol
        self._saved = _prune_tol
        _prune_tol = self.tol
        return self

    def __exit__(self, *exc):
        global _prune_tol
        _prune_tol = self._saved
        return False


@dataclass(frozen=True)
class ModeRegister:
    """Ordered, named optical modes with a shared per-mode photon cutoff."""

    labels: tuple[str, ...]
    cutoff: int

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(l) for l in self.labels))
        if len(self.labels) == 0:
            raise ValueError("register needs at least one mode")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate mode labels: {self.labels}")
        if self.cutoff < 1:
            raise ValueError("cutoff must be >= 1")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"mode {label!r} not in register {self.labels}") from None

    def with_cutoff(self, cutoff: int) -> "ModeRegister":
        return ModeRegister(self.labels, cutoff)


class FockKet:
    """Sparse (possibly unnormalized) pure state on a mode register."""

    __slots__ = ("register", "terms")

    def __init__(self, register: ModeRegister, terms: Mapping[tuple, complex]):
        tol = _prune_tol
        clean: dict[tuple[int, ...], complex] = {}
        m = register.size
        for occ, amp in terms.items():
            occ = tuple(int(n) for n in occ)
            if len(occ) != m:
                raise ValueError(f"occupation {occ} does not match register size {m}")
            for n in occ:
                if n < 0 or n > register.cutoff:
                    raise ValueError(f"occupation {occ} violates cutoff {register.cutoff}")
            amp = complex(amp)
            if not cmath.isfinite(amp):
                raise ValueError(f"amplitude of {occ} must be finite, got {amp}")
            clean[occ] = clean.get(occ, 0.0) + amp
        if tol > 0:
            clean = {occ: a for occ, a in clean.items() if abs(a) > tol}
        self.register = register
        self.terms = clean

    @classmethod
    def _trusted(cls, register: ModeRegister,
                 terms: Mapping[tuple[int, ...], complex]) -> "FockKet":
        """Build from engine-derived terms: distinct int-tuple keys of register
        length within the cutoff.  Only the amplitudes are touched, exactly as
        in ``__init__``: ``0.0 +`` turns -0.0 parts into +0.0, then pruning."""
        tol = _prune_tol
        self = object.__new__(cls)
        self.register = register
        if tol > 0:
            self.terms = {occ: a for occ, amp in terms.items()
                          if abs(a := 0.0 + complex(amp)) > tol}
        else:
            self.terms = {occ: 0.0 + complex(amp) for occ, amp in terms.items()}
        return self

    def items(self) -> Iterator[tuple[tuple[int, ...], complex]]:
        return iter(self.terms.items())

    def amplitude(self, occ: Iterable[int]) -> complex:
        return self.terms.get(tuple(int(n) for n in occ), 0.0 + 0.0j)

    def norm(self) -> float:
        try:
            n = math.sqrt(sum(abs(a) ** 2 for a in self.terms.values()))
        except OverflowError:  # one squared amplitude is beyond the float range
            n = math.inf
        if n == math.inf:
            raise ValueError("ket norm overflows the float range")
        return n

    def normalized(self) -> "FockKet":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero ket")
        return self.scaled(1.0 / n)

    def scaled(self, c: complex) -> "FockKet":
        if not cmath.isfinite(c):
            raise ValueError(f"scale factor must be finite, got {c}")
        return FockKet._trusted(self.register, {occ: c * a for occ, a in self.terms.items()})

    def num_terms(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return f"FockKet({format_ket(self)})"


def vacuum(register: ModeRegister) -> FockKet:
    return FockKet(register, {(0,) * register.size: 1.0})


def _require_same_modes(a: FockKet, b: FockKet):
    if a.register.labels != b.register.labels:
        raise ValueError(
            f"register mismatch: {a.register.labels} vs {b.register.labels}"
        )


def tensor_product(a: FockKet, b: FockKet) -> FockKet:
    """Concatenate registers; amplitudes multiply term-by-term."""
    overlap = set(a.register.labels) & set(b.register.labels)
    if overlap:
        raise ValueError(f"mode label collision in tensor product: {sorted(overlap)}")
    reg = ModeRegister(a.register.labels + b.register.labels,
                       max(a.register.cutoff, b.register.cutoff))
    terms = {}
    for occ_a, amp_a in a.terms.items():
        for occ_b, amp_b in b.terms.items():
            terms[occ_a + occ_b] = amp_a * amp_b
    return FockKet._trusted(reg, terms)


def inner_product(a: FockKet, b: FockKet) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    _require_same_modes(a, b)
    small, big = (a, b) if len(a.terms) <= len(b.terms) else (b, a)
    total = 0.0 + 0.0j
    for occ, _ in small.terms.items():
        total += a.terms.get(occ, 0.0).conjugate() * b.terms.get(occ, 0.0)
    return total


BELL_KINDS = ("phi+", "phi-", "psi+", "psi-")


def bell_state(kind: str, modes: tuple[str, str], cutoff: int = 1) -> FockKet:
    """Two-mode Bell state in the vacuum/one-photon encoding.

    phi+/- = (|00> +/- |11>)/sqrt(2),  psi+/- = (|01> +/- |10>)/sqrt(2).
    """
    if kind not in BELL_KINDS:
        raise ValueError(f"unknown Bell kind {kind!r}; expected one of {BELL_KINDS}")
    reg = ModeRegister(tuple(modes), cutoff)
    s = 1.0 if kind.endswith("+") else -1.0
    r = 1.0 / math.sqrt(2.0)
    if kind.startswith("phi"):
        return FockKet(reg, {(0, 0): r, (1, 1): s * r})
    return FockKet(reg, {(0, 1): r, (1, 0): s * r})


@dataclass(frozen=True)
class WeightedEnsemble:
    """Probabilistic mixture of normalized pure kets on one register."""

    register: ModeRegister
    members: tuple[tuple[float, FockKet], ...]

    def __post_init__(self):
        if not self.members:
            raise ValueError("ensemble needs at least one member")
        total = 0.0
        for w, state in self.members:
            if w <= 0.0:
                raise ValueError(f"non-positive ensemble weight {w}")
            if state.register.labels != self.register.labels:
                raise ValueError("ensemble member register mismatch")
            total += w
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"ensemble weights sum to {total}, not 1")

    @classmethod
    def from_branches(cls, branches: Iterable[tuple[float, FockKet]]) -> "WeightedEnsemble":
        """Build from unnormalized (weight, normalized-state) branches."""
        branches = [(w, s) for w, s in branches if w > 0.0]
        if not branches:
            raise ValueError("no branches with positive weight")
        total = sum(w for w, _ in branches)
        members = tuple((w / total, s) for w, s in branches)
        return cls(branches[0][1].register, members)

    @classmethod
    def pure(cls, state: FockKet) -> "WeightedEnsemble":
        return cls(state.register, ((1.0, state.normalized()),))


def fidelity(e: WeightedEnsemble, target: FockKet) -> float:
    """Sum_i w_i |<target|state_i>|^2 for a normalized target ket."""
    if abs(target.norm() - 1.0) > 1e-9:
        raise ValueError("fidelity target must be normalized")
    if e.register.labels != target.register.labels:
        raise ValueError("register mismatch between ensemble and target")
    return sum(w * abs(inner_product(target, s)) ** 2 for w, s in e.members)


def reorder(state: FockKet, new_labels: Iterable[str]) -> FockKet:
    """Permute the register into the given label order."""
    new_labels = tuple(str(l) for l in new_labels)
    if sorted(new_labels) != sorted(state.register.labels):
        raise ValueError("reorder must use exactly the existing labels")
    perm = [state.register.index(l) for l in new_labels]
    reg = ModeRegister(new_labels, state.register.cutoff)
    return FockKet._trusted(
        reg, {tuple(occ[i] for i in perm): a for occ, a in state.terms.items()})


def relabel(state: FockKet, mapping: Mapping[str, str]) -> FockKet:
    """Rename modes in place (order preserved); new labels must stay unique."""
    new_labels = tuple(mapping.get(l, l) for l in state.register.labels)
    reg = ModeRegister(new_labels, state.register.cutoff)
    return FockKet._trusted(reg, state.terms)


def partial_project(state: FockKet, target: FockKet) -> FockKet:
    """Project a subset of modes onto ``target``; unnormalized ket on the rest.

    The squared norm of the result is the outcome probability for an ideal
    projective measurement onto the target.
    """
    sub = target.register.labels
    idx = [state.register.index(l) for l in sub]
    rest = [i for i in range(state.register.size) if i not in idx]
    if not rest:
        raise ValueError("projection must leave at least one mode")
    rest_labels = tuple(state.register.labels[i] for i in rest)
    reg = ModeRegister(rest_labels, state.register.cutoff)
    out: dict[tuple[int, ...], complex] = {}
    for occ, amp in state.terms.items():
        sub_occ = tuple(occ[i] for i in idx)
        t_amp = target.terms.get(sub_occ)
        if t_amp is None:
            continue
        rest_occ = tuple(occ[i] for i in rest)
        out[rest_occ] = out.get(rest_occ, 0.0) + t_amp.conjugate() * amp
    return FockKet._trusted(reg, out)


def format_ket(state: FockKet, digits: int = 6) -> str:
    if not state.terms:
        return "0"
    parts = []
    for occ, amp in sorted(state.terms.items()):
        label = "".join(str(n) for n in occ)
        if abs(amp.imag) < 1e-12:
            coeff = f"{amp.real:+.{digits}g}"
        else:
            coeff = f"+({amp.real:.{digits}g}{amp.imag:+.{digits}g}j)"
        parts.append(f"{coeff}|{label}>")
    return " ".join(parts)


def to_json_dict(state: FockKet) -> dict:
    """Debug serialization: {"modes": [...], "terms": [{"occ", "re", "im"}]}."""
    return {
        "modes": list(state.register.labels),
        "terms": [
            {"occ": list(occ), "re": amp.real, "im": amp.imag}
            for occ, amp in sorted(state.terms.items())
        ],
    }


def from_json_dict(data: Mapping, cutoff: int | None = None) -> FockKet:
    terms = {tuple(t["occ"]): complex(t["re"], t["im"]) for t in data["terms"]}
    if cutoff is None:
        cutoff = max((max(occ) for occ in terms), default=1)
        cutoff = max(cutoff, 1)
    reg = ModeRegister(tuple(data["modes"]), cutoff)
    return FockKet(reg, terms)
