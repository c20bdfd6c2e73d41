"""Sparse multimode Fock kets over a fixed register of named modes.

A state is a sparse map from occupation tuples to float or complex
amplitudes.  An amplitude that is real is a built-in ``float``, and the
engine never promotes it to ``complex``: real sources, real beam splitters
and real detection keep every multiply-add a float one.  A complex input
(a complex ``tau``) gives built-in ``complex`` amplitudes, and one ket may
hold both types.  Both give the same bits: CPython (3.10 to 3.13) evaluates
``float op complex`` by promoting the float to ``complex(x, 0.0)``, the real
part of a product or sum of such values is the float result but for the
sign of a zero, and every stored amplitude goes through ``0.0 +`` and every
weight through ``abs``, which erase that sign.

Amplitudes of magnitude at most ``PRUNE_TOL`` are discarded at
construction, by both constructors, so every ket holds only amplitudes
above it.  All values are immutable after construction and every
operation is a pure function; the package's value records derive from
``_Record``.

A ket is built by one of two constructors.  The public ``FockKet(register,
terms)`` checks outside input; the sources other than
``sources.double_pass_source``, the Bell targets, ``vacuum``, hand-written
kets and the whole dense oracle use it.  ``FockKet._trusted`` takes terms
the engine derived from valid kets: ``scaled``/``normalized``,
``reorder``, ``tensor_product``, ``partial_project``,
``sources.double_pass_source``, ``elements.apply_mode_unitary`` and the
heralded branches of ``detection.measure``.  On such terms both
constructors give bit-identical kets.

Registers follow the same split.  ``ModeRegister(labels, cutoff)`` checks
outside input (``sources.spdc_pair``'s modes, ``bell_state``,
``reorder``) on every call.  A register whose labels the package fixes
(the sources' and the protocols' constant kets) or takes from checked
registers (``tensor_product``, ``partial_project``, the heralded branches,
a raised cutoff) comes from ``ModeRegister._derived``.
"""
from __future__ import annotations

import cmath
import math
from functools import reduce
from itertools import repeat
from operator import add, itemgetter
from typing import Callable, Iterable, Iterator, Mapping, Sequence

PRUNE_TOL = 1e-14


def _tuple_getter(idx: Sequence[int]) -> Callable[[tuple], tuple]:
    """``t -> tuple(t[i] for i in idx)`` as one ``itemgetter`` call.  An
    ``itemgetter`` of one index returns a scalar and one of none cannot be
    built, so those two cases get their own function."""
    if len(idx) > 1:
        return itemgetter(*idx)
    if idx:
        i = idx[0]
        return lambda t: (t[i],)
    return lambda t: ()


def _left_sum(values: Iterable):
    """The sum of ``values`` added left to right from 0, with ``reduce``, the
    float order of the built-in ``sum`` up to Python 3.11 (from 3.12 on it
    compensates a sum of floats), so the package's bits do not depend on the
    interpreter: no amplitude or weight is summed by the built-in ``sum``."""
    return reduce(add, values, 0)


class _Record:
    """Immutable value record with ``repr``, ``==`` and ``hash`` over
    ``_fields``, in the format and semantics of a frozen standard-library
    record, written out by hand so that importing the package loads no
    record-generating module of the standard library (which would bring
    ``inspect``, ``ast`` and ``dis``).  A record names its fields in
    ``_fields`` and its storage in ``__slots__``; its ``__init__`` runs the
    checks and sets each slot with one ``object.__setattr__`` call, and
    ``copy`` and ``pickle`` rebuild it through ``__init__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):  # every __init__ takes the fields in order
        return type(self), self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class ModeRegister(_Record):
    """Ordered, named optical modes with a shared per-mode photon cutoff."""

    __slots__ = _fields = ("labels", "cutoff")

    def __init__(self, labels: Iterable[str], cutoff: int):
        labels = tuple(str(l) for l in labels)
        if len(labels) == 0:
            raise ValueError("register needs at least one mode")
        if len(set(labels)) != len(labels):
            raise ValueError(f"duplicate mode labels: {labels}")
        if cutoff < 1:
            raise ValueError("cutoff must be >= 1")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "cutoff", cutoff)

    @property
    def size(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"mode {label!r} not in register {self.labels}") from None

    def with_cutoff(self, cutoff: int) -> "ModeRegister":
        return ModeRegister._derived(self.labels, cutoff)

    @classmethod
    def _derived(cls, labels: tuple[str, ...], cutoff: int) -> "ModeRegister":
        """The register of ``labels`` at ``cutoff``, built by ``__init__`` the
        first time each (labels, cutoff) is asked for, which raises before a bad
        one is kept, and the same object on every later call (``_REGISTERS``)."""
        reg = _REGISTERS.get((labels, cutoff))
        if reg is None:
            reg = _REGISTERS[labels, cutoff] = cls(labels, cutoff)
        return reg


# (labels, cutoff) -> the register that ``ModeRegister._derived`` gives
# for them, for the life of the process
_REGISTERS: dict[tuple[tuple[str, ...], int], ModeRegister] = {}


class FockKet:
    """Sparse (possibly unnormalized) pure state on a mode register.  The
    constructor converts every occupation to an int tuple, checks its length
    and cutoff, merges duplicate keys, rejects NaN or infinite amplitudes and
    keeps an amplitude whose imaginary part is 0.0 as its real part."""

    __slots__ = ("register", "terms")

    def __init__(self, register: ModeRegister, terms: Mapping[tuple, complex]):
        clean: dict[tuple[int, ...], complex] = {}
        m = register.size
        for occ, amp in terms.items():
            occ = tuple(map(int, occ))
            if len(occ) != m:
                raise ValueError(f"occupation {occ} does not match register size {m}")
            if min(occ) < 0 or max(occ) > register.cutoff:
                raise ValueError(f"occupation {occ} violates cutoff {register.cutoff}")
            amp = complex(amp)
            if not cmath.isfinite(amp):
                raise ValueError(f"amplitude of {occ} must be finite, got {amp}")
            if amp.imag == 0.0:
                amp = amp.real
            clean[occ] = clean.get(occ, 0.0) + amp
        self.register = register
        self.terms = {occ: a for occ, a in clean.items() if abs(a) > PRUNE_TOL}

    @classmethod
    def _trusted(cls, register: ModeRegister, terms: Mapping[tuple[int, ...], complex],
                 scale: complex | None = None) -> "FockKet":
        """Build from engine-derived terms: distinct int-tuple keys of register
        length within the cutoff, and amplitudes that are built-in ``float``
        or ``complex``, kept as their type.  Only the amplitudes are touched,
        exactly as in ``__init__``: ``0.0 +`` turns -0.0 parts into +0.0,
        then pruning.  With ``scale`` (a built-in ``float`` or ``complex``),
        the amplitudes are multiplied by it in the same pass, with the bits
        of ``_trusted(register, {occ: scale * amp})``."""
        self = object.__new__(cls)
        self.register = register
        if scale is None:
            self.terms = {occ: a for occ, amp in terms.items()
                          if abs(a := 0.0 + amp) > PRUNE_TOL}
        else:
            self.terms = {occ: a for occ, amp in terms.items()
                          if abs(a := 0.0 + scale * amp) > PRUNE_TOL}
        return self

    def items(self) -> Iterator[tuple[tuple[int, ...], complex]]:
        return iter(self.terms.items())

    def amplitude(self, occ: Iterable[int]) -> complex:
        return self.terms.get(tuple(int(n) for n in occ), 0.0 + 0.0j)

    def norm(self) -> float:
        try:
            n = math.sqrt(_left_sum(map(pow, map(abs, self.terms.values()), repeat(2))))
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
        """The ket times ``c``; a real ``c`` multiplies as a ``float``, so a
        real ket stays real."""
        if not cmath.isfinite(c):
            raise ValueError(f"scale factor must be finite, got {c}")
        c = complex(c)
        return FockKet._trusted(self.register, self.terms, c.real if c.imag == 0.0 else c)

    def num_terms(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return f"FockKet({format_ket(self)})"


def vacuum(register: ModeRegister) -> FockKet:
    return FockKet(register, {(0,) * register.size: 1.0})


def tensor_product(a: FockKet, b: FockKet) -> FockKet:
    """Concatenate registers; amplitudes multiply term-by-term."""
    overlap = set(a.register.labels) & set(b.register.labels)
    if overlap:
        raise ValueError(f"mode label collision in tensor product: {sorted(overlap)}")
    reg = ModeRegister._derived(a.register.labels + b.register.labels,
                                max(a.register.cutoff, b.register.cutoff))
    terms = {}
    for occ_a, amp_a in a.terms.items():
        for occ_b, amp_b in b.terms.items():
            terms[occ_a + occ_b] = amp_a * amp_b
    return FockKet._trusted(reg, terms)


def inner_product(a: FockKet, b: FockKet) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.register.labels != b.register.labels:
        raise ValueError(f"register mismatch: {a.register.labels} vs {b.register.labels}")
    small = a if len(a.terms) <= len(b.terms) else b
    total = 0.0
    for occ in small.terms:
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


class WeightedEnsemble(_Record):
    """Probabilistic mixture of normalized pure kets on one register."""

    __slots__ = _fields = ("register", "members")

    def __init__(self, register: ModeRegister, members: tuple[tuple[float, FockKet], ...]):
        if not members:
            raise ValueError("ensemble needs at least one member")
        total = 0.0
        for w, state in members:
            if w <= 0.0:
                raise ValueError(f"non-positive ensemble weight {w}")
            if state.register.labels != register.labels:
                raise ValueError("ensemble member register mismatch")
            total += w
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"ensemble weights sum to {total}, not 1")
        object.__setattr__(self, "register", register)
        object.__setattr__(self, "members", members)

    @classmethod
    def from_branches(cls, branches: Iterable[tuple[float, FockKet]]) -> "WeightedEnsemble":
        """Build from unnormalized (weight, normalized-state) branches: those
        of weight above 0.0, each weight divided by their ``_left_sum``."""
        branches = [b for b in branches if b[0] > 0.0]
        if not branches:
            raise ValueError("no branches with positive weight")
        total = _left_sum(map(itemgetter(0), branches))
        return cls(branches[0][1].register, tuple([(w / total, s) for w, s in branches]))

    @classmethod
    def pure(cls, state: FockKet) -> "WeightedEnsemble":
        return cls(state.register, ((1.0, state.normalized()),))


def fidelity(e: WeightedEnsemble, target: FockKet) -> float:
    """Sum_i w_i |<target|state_i>|^2 for a normalized target ket."""
    if abs(target.norm() - 1.0) > 1e-9:
        raise ValueError("fidelity target must be normalized")
    if e.register.labels != target.register.labels:
        raise ValueError("register mismatch between ensemble and target")
    return _left_sum(w * abs(inner_product(target, s)) ** 2 for w, s in e.members)


def reorder(state: FockKet, new_labels: Iterable[str]) -> FockKet:
    """Permute the register into the given label order."""
    new_labels = tuple(str(l) for l in new_labels)
    if sorted(new_labels) != sorted(state.register.labels):
        raise ValueError("reorder must use exactly the existing labels")
    perm = [state.register.index(l) for l in new_labels]
    reg = ModeRegister(new_labels, state.register.cutoff)
    return FockKet._trusted(
        reg, {tuple(occ[i] for i in perm): a for occ, a in state.terms.items()})


# (state labels, target labels) -> (target-occupation getter, rest getter,
# rest labels), for the life of the process; a pair that fails a check
# raises before it is kept
_PROJECTIONS: dict[tuple, tuple[Callable, Callable, tuple[str, ...]]] = {}


def partial_project(state: FockKet, target: FockKet) -> FockKet:
    """Project a subset of modes onto ``target``; unnormalized ket on the rest,
    whose squared norm is the outcome probability of an ideal projective
    measurement onto the target.  The getters and the labels left depend
    only on the two registers' labels, so they are made once per pair of
    label tuples (``_PROJECTIONS``).
    """
    labels = state.register.labels
    layout = _PROJECTIONS.get((labels, target.register.labels))
    if layout is None:
        idx = [state.register.index(l) for l in target.register.labels]
        rest = [i for i in range(state.register.size) if i not in idx]
        if not rest:
            raise ValueError("projection must leave at least one mode")
        layout = _PROJECTIONS[labels, target.register.labels] = (
            _tuple_getter(idx), _tuple_getter(rest), tuple(labels[i] for i in rest))
    sub_of, rest_of, rest_labels = layout
    reg = ModeRegister._derived(rest_labels, state.register.cutoff)
    out: dict[tuple[int, ...], complex] = {}
    for occ, amp in state.terms.items():
        t_amp = target.terms.get(sub_of(occ))
        if t_amp is None:
            continue
        rest_occ = rest_of(occ)
        out[rest_occ] = out.get(rest_occ, 0.0) + t_amp.conjugate() * amp
    return FockKet._trusted(reg, out)


class _Memo(dict):
    """A dict whose missing value is made by ``make(key)`` on its first
    lookup and kept."""

    __slots__ = ("make",)

    def __init__(self, make: Callable):
        self.make = make  # dict.__new__ made the empty dict

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


# term layout -> format_ket's plan for it; a new layout past this drops the
# oldest, so a run of ever-new layouts keeps the dict small
_KET_PLANS_MAX = 256
_KET_PLANS: dict[tuple[tuple[int, ...], ...], tuple[str, Callable, list]] = {}


def format_ket(state: FockKet) -> str:
    """The ket's terms by occupation, ``+0.6|10> -0.8|01>``: each amplitude
    to 6 significant digits with its sign, an imaginary part below 1e-12
    left out, and ``"0"`` for a ket with no terms.  The text comes from a
    plan keyed by the ket's term layout, ``tuple(state.terms)``, made on
    first use and kept in ``_KET_PLANS`` (at most ``_KET_PLANS_MAX``): the
    template ``"%+.6g|01> %+.6g|10>"`` with each occupation's label in
    sorted order, the getter of the amplitudes in that order, and the
    sorted occupations.  A ket of ``float`` amplitudes, every real ket, is
    one ``%`` call of the template, which gives each term's
    ``f"{amp:+.6g}|{label}>"``; a ``complex`` amplitude makes that call
    raise ``TypeError``, and such a ket goes term by term over the sorted
    occupations."""
    terms = state.terms
    if not terms:
        return "0"
    layout = tuple(terms)
    plan = _KET_PLANS.get(layout)
    if plan is None:
        occs = sorted(layout)
        if len(_KET_PLANS) >= _KET_PLANS_MAX:
            del _KET_PLANS[next(iter(_KET_PLANS))]
        template = " ".join(["%+.6g|" + "".join(map(str, occ)) + ">" for occ in occs])
        plan = _KET_PLANS[layout] = (template, _tuple_getter(occs), occs)
    template, amps_of, occs = plan
    try:
        return template % amps_of(terms)
    except TypeError:
        pass
    parts = []
    for occ in occs:
        amp = terms[occ]
        if abs(amp.imag) < 1e-12:
            coeff = f"{amp.real:+.6g}"
        else:
            coeff = f"+({amp.real:.6g}{amp.imag:+.6g}j)"
        parts.append(f"{coeff}|{''.join(map(str, occ))}>")
    return " ".join(parts)
