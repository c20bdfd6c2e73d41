"""Linear-optical elements acting on Fock kets.

An element is a unitary matrix on a small set of modes.  It acts on a ket
through the creation-operator substitution a_k^dag -> sum_j M[j,k] a_j^dag,
expanded multinomially with exact integer factorials.

A ``ModeUnitary`` holds its matrix as ``entries``, a tuple of rows of
built-in Python ``complex``, so the engine needs no numpy: the unitarity
check and the expansion are plain Python.  Every transfer-table
coefficient is a built-in ``float`` when every entry is real (each beam
splitter and rotation here), so a real ket stays real through it with
float arithmetic, and a built-in ``complex`` otherwise.  ``.matrix`` is
the same matrix as a read-only numpy array, built and cached on first
access, for the dense oracle and for callers that want array algebra.

The expansion depends only on the acted occupation (n_a, n_b, ...), not on
the rest of the ket, so each ``ModeUnitary`` keeps a transfer table: for
every acted occupation it has met, sqrt(prod n!), the output terms
(powers, index, c, sqrt(prod p!)) and the largest output occupation.  An
entry is built once, on first use; ``index`` numbers each distinct output
occupation in the order the table first met it, and ``_powers`` maps it
back.  ``apply_mode_unitary`` applies the table with a lookup and a
scatter per input term, through ``itemgetter`` calls.
``detection.measure`` (given a unitary on the measured modes) and
``detection.mixture_tables`` (a unitary on whole registers) read the same
table without building a ket, keyed by ``index``.  Amplitudes come out
as amp / sqrt(prod n!) * c * sqrt(prod p!), the same float operations in
the same order for a cold or a warm table.  The entries are immutable so that the table cannot go
stale, and ``balanced_bs()`` returns one shared instance whose table
every protocol reuses.  A table has at most one entry per acted
occupation within MAX_FACTORIAL_CUTOFF, so even the shared one stays
small.  Where ``apply_mode_unitary`` reads the acted modes and writes the
output keys depends only on the register's labels and the acted modes, so
those getters are made once per such layout; the checks run on every call.

Beside the table a ``ModeUnitary`` keeps its plans, ``_plans``.  A plan
is the table cut down for one use of it, keyed by what decides that use
and grown with the table, one acted occupation at a time: its entry for
an acted occupation is the table's entry with only the outputs that use
can need, in table order, with the same sqrt(prod n!) and the same
largest output occupation (the table's own entry when every output is
needed).  ``detection`` makes a plan only at an ``eta`` of exactly 1,
keys it by detector shape and the outcomes asked for, and keeps the
outputs that weigh more than 0.0 on one of those outcomes; any other
``eta`` runs no filter and reads the table.  A plan has at most one entry
per table entry.  ``detection.mixture_tables`` keeps slot plans beside
them, ``_slot_plans``, one per ket term layout, a bounded number.
"""
from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

from .fock import FockKet, _Record, _tuple_getter

MAX_FACTORIAL_CUTOFF = 20


class ModeUnitary(_Record):
    """Complex unitary on ``size`` modes (every built-in element has size 2).

    ``entries`` accepts any square 2-D array-like of numbers (nested
    sequences or a numpy array) and is stored as a tuple of rows of
    ``complex``.  ``_real`` records once whether every entry is real; the
    table's coefficients are then expanded from ``1.0`` over the entries'
    real parts, built-in floats, and otherwise from ``1.0 + 0.0j`` over the
    entries, built-in complexes.  Only ``entries`` takes part in ``repr``,
    ``==`` and ``hash``: the transfer table, with its output indices and
    plans, the slot plans and the array are caches.

    ``_slot_plans`` is ``detection.mixture_tables``' cache, keyed by a
    ket's term layout, ``tuple(ket.terms)``: each term's transfer-table
    entry, in order, the output indices in the order the layout first
    meets them, and the number of slots, one per output index up to the
    largest, that the scatter sums into.  It is kept on the unitary whose
    table it reads, so a plan never meets another unitary's output
    indices.  It holds at most ``detection._SLOT_PLANS_MAX`` layouts; a new
    layout past that drops the oldest, which only costs the next ket of
    that layout a rebuild.
    """

    _fields = ("entries",)
    # _table: acted occupation -> (sqrt(prod n!), ((powers, index, c, sqrt(prod p!)), ...),
    # max output); _index: output occupation -> index; _powers: index -> output occupation;
    # _plans: plan key -> {acted occupation: _table's entry with only some of its outputs};
    # _slot_plans: term layout -> (_table's entry of each term, output indices in
    # first-touch order, number of slots)
    __slots__ = ("entries", "_real", "_table", "_index", "_powers", "_plans", "_slot_plans",
                 "_array")

    def __init__(self, entries):
        try:
            rows = tuple(tuple(complex(x) for x in row) for row in entries)
        except (TypeError, ValueError):
            raise ValueError("mode unitary must be a square matrix of numbers") from None
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("mode unitary must be a square matrix of numbers")
        for i in range(n):
            for j in range(n):
                dot = sum(rows[k][i].conjugate() * rows[k][j] for k in range(n))
                dev = abs(dot - (i == j))
                if not dev <= 1e-12:  # a NaN anywhere makes some dev NaN
                    raise ValueError(f"matrix is not unitary (deviation {dev:.3g})")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "_real", all(x.imag == 0.0 for row in rows for x in row))
        object.__setattr__(self, "_table", {})
        object.__setattr__(self, "_index", {})
        object.__setattr__(self, "_powers", [])
        object.__setattr__(self, "_plans", {})
        object.__setattr__(self, "_slot_plans", {})
        object.__setattr__(self, "_array", None)

    @property
    def matrix(self):
        """The entries as a read-only complex numpy array (imports numpy)."""
        if self._array is None:
            import numpy as np

            m = np.array(self.entries, dtype=complex)
            m.flags.writeable = False
            object.__setattr__(self, "_array", m)
        return self._array

    @property
    def size(self) -> int:
        return len(self.entries)

    def sector(self, acted: tuple[int, ...]) -> tuple:
        """Transfer-table entry for one acted occupation, built on first use."""
        entry = self._table.get(acted)
        if entry is None:
            # expand prod_k (sum_j M[j,k] a_j^dag)^{n_k} |0...0> on the acted modes
            real = self._real
            poly: dict[tuple[int, ...], complex] = {(0,) * self.size: 1.0 if real else 1.0 + 0.0j}
            for k, n_k in enumerate(acted):
                col = tuple(row[k].real if real else row[k] for row in self.entries)
                for _ in range(n_k):
                    poly = _poly_multiply_linear(poly, col)
            index, powers_of = self._index, self._powers
            outputs = []
            for powers, c in poly.items():
                i = index.setdefault(powers, len(powers_of))
                if i == len(powers_of):
                    powers_of.append(powers)
                outputs.append((powers, i, c, _sqrt_factorials(powers)))
            entry = (_sqrt_factorials(acted), tuple(outputs), max(max(p) for p in poly))
            self._table[acted] = entry
        return entry


@functools.cache
def balanced_bs() -> ModeUnitary:
    """50/50 beam splitter: (1/sqrt2) [[1, 1], [1, -1]] (one shared instance)."""
    r = 1.0 / math.sqrt(2.0)
    return ModeUnitary(((r, r), (r, -r)))


def unbalanced_bs(eps: float) -> ModeUnitary:
    """Almost-transparent beam splitter (1/sqrt(1+eps^2)) [[1, eps], [eps, -1]]."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"epsilon must be in (0, 1), got {eps}")
    r = 1.0 / math.sqrt(1.0 + eps * eps)
    return ModeUnitary(((r, r * eps), (r * eps, -r)))


def polarization_rotation(eps: float) -> ModeUnitary:
    """Rotate an (H, V) mode pair: a_H^dag -> (a_H^dag + eps a_V^dag)/sqrt(1+eps^2)."""
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"rotation parameter must be finite and >= 0, got {eps}")
    r = 1.0 / math.sqrt(1.0 + eps * eps)
    return ModeUnitary(((r, -r * eps), (r * eps, r)))


def pbs(beam_in: tuple[str, str], beam_out: tuple[str, str]) -> dict[str, str]:
    """Polarizing beam splitter as a mode relabeling.

    The H mode of the input beam routes to the first output label, the V mode
    to the second.  Phase convention: pure relabeling, no extra phase on
    either output (any convention differing by local phases is equivalent for
    the schemes here).
    """
    h_in, v_in = beam_in
    h_out, v_out = beam_out
    labels = (h_in, v_in, h_out, v_out)
    if len(set(labels)) != 4:
        raise ValueError(f"pbs labels must be distinct: {labels}")
    return {h_in: h_out, v_in: v_out}


def _poly_multiply_linear(poly: dict, coeffs) -> dict:
    # multiply a polynomial in creation operators by sum_j coeffs[j] * a_j^dag
    out: dict[tuple[int, ...], complex] = {}
    for powers, c in poly.items():
        for j, cj in enumerate(coeffs):
            if cj == 0.0:
                continue
            p = list(powers)
            p[j] += 1
            key = tuple(p)
            out[key] = out.get(key, 0.0) + c * cj
    return out


def _sqrt_factorials(occ: tuple[int, ...]) -> float:
    return math.sqrt(math.prod(math.factorial(n) for n in occ))


def _check_acted(u: ModeUnitary, modes: tuple[str, ...], cutoff: int) -> None:
    """The checks of applying ``u`` to ``modes`` of a register with ``cutoff``."""
    if len(set(modes)) != len(modes):
        raise ValueError(f"acted modes must be distinct: {modes}")
    if len(modes) != u.size:
        raise ValueError(f"unitary acts on {u.size} modes, got {len(modes)}")
    if cutoff > MAX_FACTORIAL_CUTOFF:
        raise ValueError(f"a mode would hold {cutoff} photons, above the limit of "
                         f"{MAX_FACTORIAL_CUTOFF}")


# (register labels, acted modes) -> (acted-occupation getter, output-key
# getter), for the life of the process; an unknown mode raises before
# its layout is kept
_LAYOUTS: dict[tuple, tuple[Callable, Callable]] = {}


def apply_mode_unitary(state: FockKet, u: ModeUnitary, modes: Sequence[str]) -> FockKet:
    """Apply ``u`` to the listed modes of ``state``.

    Photon number is conserved exactly and the norm is preserved.  The
    register cutoff is raised when interference creates occupations above it
    (e.g. |1,1> -> |2,0> on a balanced beam splitter).

    Each input term is one transfer-table lookup and one scatter of its
    outputs, ``out[key] + pref * c * pf`` in input-term order.  The acted
    occupation is a getter call, and so is each output key, over ``occ +
    powers`` with ``powers[j]`` at ``reg.size + j``.  The two getters depend
    only on the register's labels and ``modes``, so they are made once per
    such layout (``_LAYOUTS``); the checks of ``_check_acted``, which read
    ``u`` and the register's cutoff, run on every call.  A raised cutoff
    takes the register that ``with_cutoff`` keeps per (labels, cutoff), and
    ``FockKet._trusted`` prunes the terms.
    """
    modes = tuple(modes)
    reg = state.register
    _check_acted(u, modes, reg.cutoff)
    layout = _LAYOUTS.get((reg.labels, modes))
    if layout is None:
        idx = [reg.index(m) for m in modes]
        take = list(range(reg.size))
        for j, i in enumerate(idx):
            take[i] = reg.size + j
        layout = _LAYOUTS[reg.labels, modes] = (_tuple_getter(idx), _tuple_getter(take))
    acted_of, key_of = layout
    table, sector = u._table, u.sector
    out: dict[tuple[int, ...], complex] = {}
    max_occ = 0
    for occ, amp in state.terms.items():
        acted = acted_of(occ)
        nf, outputs, top = table.get(acted) or sector(acted)
        pref = amp / nf
        for powers, _, c, pf in outputs:
            key = key_of(occ + powers)
            out[key] = out.get(key, 0.0) + pref * c * pf
        if top > max_occ:
            max_occ = top
    return FockKet._trusted(reg.with_cutoff(max_occ) if max_occ > reg.cutoff else reg, out)
