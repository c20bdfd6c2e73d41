"""Linear-optical elements acting on Fock kets.

An element is a unitary matrix on a small set of modes.  It acts on a ket
through the creation-operator substitution a_k^dag -> sum_j M[j,k] a_j^dag,
expanded multinomially with exact integer factorials.

The expansion depends only on the acted occupation (n_a, n_b, ...), not on
the rest of the ket, so each ``ModeUnitary`` keeps a transfer table: for
every acted occupation it has met, sqrt(prod n!), the output terms
(powers, c, sqrt(prod p!)) and the largest output occupation.  An entry is
built once, on first use, and ``apply_mode_unitary`` is then a lookup and a
scatter per input term.  Amplitudes come out as amp / sqrt(prod n!) * c *
sqrt(prod p!), the same float operations in the same order for a cold or a
warm table.  The matrix is read-only so that the table cannot go stale, and
``balanced_bs()`` returns one shared instance whose table every protocol
reuses.  A table has at most one entry per acted occupation within
MAX_FACTORIAL_CUTOFF, so even the shared one stays small.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .fock import FockKet

MAX_FACTORIAL_CUTOFF = 20


@dataclass(frozen=True)
class ModeUnitary:
    """Complex unitary on ``size`` modes (every built-in element has size 2)."""

    matrix: np.ndarray
    # acted occupation -> (sqrt(prod n!), ((powers, c, sqrt(prod p!)), ...), max output)
    _table: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("mode unitary must be a square matrix")
        dev = np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0])))
        if not dev <= 1e-12:  # also rejects NaN entries
            raise ValueError(f"matrix is not unitary (max deviation {dev:.3g})")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def dagger(self) -> "ModeUnitary":
        return ModeUnitary(self.matrix.conj().T)

    def sector(self, acted: tuple[int, ...]) -> tuple:
        """Transfer-table entry for one acted occupation, built on first use."""
        entry = self._table.get(acted)
        if entry is None:
            # expand prod_k (sum_j M[j,k] a_j^dag)^{n_k} |0...0> on the acted modes
            poly: dict[tuple[int, ...], complex] = {(0,) * self.size: 1.0 + 0.0j}
            for k, n_k in enumerate(acted):
                col = self.matrix[:, k]
                for _ in range(n_k):
                    poly = _poly_multiply_linear(poly, col)
            outputs = tuple((powers, c, _sqrt_factorials(powers))
                            for powers, c in poly.items())
            entry = (_sqrt_factorials(acted), outputs, max(max(p) for p in poly))
            self._table[acted] = entry
        return entry


@functools.cache
def balanced_bs() -> ModeUnitary:
    """50/50 beam splitter: (1/sqrt2) [[1, 1], [1, -1]] (one shared instance)."""
    return ModeUnitary(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0))


def unbalanced_bs(eps: float) -> ModeUnitary:
    """Almost-transparent beam splitter (1/sqrt(1+eps^2)) [[1, eps], [eps, -1]]."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"unbalanced beam splitter needs 0 < eps < 1, got {eps}")
    r = 1.0 / math.sqrt(1.0 + eps * eps)
    return ModeUnitary(r * np.array([[1.0, eps], [eps, -1.0]]))


def polarization_rotation(eps: float) -> ModeUnitary:
    """Rotate an (H, V) mode pair: a_H^dag -> (a_H^dag + eps a_V^dag)/sqrt(1+eps^2)."""
    if not 0.0 <= eps < math.inf:
        raise ValueError(f"rotation parameter must be finite and >= 0, got {eps}")
    r = 1.0 / math.sqrt(1.0 + eps * eps)
    return ModeUnitary(r * np.array([[1.0, -eps], [eps, 1.0]]))


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


def _poly_multiply_linear(poly: dict, coeffs: np.ndarray) -> dict:
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


def apply_mode_unitary(
    state: FockKet,
    u: ModeUnitary,
    modes: tuple[str, ...],
) -> FockKet:
    """Apply ``u`` to the listed modes of ``state``.

    Photon number is conserved exactly and the norm is preserved.  The
    register cutoff is raised when interference creates occupations above it
    (e.g. |1,1> -> |2,0> on a balanced beam splitter).
    """
    modes = tuple(modes)
    if len(set(modes)) != len(modes):
        raise ValueError(f"acted modes must be distinct: {modes}")
    if len(modes) != u.size:
        raise ValueError(f"unitary acts on {u.size} modes, got {len(modes)}")
    reg = state.register
    idx = [reg.index(m) for m in modes]
    if reg.cutoff > MAX_FACTORIAL_CUTOFF:
        raise ValueError(f"cutoff {reg.cutoff} exceeds factorial table limit")

    sector = u.sector
    out: dict[tuple[int, ...], complex] = {}
    max_occ = 0
    for occ, amp in state.terms.items():
        nf, outputs, top = sector(tuple([occ[i] for i in idx]))
        pref = amp / nf
        new_occ = list(occ)
        for powers, c, pf in outputs:
            for i, p in zip(idx, powers):
                new_occ[i] = p
            key = tuple(new_occ)
            out[key] = out.get(key, 0.0) + pref * c * pf
        if top > max_occ:
            max_occ = top

    if max_occ > reg.cutoff:
        reg = reg.with_cutoff(max_occ)
    return FockKet._trusted(reg, out)
