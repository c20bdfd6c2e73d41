"""Initial-state constructors for the swapping schemes.

Every constructor returns a normalized ket on a register whose cutoff is
the most photons any of its modes holds: ``order`` for the SPDC sources,
``max(2, order)`` for scheme B's single-pass source, 2 for the
polarization and vacuum/one-photon sources, 1 for ``theta_product``.
Polarization encoding: beam b maps to the two modes "bH", "bV"; a state
like |HV>_b is occupation (1, 1) on that pair, and |2H>_b is occupation 2
on "bH".

A register whose labels a constructor fixes is the one
``ModeRegister._derived`` keeps per (labels, cutoff); ``spdc_pair``'s
modes come from the caller and are checked on every call.
"""
from __future__ import annotations

import cmath
import math

from .elements import MAX_FACTORIAL_CUTOFF
from .fock import FockKet, ModeRegister, tensor_product


def spdc_pair(tau: complex, order: int, modes: tuple[str, str]) -> FockKet:
    """Normalized sum_{n=0..order} tau^n |n, n> on the given mode pair, for
    the pair-emission amplitude ratio ``tau`` and truncation ``order``."""
    if not cmath.isfinite(tau):
        raise ValueError(f"tau must be finite, got {tau}")
    if abs(tau) >= 1.0:
        raise ValueError(f"|tau| must be < 1, got {abs(tau)}")
    if order < 1:
        raise ValueError("truncation order must be >= 1")
    if order > MAX_FACTORIAL_CUTOFF:
        raise ValueError(f"cutoff {order} exceeds factorial table limit")
    reg = ModeRegister(tuple(modes), order)
    terms = {(n, n): tau**n for n in range(order + 1)}
    return FockKet(reg, terms).normalized()


def double_pass_source(tau: complex, order: int = 1) -> FockKet:
    """Two SPDC passes: pair state on beams (1,4) times pair state on (2,3),
    on beams (1, 2, 3, 4).  The terms are ``tensor_product``'s, in its
    order: each term of the (1,4) pair times every term of the (2,3) pair."""
    a = spdc_pair(tau, order, ("1", "4"))
    b = spdc_pair(tau, order, ("2", "3"))
    reg = ModeRegister._derived(("1", "2", "3", "4"), order)
    return FockKet._trusted(reg, {(n1, n2, n3, n4): amp_a * amp_b
                                  for (n1, n4), amp_a in a.terms.items()
                                  for (n2, n3), amp_b in b.terms.items()})


def single_pass_source(order: int, pair_amplitude: float) -> FockKet:
    """Scheme B's single-pass source on beams (1, 2, 3, 4): the normalized
    sum_{n=1..order} pair_amplitude^(n-1) |n, 0, 0, n>, the pair on the
    upper beam 1 and the lower beam 4, on a register of cutoff max(2,
    order).  ``pair_amplitude`` is the ratio of successive n-pair
    amplitudes, ``tanh r`` for an SPDC source, so ``|pair_amplitude| < 1``;
    at 0 only the single pair is left, at any ``order``."""
    cutoff = max(2, order)
    if cutoff > MAX_FACTORIAL_CUTOFF:
        raise ValueError(f"cutoff {cutoff} exceeds factorial table limit")
    if order < 1:
        raise ValueError("order must be >= 1")
    if not math.isfinite(pair_amplitude):
        raise ValueError(f"pair amplitude must be finite, got {pair_amplitude}")
    if abs(pair_amplitude) >= 1.0:
        raise ValueError(f"|pair amplitude| must be < 1, got {pair_amplitude}")
    reg = ModeRegister._derived(("1", "2", "3", "4"), cutoff)
    terms = {(n, 0, 0, n): pair_amplitude ** (n - 1) for n in range(1, order + 1)}
    return FockKet(reg, terms).normalized()


_POL_REG = ModeRegister._derived(tuple(f"{b}{pol}" for b in "1234" for pol in "HV"), 2)


def _occupation(counts: dict[str, int]) -> tuple[int, ...]:
    # photon count per label -> occupation on _POL_REG
    occ = [0] * _POL_REG.size
    for label, n in counts.items():
        occ[_POL_REG.index(label)] = n
    return tuple(occ)


def _y_terms(i: str, j: str):
    # |2H>_i |2V>_j + |2V>_i |2H>_j - |HV>_i |HV>_j
    return (
        ({f"{i}H": 2, f"{j}V": 2}, +1.0),
        ({f"{i}V": 2, f"{j}H": 2}, +1.0),
        ({f"{i}H": 1, f"{i}V": 1, f"{j}H": 1, f"{j}V": 1}, -1.0),
    )


# (occupation, sign) of each term of polarization_double_pass, built once:
# the (1, 3) singlet factor x (2, 4) singlet factor, signs (+, -, -, +), then
# the two-pair terms on (1, 3) and on (2, 4)
_X_TERMS = tuple((_occupation({l: 1 for l in labels}), sign) for labels, sign in (
    (("1H", "3V", "2H", "4V"), +1.0),
    (("1H", "3V", "2V", "4H"), -1.0),
    (("1V", "3H", "2H", "4V"), -1.0),
    (("1V", "3H", "2V", "4H"), +1.0),
))
_Y_TERMS = tuple((_occupation(counts), sign)
                 for pair in (("1", "3"), ("2", "4")) for counts, sign in _y_terms(*pair))


def polarization_double_pass(include_double_pairs: bool = True,
                             double_pair_weight: float = 1.0) -> FockKet:
    """Double-pass polarization source on beams 1-4 (8 modes).

    The single-pair-per-pass term is a product of polarization singlets on
    beams (1,3) and (2,4); ``include_double_pairs`` adds the two-pair terms
    on (1,3) and on (2,4).  The addends carry unit relative weight as a
    default; ``double_pair_weight`` scales the two-pair terms uniformly for
    sensitivity runs.
    """
    if not math.isfinite(double_pair_weight):
        raise ValueError(f"double-pair weight must be finite, got {double_pair_weight}")
    terms: dict[tuple[int, ...], complex] = {}
    for key, sign in _X_TERMS:
        terms[key] = terms.get(key, 0.0) + sign
    if include_double_pairs:
        for key, sign in _Y_TERMS:
            terms[key] = terms.get(key, 0.0) + double_pair_weight * sign
    return FockKet(_POL_REG, terms).normalized()


def vacuum_one_photon_postbs() -> FockKet:
    """Post-beam-splitter state in the vacuum/one-photon setup.

    Modes (2', 3', 1, 4); the five branches carry printed amplitudes
    1, 1/2, 1/2, 1/sqrt2, -1/sqrt2 and are then normalized (overall
    1/sqrt(5/2)).
    """
    reg = ModeRegister._derived(("2'", "3'", "1", "4"), 2)
    r2 = 1.0 / math.sqrt(2.0)
    terms = {
        (0, 0, 1, 1): 1.0,
        # (1/2) |10> psi+_14 and (1/2) |01> psi-_14
        (1, 0, 0, 1): 0.5 * r2,
        (1, 0, 1, 0): 0.5 * r2,
        (0, 1, 0, 1): 0.5 * r2,
        (0, 1, 1, 0): -0.5 * r2,
        (2, 0, 0, 0): r2,
        (0, 2, 0, 0): -r2,
    }
    return FockKet(reg, terms).normalized()


def theta_product(theta: float) -> FockKet:
    """(cos t |00> + sin t |11>)_{12} x (cos t |00> + sin t |11>)_{34}."""
    c, s = math.cos(theta), math.sin(theta)
    a = FockKet(ModeRegister._derived(("1", "2"), 1), {(0, 0): c, (1, 1): s})
    b = FockKet(ModeRegister._derived(("3", "4"), 1), {(0, 0): c, (1, 1): s})
    return tensor_product(a, b).normalized()
