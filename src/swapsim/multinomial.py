"""Multinomial counts drawn exactly as numpy draws them, in the stdlib.

``multinomial`` and ``pairwise_sum`` give numpy's results, count for
count and bit for bit, with the same ``ValueError`` checks.

It ports, from numpy's C and Cython sources:

- ``SeedSequence``: the integer seed as little-endian 32-bit words,
  hashed into a pool of four words and out into the PCG64 seed and
  increment (``bit_generator.pyx``).  The hash constants do not depend on
  the seed, so they are computed once, at import.
- PCG64: the 128-bit LCG step, the XSL-RR output and ``next_double``
  (O'Neill, "PCG: a family of simple fast space-efficient statistically
  good algorithms for random number generation", HMC-CS-2014-0905).
- ``random_multinomial`` as a chain of binomials, and ``random_binomial``:
  inversion below a mean of 30, BTPE above it (Kachitvichyanukul and
  Schmeiser, "Binomial random variate generation", CACM 31(2), 1988).

Equal counts need numpy's compiled arithmetic, step for step:

- An int64 becomes a double exactly where the compiled C converts it.
  ``s * (n + 1)`` converts the int64 sum, which wraps at n = 2**63 - 1,
  but BTPE's final test converts first: ``z = (float(n) + 1.0) -
  float(m)``.  Python's int-to-float conversion rounds to nearest even,
  as C's does.  Above 2**53 the two orders give different doubles.
- Where C gives an IEEE value, Python raises: ``exp`` overflows to inf,
  ``log`` and ``sqrt`` of a negative give nan, ``log(0.0)`` gives -inf,
  and ``(int64_t)`` of nan or of a double out of range gives INT64_MIN
  (x86-64).  ``_exp``, ``_log``, ``_sqrt``, ``_int64_of`` and
  ``_floor_int64`` return those values.  They occur when rounding makes
  ``probs[j] / remaining`` exceed 1: the binomial then takes every
  remaining shot.
- BTPE's squeeze test negates ``k * k`` in int64, which wraps once
  ``k`` passes about 3e9 (shots above about 8e18).

``tests/test_multinomial.py`` checks the counts against numpy on a fixed
grid of seeds, shots and distributions.
"""
from __future__ import annotations

import math
import operator
import os

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_INT64_MIN = -(1 << 63)
_TWO63 = 2.0 ** 63

# SeedSequence's pool size and hash constants
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_keys(init: int, mult: int, count: int) -> list:
    """The (xor, multiplier) pair of each of ``count`` successive hash
    steps: SeedSequence keeps one running constant, starting at ``init``,
    xors it into the value, then multiplies it by ``mult`` and the value by
    the result."""
    keys = []
    for _ in range(count):
        nxt = init * mult & _MASK32
        keys.append((init, nxt))
        init = nxt
    return keys


# A seed of at most four words takes 16 hash steps into the pool: one per
# pool word, then one for each ordered pair of pool words (src, dst), which
# hashes pool[src] and mixes it into pool[dst].  Generating PCG64's four
# 64-bit seed words takes 8 more, from the second constant.
_MIX_KEYS = _hash_keys(_INIT_A, _MULT_A, 4 * _POOL)
_MIX_STEPS = tuple((src, dst, *key) for (src, dst), key in zip(
    [(src, dst) for src in range(_POOL) for dst in range(_POOL) if src != dst],
    _MIX_KEYS[_POOL:]))
_STATE_KEYS = _hash_keys(_INIT_B, _MULT_B, 8)


def _hash(value: int, xor: int, mult: int) -> int:
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


# a seed shorter than the pool is padded with 0 words, whose hashes are fixed
_PAD_HASHES = [_hash(0, *key) for key in _MIX_KEYS[:_POOL]]


def _mix(x: int, y: int) -> int:
    r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return r ^ r >> 16


def _seed_words(seed: int) -> list:
    """``SeedSequence(seed).generate_state(4, uint64)``: the seed's 32-bit
    words, least significant first (one word for 0), mixed into the pool,
    then hashed out as four 64-bit words."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = [seed & _MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK32)
    pool = [_hash(word, *key) for word, key in zip(words, _MIX_KEYS)]
    pool += _PAD_HASHES[len(pool):]
    for src, dst, xor, mult in _MIX_STEPS:  # _mix(pool[dst], _hash(pool[src], ...)), inlined
        h = (pool[src] ^ xor) * mult & _MASK32
        r = (_MIX_MULT_L * pool[dst] - _MIX_MULT_R * (h ^ h >> 16)) & _MASK32
        pool[dst] = r ^ r >> 16
    if len(words) > _POOL:
        # each word past the pool is hashed and mixed into every pool word
        keys = iter(_hash_keys(_INIT_A, _MULT_A, 4 * len(words))[4 * _POOL:])
        for word in words[_POOL:]:
            for dst in range(_POOL):
                pool[dst] = _mix(pool[dst], _hash(word, *next(keys)))
    state = [_hash(pool[i % _POOL], *key) for i, key in enumerate(_STATE_KEYS)]
    return [state[i] | state[i + 1] << 32 for i in range(0, 8, 2)]


class _PCG64:
    """numpy's PCG64 (XSL-RR output), seeded as ``default_rng(seed)`` seeds it."""

    __slots__ = ("state", "inc")

    def __init__(self, seed: int):
        s0, s1, i0, i1 = _seed_words(seed)
        self.inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        # pcg64_srandom_r: a step from state 0 (giving inc), add the seed, a step
        self.state = ((self.inc + (s0 << 64 | s1)) * _PCG_MULT + self.inc) & _MASK128

    def next_double(self) -> float:
        """A double in [0, 1): the top 53 bits of the output of the next step."""
        self.state = state = (self.state * _PCG_MULT + self.inc) & _MASK128
        rot = state >> 122
        x = (state >> 64 ^ state) & _MASK64
        x = (x >> rot | x << (-rot & 63)) & _MASK64
        return (x >> 11) * (1.0 / 9007199254740992.0)


def _exp(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _log(x: float) -> float:
    if x > 0.0:
        return math.log(x)
    return -math.inf if x == 0.0 else math.nan


def _sqrt(x: float) -> float:
    return math.sqrt(x) if x >= 0.0 else math.nan


def _int64_of(x: float) -> int:
    """``(int64_t)x`` on x86-64: truncated, INT64_MIN for nan and out of range."""
    return int(x) if -_TWO63 <= x < _TWO63 else _INT64_MIN


def _floor_int64(x: float) -> int:
    """``(int64_t)floor(x)`` on x86-64."""
    return math.floor(x) if -_TWO63 <= x < _TWO63 else _INT64_MIN


def _int64(x: int) -> int:
    """``x`` wrapped to a signed 64-bit integer."""
    return (x + (1 << 63) & _MASK64) - (1 << 63)


def _binomial_inversion(next_double, n: int, p: float) -> int:
    q = 1.0 - p
    qn = _exp(n * math.log1p(-p))
    np_ = n * p
    limit = np_ + 10.0 * _sqrt(np_ * q + 1)
    bound = _int64_of(float(n) if float(n) < limit else limit)
    x = 0
    px = qn
    u = next_double()
    while u > px:
        x += 1
        if x > bound:
            x = 0
            px = qn
            u = next_double()
        else:
            u -= px
            px = ((n - x + 1) * p * px) / (x * q)
    return x


def _binomial_btpe(next_double, n: int, p: float) -> int:
    """BTPE for ``p <= 0.5``, where numpy's ``r = min(p, 1 - p)`` is ``p``
    and its final ``y = n - y`` for ``p > 0.5`` never runs."""
    r = p
    q = 1.0 - r
    fm = n * r + r
    m = _floor_int64(fm)
    p1 = math.floor(2.195 * math.sqrt(n * r * q) - 4.6 * q) + 0.5
    xm = m + 0.5
    xl = xm - p1
    xr = xm + p1
    c = 0.134 + 20.5 / (15.3 + m)
    a = (fm - xl) / (fm - xl * r)
    laml = a * (1.0 + a / 2.0)
    a = (xr - fm) / (xr * q)
    lamr = a * (1.0 + a / 2.0)
    p2 = p1 * (1.0 + 2.0 * c)
    p3 = p2 + c / laml
    p4 = p3 + c / lamr
    nrq = n * r * q
    while True:
        u = next_double() * p4
        v = next_double()
        if u <= p1:
            return _floor_int64(xm - p1 * v + u)
        if u <= p2:
            x = xl + (u - p1) / c
            v = v * c + 1.0 - abs(m - x + 0.5) / p1
            if v > 1.0:
                continue
            y = _floor_int64(x)
        elif u <= p3:
            y = _floor_int64(xl + _log(v) / laml)
            if y < 0 or v == 0.0:
                continue
            v = v * (u - p2) * laml
        else:
            y = _floor_int64(xr - _log(v) / lamr)
            if y > n or v == 0.0:
                continue
            v = v * (u - p3) * lamr
        k = abs(y - m)
        if k > 20 and float(k) < nrq / 2.0 - 1:
            rho = (k / nrq) * ((k * (k / 3.0 + 0.625) + 0.1666666666666) / nrq + 0.5)
            t = _int64(-k * k) / (2 * nrq)
            big_a = _log(v)
            if big_a < t - rho:
                return y
            if big_a > t + rho:
                continue
            x1 = float(y) + 1.0
            f1 = float(m) + 1.0
            z = (float(n) + 1.0) - float(m)
            w = (float(n) - float(y)) + 1.0
            x2 = x1 * x1
            f2 = f1 * f1
            z2 = z * z
            w2 = w * w
            # numpy sums the four Stirling corrections in the order f, z, x, w
            if big_a > (xm * _log(f1 / x1) + (n - m + 0.5) * _log(z / w)
                        + (y - m) * _log(w * r / (x1 * q))
                        + (13680. - (462. - (132. - (99. - 140. / f2) / f2) / f2) / f2) / f1 / 166320.
                        + (13680. - (462. - (132. - (99. - 140. / z2) / z2) / z2) / z2) / z / 166320.
                        + (13680. - (462. - (132. - (99. - 140. / x2) / x2) / x2) / x2) / x1 / 166320.
                        + (13680. - (462. - (132. - (99. - 140. / w2) / w2) / w2) / w2) / w / 166320.):
                continue
            return y
        s = r / q
        a = s * _int64(n + 1)
        f = 1.0
        if m < y:
            for i in range(m + 1, y + 1):
                f *= a / i - s
        elif m > y:
            for i in range(y + 1, m + 1):
                f /= a / i - s
        if v > f:
            continue
        return y


def _binomial(next_double, p: float, n: int) -> int:
    if n == 0 or p == 0.0:
        return 0
    if p <= 0.5:
        if p * n <= 30.0:
            return _binomial_inversion(next_double, n, p)
        return _binomial_btpe(next_double, n, p)
    q = 1.0 - p
    if q * n <= 30.0:
        return n - _binomial_inversion(next_double, n, q)
    return n - _binomial_btpe(next_double, n, q)


def pairwise_sum(values: list) -> float:
    """numpy's sum of a 1-d float64 array: a left fold from 0.0 below 8
    entries; from 8 up, eight running sums combined pairwise, then the
    rest, and above 128 entries two halves summed that way."""
    n = len(values)
    if n < 8:
        total = 0.0
        for v in values:
            total += v
        return total
    if n <= 128:
        r = list(values[:8])
        end = n - n % 8
        for i in range(8, end, 8):
            for j in range(8):
                r[j] += values[i + j]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for v in values[end:]:
            total += v
        return total
    half = n // 2
    half -= half % 8
    return pairwise_sum(values[:half]) + pairwise_sum(values[half:])


def multinomial(shots: int, probs: list, seed: int | None) -> list:
    """The counts of ``numpy.random.default_rng(seed).multinomial(shots,
    probs)`` for ``shots`` in [0, 2**63 - 1]; ``seed`` None draws 128 bits
    of entropy from the OS, as numpy does."""
    if not probs:
        raise ValueError("pvals must have at least 1 dimension and the last "
                         "dimension of pvals must be greater than 0.")
    if not all(0.0 <= p <= 1.0 for p in probs):
        raise ValueError("pvals < 0, pvals > 1 or pvals contains NaNs")
    # numpy's Kahan sum of all but the last entry
    total, c = probs[0], 0.0
    for p in probs[1:-1]:
        y = p - c
        t = total + y
        c = (t - total) - y
        total = t
    if len(probs) > 1 and total > 1.0 + 1e-12:
        raise ValueError("sum(pvals[:-1]) > 1.0")
    if seed is None:
        seed = int.from_bytes(os.urandom(16), "little")
    next_double = _PCG64(seed).next_double
    counts = [0] * len(probs)
    remaining = 1.0
    left = shots
    for j in range(len(probs) - 1):
        counts[j] = _binomial(next_double, probs[j] / remaining, left)
        left -= counts[j]
        if left <= 0:
            break
        remaining -= probs[j]
    if left > 0:
        counts[-1] = left
    return counts
