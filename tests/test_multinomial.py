"""``swapsim.multinomial`` draws the counts numpy draws, count for count.

Each case runs ``numpy.random.default_rng(seed).multinomial(shots, probs)``
and the port on the same input.  The grid crosses seeds of one, two, three
and five 32-bit words with shots of 1, 1000, above 2**53 and 2**63 - 1
(where BTPE's ``n + 1`` and ``-k * k`` wrap in int64), over distributions
of 1 to 20 entries, some of them 0.0, and a distribution where rounding
makes ``probs[j] / remaining`` exceed 1.  A few ``sample_run`` count
vectors are pinned, and a child with numpy blocked must draw them too.
"""
import json
import math
import random
import subprocess
import sys

import numpy as np
import pytest

from conftest import TESTS
from swapsim import multinomial, protocols

SEEDS = (0, 123456789, 2**40 + 3, 2**64, 2**130 + 12345)
SHOTS = (1, 1000, 2**53 + 7, 2**63 - 1)


def distributions():
    """Normalized as ``sample_run`` normalizes them, so the last entry may
    take the rounding."""
    rng = random.Random(2)
    out = [[1.0], [0.0, 1.0], [0.1, 0.6, 0.0], [0.5, 0.25, 0.125, 0.0, 0.125]]
    for d in range(1, 21):
        out.append([rng.random() ** rng.choice((1, 4)) if rng.random() > 0.25 else 0.0
                    for _ in range(d)])
    for probs in out:
        if not any(probs):
            probs[-1] = 1.0
        total = multinomial.pairwise_sum(probs)
        yield [p / total for p in probs]


def numpy_counts(shots, probs, seed):
    return [int(c) for c in np.random.default_rng(seed).multinomial(shots, np.array(probs))]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shots", SHOTS)
def test_counts_equal_numpys(shots, seed):
    for probs in distributions():
        assert multinomial.multinomial(shots, probs, seed) == numpy_counts(shots, probs, seed), probs


@pytest.mark.parametrize("shots", [2**63 - 1, 1512315969167666348])
def test_btpe_tails_at_huge_shots_equal_numpys(shots):
    # many seeds, so that BTPE's final test runs where float(n) rounds (a
    # mean of hundreds) and its squeeze where -k * k wraps (k above 3e9)
    for probs in ([0.3, 0.3, 0.4], [1e-16, 3e-16, 6e-16, 1.0]):
        total = multinomial.pairwise_sum(probs)
        probs = [p / total for p in probs]
        for seed in range(40):
            assert multinomial.multinomial(shots, probs, seed) == numpy_counts(shots, probs, seed)


def test_the_grid_holds_a_ratio_above_1():
    # normalized [0.1, 0.6, 0.0]: rounding makes probs[1] / (1 - probs[0]) exceed 1
    assert any(len(p) > 2 and p[1] / (1.0 - p[0]) > 1.0 for p in distributions())


def test_pairwise_sum_is_numpys_sum():
    rng = random.Random(3)
    for n in [*range(1, 300), 1000, 4099, 20000]:
        values = [rng.random() * 10.0 ** rng.randint(-20, 5) for _ in range(n)]
        assert multinomial.pairwise_sum(values) == float(np.array(values).sum()), n


@pytest.mark.parametrize("probs", [[], [math.nan, 0.5], [1.5], [-0.1, 1.1],
                                   [0.5 + 6e-13, 0.5 + 6e-13, 0.0]])
def test_rejects_what_numpy_rejects_with_its_message(probs):
    with pytest.raises(ValueError) as theirs:
        np.random.default_rng(0).multinomial(10, np.array(probs, dtype=float))
    with pytest.raises(ValueError) as ours:
        multinomial.multinomial(10, probs, 0)
    assert str(ours.value) == str(theirs.value)


def test_seed_checks_follow_numpys():
    for seed, error in [(-1, ValueError), (1.5, TypeError)]:
        with pytest.raises(error):
            np.random.default_rng(seed)
        with pytest.raises(error):
            multinomial.multinomial(10, [1.0], seed)


def test_an_all_zero_distribution_is_rejected_as_numpy_rejects_its_nans():
    with pytest.raises(ValueError, match="pvals contains NaNs"):
        protocols.sample_run({"a": 0.0, "b": -1e-13}, 10, 0)


# (distribution, shots, seed) -> counts in key order, as numpy draws them
PINNED = [
    ({"a": 0.1, "b": 0.6, "c": 0.0}, 1000, 7, [146, 854, 0]),
    ({"a": 0.5, "b": 0.25, "c": 0.125, "d": 0.0, "e": 0.125}, 2**53 + 7, 123456789,
     [4503599536749668, 2251799876932706, 1125899912796017, 0, 1125899928262608]),
    ({"a": 0.3, "b": 0.2, "c": 0.1, "d": 0.4}, 2**63 - 1, 2**64,
     [2767011611678343168, 1844674408388035072, 922337203417871872, 3689348813370525695]),
    ({"a": 1e-18, "b": 1.0, "c": 0.0}, 2**63 - 1, 2**130 + 12345,
     [12, 9223372036854775795, 0]),
]


def test_pinned_counts_are_numpys_and_sample_runs():
    for dist, shots, seed, counts in PINNED:
        probs = np.array(list(dist.values()))
        assert numpy_counts(shots, probs / probs.sum(), seed) == counts
        assert list(protocols.sample_run(dist, shots, seed).values()) == counts


def test_pinned_counts_with_numpy_blocked():
    code = ("import json, sys\n"
            "sys.modules['numpy'] = None\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from swapsim import protocols\n"
            "runs = json.loads(sys.stdin.read())\n"
            "print(json.dumps([list(protocols.sample_run(d, n, s).values()) for d, n, s in runs]))\n")
    runs = [(dist, shots, seed) for dist, shots, seed, _ in PINNED]
    done = subprocess.run([sys.executable, "-I", "-B", "-c", code, str(TESTS.parent / "src")],
                          input=json.dumps(runs), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [counts for *_, counts in PINNED]
