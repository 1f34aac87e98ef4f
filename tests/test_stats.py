"""Correlation primitives against brute-force direct-formula oracles.

The oracles below are deliberately naive (fsum loops, O(n^2) ranks) and
were written before the implementations; they are the contract.
"""

import math

import numpy as np
import pytest

from mdqs.errors import LengthMismatch, TooFewSamples
from mdqs.stats import average_ranks, fsum_rows, pearson, rank_normalize, spearman


def pearson_oracle(x, y):
    n = len(x)
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = math.fsum((a - mx) ** 2 for a in x)
    vy = math.fsum((b - my) ** 2 for b in y)
    if vx == 0.0 or vy == 0.0:
        return None
    return cov / math.sqrt(vx * vy)


def ranks_oracle(x):
    # rank = (# strictly smaller) + (ties including self + 1) / 2
    out = []
    for xi in x:
        less = sum(1 for xj in x if xj < xi)
        ties = sum(1 for xj in x if xj == xi)
        out.append(less + (ties + 1) / 2.0)
    return out


def spearman_oracle(x, y):
    return pearson_oracle(ranks_oracle(x), ranks_oracle(y))


def test_pearson_matches_oracle_on_random_pairs():
    rng = np.random.default_rng(91)
    for _ in range(300):
        n = int(rng.integers(2, 51))
        x = rng.normal(size=n).tolist()
        y = rng.normal(size=n).tolist()
        assert pearson(x, y) == pytest.approx(pearson_oracle(x, y), abs=1e-12)


def test_spearman_matches_oracle_including_ties():
    rng = np.random.default_rng(92)
    for _ in range(300):
        n = int(rng.integers(2, 51))
        # quantize to force ties
        x = (rng.integers(0, 6, size=n) / 2.0).tolist()
        y = rng.normal(size=n).tolist()
        expected = spearman_oracle(x, y)
        got = spearman(x, y)
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected, abs=1e-12)


def test_known_tie_case():
    assert spearman([1, 2, 2, 3], [1, 2, 3, 4]) == pytest.approx(0.9487, abs=1e-4)


def test_perfect_correlation_is_exactly_one():
    assert pearson([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 1.0
    assert pearson([1.0, 2.0, 3.0], [3.0, 2.0, 1.0]) == -1.0
    # monotone transform: rank vectors coincide, so spearman is exact
    x = [0.3, 1.7, 2.2, 9.0]
    assert spearman(x, [v**3 for v in x]) == 1.0


def test_pearson_known_value():
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)


def test_pearson_does_not_overflow_on_huge_finite_values():
    x = [0.1, 0.2, 0.3, 0.4]
    y = [0.1, 0.2, 0.3, 4.0]
    # scaling by a power of two changes no bit of the result
    assert pearson(x, [v * 2.0**1020 for v in y]) == pearson(x, y)
    # squares, and here even the sum, of these would overflow without rescaling
    huge = [1e308, 1e308, 1e308, 1e-300]
    assert pearson(x, huge) == pytest.approx(pearson(x, [1.0, 1.0, 1.0, 0.0]), abs=1e-12)


def test_zero_variance_is_undefined():
    assert pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None
    assert pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) is None
    assert spearman([2.0, 2.0], [0.0, 1.0]) is None


def test_input_validation():
    with pytest.raises(LengthMismatch):
        pearson([1, 2, 3], [1, 2])
    with pytest.raises(TooFewSamples):
        pearson([1.0], [2.0])
    with pytest.raises(ValueError):
        pearson([1.0, float("nan")], [1.0, 2.0])
    with pytest.raises(ValueError):
        spearman([1.0, float("inf")], [1.0, 2.0])


def test_average_ranks_ties():
    assert average_ranks([10, 20, 20, 30]).tolist() == [1.0, 2.5, 2.5, 4.0]
    assert average_ranks([5, 5, 5]).tolist() == [2.0, 2.0, 2.0]
    rng = np.random.default_rng(93)
    cases = [[], [4.2], [0.5] * 7]
    for _ in range(50):
        cases.append((rng.integers(0, 4, size=int(rng.integers(2, 30))) * 1.0).tolist())
        # heavy ties: continuous values rounded to one decimal
        cases.append(np.round(rng.normal(size=int(rng.integers(2, 80))), 1).tolist())
        cases.append(rng.normal(size=int(rng.integers(2, 30))).tolist())
    for x in cases:
        assert average_ranks(x).tolist() == ranks_oracle(x)


def test_rank_normalize():
    assert rank_normalize([5.0, 1.0, 3.0]).tolist() == [1.0, 0.0, 0.5]
    assert rank_normalize([7.0]).tolist() == [0.5]
    assert rank_normalize([]).tolist() == []
    # ties share one value, everything stays in [0, 1]
    out = rank_normalize([1.0, 1.0, 2.0, 0.0])
    assert out[0] == out[1]
    assert min(out) == 0.0 and max(out) == 1.0


def test_fsum_rows_is_math_fsum_of_each_row_to_the_bit():
    nan, tiny, big = float("nan"), 5e-324, 1e308
    below_big = math.nextafter(big, 0.0)
    ulp = 2.0**-52
    blocks = [
        # NaN passes through wherever it sits
        [[nan, 1.0, 2.0], [1.0, nan, -1.0], [0.0, 0.0, nan], [nan, nan, nan]],
        # all negative zeros, and one of them beside a positive zero
        [[-0.0, -0.0, -0.0], [-0.0, 0.0, -0.0]],
        [[-0.0]],
        # subnormals: exact sums below the smallest normal
        [[tiny, tiny, -tiny], [tiny, -2 * tiny, tiny], [2.2250738585072014e-308, -tiny, tiny]],
        # cancellation at the 1e308 scale, where a running sum loses the rest
        [[big, 1.0, -big, 0.0], [big, -big, big, -big], [big, -below_big, 1e-300, 0.0]],
        # ties at half an ulp: round half to even, unless a later term breaks the tie
        [[1.0, ulp / 2, 0.0], [1.0 + ulp, ulp / 2, 0.0], [1.0, ulp / 2, 2.0**-105]],
        [[1.0, ulp / 2, -(2.0**-105)], [-1.0, -ulp / 2, 0.0], [2.0**53, 1.0, 0.0]],
    ]
    rng = np.random.default_rng(94)
    for _ in range(20):
        width = int(rng.integers(1, 9))
        scale = 10.0 ** rng.integers(-300, 300, size=(5, width))
        blocks.append((rng.normal(size=(5, width)) * scale).tolist())
    for block in blocks:
        got = fsum_rows(np.array(block))
        assert [x.hex() for x in got] == [math.fsum(row).hex() for row in block]
    assert fsum_rows(np.empty((0, 3))) == []
