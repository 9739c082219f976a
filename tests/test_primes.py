import numpy as np
import pytest

from goldbachnet import build_table

from oracles import trial_division_primes


def test_small_enumerations():
    assert build_table(10).ordered_primes.tolist() == [2, 3, 5, 7]
    assert build_table(2).ordered_primes.tolist() == [2]


def test_limit_30_against_trial_division():
    table = build_table(30)
    expected = trial_division_primes(30)
    assert table.ordered_primes.tolist() == expected
    assert table.n_primes == 10
    assert int(table.ordered_primes[-1]) == 29


@pytest.mark.parametrize("limit,count", [(100, 25), (1000, 168)])
def test_prime_counts(limit, count):
    assert build_table(limit).n_primes == count


def test_membership_queries():
    primes = set(build_table(100).ordered_primes.tolist())
    assert 3 in primes
    assert 1 not in primes
    assert 97 in primes
    assert 0 not in primes
    assert 89 in primes
    assert 91 not in primes  # 7 * 13


def test_exhaustive_agreement_with_trial_division():
    # full agreement up to 1e5: the oracle divides by every d <= sqrt(n)
    limit = 100_000
    table = build_table(limit)
    n = np.arange(limit + 1)
    composite = np.zeros(limit + 1, dtype=bool)
    for d in range(2, int(limit**0.5) + 1):
        hits = (n % d == 0) & (n != d)
        composite |= hits
    oracle = ~composite
    oracle[:2] = False
    mine = np.zeros(limit + 1, dtype=bool)
    mine[table.ordered_primes] = True
    assert np.array_equal(mine, oracle)


def test_ordered_primes_strictly_increasing_and_consistent():
    table = build_table(10_000)
    diffs = np.diff(table.ordered_primes)
    assert (diffs > 0).all()
    assert table.ordered_primes[:50].tolist() == trial_division_primes(229)


def test_determinism():
    a = build_table(5000)
    b = build_table(5000)
    assert np.array_equal(a.ordered_primes, b.ordered_primes)


def test_invalid_bound():
    with pytest.raises(ValueError, match="^sieve bound must be >= 2, got 1$"):
        build_table(1)
