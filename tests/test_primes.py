import numpy as np
import pytest

from goldbachnet import build_table
from goldbachnet.errors import InvalidBound, OutOfRange

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
    table = build_table(100)
    assert table.is_prime(3)
    assert not table.is_prime(1)
    assert table.is_prime(97)
    assert not table.is_prime(0)
    assert 89 in table
    assert 91 not in table  # 7 * 13


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
    for p in table.ordered_primes[:50]:
        assert table.is_prime(int(p))


def test_determinism():
    a = build_table(5000)
    b = build_table(5000)
    assert np.array_equal(a.ordered_primes, b.ordered_primes)


def test_invalid_bound():
    with pytest.raises(InvalidBound):
        build_table(1)


def test_out_of_range_query():
    table = build_table(50)
    with pytest.raises(OutOfRange):
        table.is_prime(51)
    with pytest.raises(OutOfRange):
        table.is_prime(-1)


def test_scalar_membership_matches_ordered_primes():
    table = build_table(500)
    values = np.arange(0, 501)
    scalar = np.array([table.is_prime(int(v)) for v in values])
    assert np.array_equal(scalar, np.isin(values, table.ordered_primes))
