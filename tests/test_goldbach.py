import numpy as np
import pytest

from goldbachnet import decompose
from goldbachnet.errors import InvalidEvenNumber, OutOfRange, UndecomposableEven
from goldbachnet.primes import PrimeTable, build_table

from oracles import brute_force_pairs, trial_division_primes


def test_decompose_8(table_2k):
    d = decompose(table_2k, 8)
    assert [(p.p, p.q, p.delta) for p in d.pairs] == [(3, 5, 2)]
    assert d.omega == 1


def test_decompose_24(table_2k):
    d = decompose(table_2k, 24)
    assert [(p.p, p.q, p.delta) for p in d.pairs] == [
        (5, 19, 14),
        (7, 17, 10),
        (11, 13, 2),
    ]
    assert d.omega == 3


def test_decompose_10_excludes_self_pair(table_2k):
    d = decompose(table_2k, 10)
    assert [(p.p, p.q, p.delta) for p in d.pairs] == [(3, 7, 4)]


def test_decompose_100_count(table_2k):
    assert decompose(table_2k, 100).omega == 6


def test_matches_brute_force_up_to_10k(table_30k):
    prime_set = set(trial_division_primes(10_000))
    for n in range(8, 10_001, 2):
        expected = brute_force_pairs(n, prime_set)
        d = decompose(table_30k, n)
        got = list(zip(d.p.tolist(), d.q.tolist(), d.delta.tolist()))
        assert got == expected, f"mismatch at n={n}"


def test_pair_invariants(table_30k):
    rng = np.random.default_rng(7)
    for n in rng.integers(4, 10_000, size=200) * 2 + 8:
        n = int(n)
        d = decompose(table_30k, n)
        assert (d.p < d.q).all()
        assert (d.p + d.q == n).all()
        assert (d.p % 2 == 1).all() and (d.p >= 3).all()
        assert (d.delta % 2 == 0).all() and (d.delta > 0).all()
        assert (np.diff(d.p) > 0).all()
        assert np.unique(d.delta).size == d.omega


def test_validation_errors(table_2k):
    with pytest.raises(InvalidEvenNumber):
        decompose(table_2k, 7)
    with pytest.raises(InvalidEvenNumber):
        decompose(table_2k, 6)
    with pytest.raises(OutOfRange):
        decompose(table_2k, 2010)


def test_undecomposable_aborts_loudly():
    # doctored table with no primes marked: the guard must fire, not skip
    real = build_table(100)
    hollow = PrimeTable(100, real.ordered_primes, np.zeros(101, dtype=bool))
    with pytest.raises(UndecomposableEven):
        decompose(hollow, 20)

