import math
import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from goldbachnet import build_many, cli, decompose, ensemble
from goldbachnet.errors import InvalidEvenNumber, OutOfRange, UndecomposableEven
from goldbachnet.netbuild import _build_rows, _share_table
from goldbachnet.primes import PrimeTable, build_table

from oracles import brute_force_pairs, trial_division_primes


def _pairs(d):
    return list(zip(d.p.tolist(), d.q.tolist(), d.delta.tolist()))


def test_decompose_8(table_2k):
    d = decompose(table_2k, 8)
    assert _pairs(d) == [(3, 5, 2)]
    assert d.omega == 1


def test_decompose_24(table_2k):
    d = decompose(table_2k, 24)
    assert _pairs(d) == [
        (5, 19, 14),
        (7, 17, 10),
        (11, 13, 2),
    ]
    assert d.omega == 3


def test_decompose_10_excludes_self_pair(table_2k):
    d = decompose(table_2k, 10)
    assert _pairs(d) == [(3, 7, 4)]


def test_decompose_100_count(table_2k):
    assert decompose(table_2k, 100).omega == 6


def test_matches_brute_force_up_to_10k(table_30k):
    # one range decomposition, sliced per even; the single-even path is
    # pinned to the range path by the 20k test below
    primes = dict.fromkeys(trial_division_primes(10_000))
    evens = range(8, 10_001, 2)
    d = decompose(table_30k, evens)
    got = list(zip(d.p.tolist(), d.q.tolist(), d.delta.tolist()))
    ends = np.cumsum(d.counts).tolist()
    for n, start, end in zip(evens, [0] + ends, ends):
        expected = brute_force_pairs(n, primes)
        assert got[start:end] == expected, f"mismatch at n={n}"


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


def _split(d):
    """Per-even (p, q) arrays of a range decomposition."""
    ends = np.cumsum(d.counts)[:-1]
    return zip(np.split(d.p, ends), np.split(d.q, ends))


def test_range_decomposition_matches_single_evens_up_to_20k(table_30k):
    # build_many's blocks of 32 even numbers, the last one cut at 20000
    for n0 in range(8, 20_001, 64):
        evens = range(n0, min(n0 + 64, 20_002), 2)
        for n, (p, q) in zip(evens, _split(decompose(table_30k, evens))):
            d = decompose(table_30k, n)
            assert np.array_equal(p, d.p) and np.array_equal(q, d.q), n
            assert d.counts.tolist() == [d.omega]


def test_range_decomposition_matches_brute_force_up_to_1m(table_1m):
    rng = np.random.default_rng(20260808)
    primes = dict.fromkeys(table_1m.ordered_primes.tolist())
    starts = [8, 999_994] + (2 * rng.integers(4, 499_980, size=3)).tolist()
    for n0, width in zip(starts, (32, 4, 3, 4, 5)):
        evens = range(n0, n0 + 2 * width, 2)
        d = decompose(table_1m, evens)
        expected = [brute_force_pairs(n, primes) for n in evens]
        assert d.counts.tolist() == [len(pairs) for pairs in expected]
        for (p, q), pairs in zip(_split(d), expected):
            assert list(zip(p.tolist(), q.tolist())) == [(a, b) for a, b, _ in pairs]


def test_range_validation(table_2k):
    for bad in (range(8, 8, 2), range(8, 20, 4), range(6, 20, 2), range(9, 21, 2)):
        with pytest.raises(InvalidEvenNumber):
            decompose(table_2k, bad)
    with pytest.raises(OutOfRange):
        decompose(table_2k, range(1990, 2010, 2))


def hollow_table():
    """Doctored table without any primes: the guard must fire, not skip."""
    return PrimeTable(100, np.empty(0, dtype=np.int64))


def test_undecomposable_aborts_loudly():
    hollow = hollow_table()
    with pytest.raises(UndecomposableEven):
        decompose(hollow, 20)
    with pytest.raises(UndecomposableEven, match="found for 8$"):
        build_many(hollow, 0.0, [1], max_even=20)


def test_undecomposable_names_the_first_even_of_a_block():
    # 7 left out of the primes: 10 = 3 + 7 and 12 = 5 + 7 lose their only
    # pair, 8 = 3 + 5 keeps it
    real = build_table(100)
    primes = real.ordered_primes[real.ordered_primes != 7]
    holed = PrimeTable(100, primes)
    with pytest.raises(UndecomposableEven, match="found for 12$"):
        decompose(holed, range(12, 42, 2))
    with pytest.raises(UndecomposableEven, match="found for 10$"):
        build_many(holed, (0.0, -math.inf), [1, 2], max_even=40)
    assert _pairs(decompose(holed, 8)) == [(3, 5, 2)]


def test_undecomposable_in_a_chunk_task_reaches_the_caller():
    hollow = hollow_table()
    pool = ProcessPoolExecutor(2, initializer=_share_table, initargs=(hollow,))
    try:
        with pytest.raises(UndecomposableEven, match="^no prime pair p < q found for 8$"):
            list(_build_rows(hollow, [0.0, -math.inf], [1, 2], 40, (), pool))
    finally:
        closer = threading.Thread(target=pool.shutdown, kwargs={"cancel_futures": True})
        closer.start()
        closer.join(timeout=60)
    assert not closer.is_alive()


@pytest.mark.parametrize("workers", ["1", "2"])
def test_undecomposable_sweep_exits_3(tmp_path, monkeypatch, capsys, workers):
    monkeypatch.setattr(ensemble, "build_table", lambda limit: hollow_table())
    rc = cli.main(["sweep", "--alphas", "0,-1.8", "--snapshots", "50",
                   "--realizations", "2", "--workers", workers, "--out", str(tmp_path)])
    assert rc == 3
    assert capsys.readouterr().err == "error: no prime pair p < q found for 8\n"
