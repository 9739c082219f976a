import math
import pickle
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goldbachnet import PrimeGraph, build, build_many, build_table, decompose
from goldbachnet.errors import SieveExhausted
from goldbachnet.figures import figure_tables
from goldbachnet.netbuild import (_RESET, _build_rows, _chunk_picks, _new_endpoints,
                                  _picker, _share_table)

from oracles import new_endpoints_by_search, pick_index

INF = math.inf


def _kernel_picks(d, alpha, draws):
    """Pairs of one even number that the block kernel picks for ``draws``."""
    return _picker(d.delta, d.counts)(alpha, draws[:, None])[:, 0]


def test_kernel_slots_n24(table_2k):
    d = decompose(table_2k, 24)
    # pairs (5, 19), (7, 17), (11, 13); cumulative weights at alpha=1:
    # (14, 24, 26) / 26
    draws = np.array([0.0, 14 / 26 - 1e-9, 14 / 26 + 1e-9, 24 / 26 + 1e-9, 0.999999,
                      1.0])  # a draw at the total: last pair
    assert _kernel_picks(d, 1.0, draws).tolist() == [0, 0, 1, 2, 2, 2]


def test_reset_slots_restart_the_cumsum(table_1m):
    """Rows laid flat, each behind [_RESET, -_RESET], get each row's own
    cumsum from one flat cumsum, bit for bit. A pair count under the 10**6
    cap is at most the odd primes up to 500 000, so an all-ones row that long
    bounds every running total the kernel sums past a reset."""
    longest = int(np.sum(table_1m.ordered_primes <= 500_000)) - 1
    rng = np.random.default_rng(24)
    rows = [rng.random(1), np.ones(longest), rng.random(7),
            np.exp(-800 * rng.random(300)), np.ones(longest), rng.random(2)]
    cum = np.cumsum(np.concatenate([x for row in rows for x in ([_RESET, -_RESET], row)]))
    start = 2
    for row in rows:
        assert cum[start:start + row.size].tobytes() == np.cumsum(row).tobytes()
        start += row.size + 2


def test_kernel_uniform_at_alpha_zero(table_2k):
    d = decompose(table_2k, 24)
    assert _kernel_picks(d, 0.0, np.array([0.1, 0.5, 0.9])).tolist() == [0, 1, 2]


def test_kernel_infinite_alpha(table_2k):
    d = decompose(table_2k, 24)
    for alpha, pair in ((INF, (5, 19)), (-INF, (11, 13))):
        i = _kernel_picks(d, alpha, np.array([0.7]))[0]
        assert (d.p[i], d.q[i]) == pair


def test_selection_frequencies_3sigma(table_2k):
    # alpha=1 over n=24: expected (14, 10, 2) / 26
    d = decompose(table_2k, 24)
    rng = np.random.default_rng(123)
    trials = 10_000
    counts = np.bincount(_kernel_picks(d, 1.0, rng.random(trials)), minlength=3)
    for i, prob in enumerate((14 / 26, 10 / 26, 2 / 26)):
        sigma = math.sqrt(prob * (1 - prob) / trials)
        assert abs(counts[i] / trials - prob) < 3 * sigma


def test_build_first_even_only(table_2k):
    g = build(table_2k, 0.0, 1, max_even=8)
    assert (g.edge_p.tolist(), g.edge_q.tolist(), g.edge_even.tolist()) == (
        [3], [5], [8])
    assert g.node_labels.tolist() == [3, 5]
    assert (g.num_edges, g.num_nodes) == (1, 2)
    assert g.node_count_history.tolist() == [2]  # 2 nodes after 1 link


@pytest.mark.parametrize("alpha", [-INF, -1.0, 0.0, 2.5, INF])
def test_build_forced_edges_up_to_12(table_2k, alpha):
    # every even number <= 12 has a single pair, so alpha cannot matter
    g = build(table_2k, alpha, 99, max_even=12)
    assert (g.edge_p.tolist(), g.edge_q.tolist(), g.edge_even.tolist()) == (
        [3, 3, 5], [5, 7, 7], [8, 10, 12])
    assert (g.num_nodes, g.num_edges) == (3, 3)


def test_build_deterministic(table_30k):
    a = build(table_30k, 0.7, 4242, target_nodes=300)
    b = build(table_30k, 0.7, 4242, target_nodes=300)
    assert np.array_equal(a.edge_p, b.edge_p)
    assert np.array_equal(a.edge_q, b.edge_q)
    assert np.array_equal(a.edge_even, b.edge_even)
    assert np.array_equal(a.node_count_history, b.node_count_history)


def test_build_many_matches_individual_builds(table_30k):
    seeds = [11, 22, 33]
    joint = build_many(table_30k, -0.8, seeds, target_nodes=250)
    for seed, g_joint in zip(seeds, joint):
        g_solo = build(table_30k, -0.8, seed, target_nodes=250)
        assert np.array_equal(g_joint.edge_p, g_solo.edge_p)
        assert np.array_equal(g_joint.edge_q, g_solo.edge_q)
        assert np.array_equal(g_joint.edge_even, g_solo.edge_even)


def _reference_builds(table, alpha, seeds, last_even, target_nodes=None):
    """Per-even, per-seed construction written independently of build_many.

    The pinned rule: the j-th even number n = 8 + 2j uses value j % 4096 of
    the seed's (j // 4096)-th block of 4096 uniforms; +-inf draws none. The
    pair comes from the per-even selection oracle ``pick_index``.
    Returns (edges, history, reached) per seed.
    """
    gens = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(s)))
            for s in seeds]
    blocks = [None] * len(seeds)
    out = [([], [], False) for _ in seeds]
    seen = [set() for _ in seeds]
    evens = range(8, last_even + 1, 2)
    decomp = decompose(table, evens)  # one range, split per even below
    ends = np.cumsum(decomp.counts)[:-1]
    per_even = zip(*(np.split(a, ends) for a in (decomp.delta, decomp.p, decomp.q)))
    for j, (n, (delta, p, q)) in enumerate(zip(evens, per_even)):
        for r, (edges, hist, reached) in enumerate(out):
            if reached:
                continue
            u = 0.0
            if math.isfinite(alpha):
                if j % 4096 == 0:
                    blocks[r] = gens[r].random(4096)
                u = float(blocks[r][j % 4096])
            i = pick_index(delta, alpha, np.array([u]))[0]
            pair = (int(p[i]), int(q[i]))
            edges.append((*pair, n))
            seen[r].update(pair)
            hist.append(len(seen[r]))
            if target_nodes is not None and len(seen[r]) >= target_nodes:
                out[r] = (edges, hist, True)
    return out


def _assert_replays(graphs, reference):
    for g, (edges, hist, _) in zip(graphs, reference):
        assert g.edge_p.tolist() == [e[0] for e in edges]
        assert g.edge_q.tolist() == [e[1] for e in edges]
        assert g.edge_even.tolist() == [e[2] for e in edges]
        assert g.node_count_history.tolist() == hist


@pytest.mark.parametrize("alpha", [-2.5, 0.7, -INF, INF])
def test_build_many_replays_reference_across_blocks(table_30k, alpha):
    # 4197 evens: past the first 4096-uniform block and over many chunks
    seeds = [3, 14, 15]
    graphs = build_many(table_30k, alpha, seeds, max_even=8400)
    _assert_replays(graphs, _reference_builds(table_30k, alpha, seeds, 8400))
    assert all(g.num_edges == 4197 for g in graphs)


def test_build_many_replays_reference_target_stops(table_30k):
    # the three seeds first reach 74 nodes at different evens: one inside
    # the first 256-even chunk, one on its last even (n = 518), one after
    seeds, alpha, target = [9, 1, 3], -1.0, 74
    graphs = build_many(table_30k, alpha, seeds, target_nodes=target)
    reference = _reference_builds(table_30k, alpha, seeds, 2000, target)
    _assert_replays(graphs, reference)
    stops = [len(edges) - 1 for edges, _, _ in reference]
    assert all(reached for _, _, reached in reference)
    assert 255 in stops and min(stops) < 255 and max(stops) > 255
    assert len(set(stops)) == 3


def test_build_many_partial_flags_only_exhausted(table_2k):
    # seed 7 reaches 275 nodes below the sieve bound, seed 9 never does
    seeds, target = [7, 9], 275
    graphs = build_many(table_2k, 0.0, seeds, target_nodes=target)
    reference = _reference_builds(table_2k, 0.0, seeds, 2000, target)
    _assert_replays(graphs, reference)
    assert [reached for _, _, reached in reference] == [True, False]
    assert [g.num_nodes < target for g in graphs] == [False, True]
    assert graphs[1].edge_even[-1] == 2000
    # build gives the row that reaches the target and raises for the short one
    _assert_same_graphs([build(table_2k, 0.0, 7, target_nodes=target)], graphs[:1])
    with pytest.raises(SieveExhausted):
        build(table_2k, 0.0, 9, target_nodes=target)


# finite and infinite alphas share each seed: the infinite rows draw no
# uniforms, the finite ones read the same uniforms of their seed
MIXED_ALPHAS = (-INF, -2.5, 0.7, INF)


def _assert_same_graphs(graphs, expected):
    assert len(graphs) == len(expected)
    for g, h in zip(graphs, expected):
        assert np.array_equal(g.edge_p, h.edge_p)
        assert np.array_equal(g.edge_q, h.edge_q)
        assert np.array_equal(g.edge_even, h.edge_even)
        assert np.array_equal(g.node_count_history, h.node_count_history)
        assert (g.alpha, g.seed) == (h.alpha, h.seed)


def _assert_multi_alpha_replays(table, seeds, last_even, target=None, **stop):
    """build_many over MIXED_ALPHAS equals per-alpha calls and the reference."""
    graphs = build_many(table, MIXED_ALPHAS, seeds, **stop)
    per_alpha = [g for a in MIXED_ALPHAS for g in build_many(table, a, seeds, **stop)]
    _assert_same_graphs(graphs, per_alpha)
    references = []
    for a, alpha in enumerate(MIXED_ALPHAS):
        reference = _reference_builds(table, alpha, seeds, last_even, target)
        _assert_replays(graphs[a * len(seeds):(a + 1) * len(seeds)], reference)
        references.extend(reference)
    return graphs, references


def test_build_many_alphas_replay_reference_across_blocks(table_30k):
    # 4197 evens per row: past the first 4096-uniform block of each seed
    graphs, _ = _assert_multi_alpha_replays(table_30k, [3, 14, 15], 8400,
                                            max_even=8400)
    assert [g.alpha for g in graphs] == [a for a in MIXED_ALPHAS for _ in range(3)]
    assert all(g.num_edges == 4197 for g in graphs)


def test_build_many_alphas_replay_reference_target_stops(table_30k):
    # rows first reach 150 nodes in three different 256-even chunks
    target = 150
    graphs, references = _assert_multi_alpha_replays(
        table_30k, [9, 1, 3], 2000, target, target_nodes=target)
    assert all(reached for _, _, reached in references)
    stops = [g.num_edges - 1 for g in graphs]
    assert len({stop // 256 for stop in stops}) >= 3
    assert len(set(stops)) > len(MIXED_ALPHAS)


def test_build_many_alphas_partial_flags_only_exhausted(table_2k):
    # below the 2000 bound, -inf and -2.5 never reach 285 nodes, +inf always
    # does, and at 0.7 seeds 7 and 4 do while seed 9 does not
    target = 285
    graphs, references = _assert_multi_alpha_replays(
        table_2k, [7, 9, 4], 2000, target, target_nodes=target)
    flags = [g.num_nodes < target for g in graphs]
    assert flags == [not reached for _, _, reached in references]
    assert flags == [True] * 6 + [False, True, False] + [False] * 3


class RecordingPool(ProcessPoolExecutor):
    """Process pool for ``_build_rows`` that notes the row count of each
    chunk task it is given, in submission order."""

    def __init__(self, table, workers):
        super().__init__(workers, initializer=_share_table, initargs=(table,))
        self.chunk_rows = []

    def submit(self, fn, *args):
        if fn is _chunk_picks:  # args: table, j, size, groups, draws
            self.chunk_rows.append(len(args[4]))
        return super().submit(fn, *args)


def streamed(table, alphas, seeds, marks, max_even=None, pool=None):
    """``{(row, k): graph}`` of everything ``_build_rows`` yields."""
    rows = _build_rows(table, [float(a) for a in alphas], [int(s) for s in seeds],
                       max_even, marks, pool)
    got = {}
    for r, k, g in rows:
        assert (r, k) not in got
        got[int(r), k] = g
    return got


def assert_streams_build_many(table, alphas, seeds, marks, max_even=None, pool=None):
    """Each (row, k) yields ``build_many(...)[row].snapshot_at(marks[k])``
    bit for bit, and rows short of the last mark come whole after it."""
    stop = {"max_even": max_even} if max_even else {"target_nodes": marks[-1]}
    expected = {}
    for r, g in enumerate(build_many(table, alphas, seeds, **stop)):
        for k, mark in enumerate(marks):
            if g.snapshot_at(mark) is not None:
                expected[r, k] = g.snapshot_at(mark)
        if max_even or g.num_nodes < marks[-1]:
            expected[r, len(marks)] = g
    got = streamed(table, alphas, seeds, marks, max_even, pool)
    assert sorted(got) == sorted(expected)
    _assert_same_graphs([got[key] for key in sorted(got)],
                        [expected[key] for key in sorted(expected)])
    return got


# (sieve, alphas, seeds, marks, max_even)
STREAM_CASES = {
    "exhausting-2000-cap": ("table_2k", MIXED_ALPHAS, [7, 9, 4], (50, 150, 285), None),
    "one-seed": ("table_30k", MIXED_ALPHAS, [9], (2, 74, 150, 600), None),
    "twenty-seeds": ("table_30k", (-INF, 0.0), list(range(20)), (100, 400), None),
    "max-even-stop": ("table_30k", MIXED_ALPHAS, [3, 14, 15], (), 8400),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", sorted(STREAM_CASES))
def test_streamed_rows_equal_build_many_snapshots(request, case, workers):
    name, alphas, seeds, marks, max_even = STREAM_CASES[case]
    table = request.getfixturevalue(name)
    if workers == 1:
        assert_streams_build_many(table, alphas, seeds, marks, max_even)
        return
    with RecordingPool(table, workers) as pool:
        assert_streams_build_many(table, alphas, seeds, marks, max_even, pool)
    assert pool.chunk_rows


@pytest.mark.parametrize("workers", [2, 3])
def test_look_ahead_drops_rows_stopped_in_flight(table_30k, workers):
    # below the 30000 bound -inf never reaches 1780 nodes; the other rows stop
    # in 256-even chunks 29 to 31 and 58, with workers + 1 chunks in flight;
    # the rows that stop first lead, so the rows still active are not a prefix
    alphas, seeds, marks = MIXED_ALPHAS[::-1], [9, 1, 3], (150, 600, 1780)
    with RecordingPool(table_30k, workers) as pool:
        got = assert_streams_build_many(table_30k, alphas, seeds, marks, pool=pool)
    last = len(marks) - 1
    stops = [(got[r, last].num_edges - 1) // 256 if (r, last) in got else INF
             for r in range(len(alphas) * len(seeds))]
    assert stops.count(INF) == len(seeds)
    assert sorted(set(stops)) == [29, 31, 58, INF]
    # chunk c is drawn for the rows active after chunk c - workers - 1,
    # then cut to the rows still active when it comes back
    assert pool.chunk_rows == [sum(s >= c - workers for s in stops)
                               for c in range(len(pool.chunk_rows))]
    assert len(pool.chunk_rows) == (30_000 - 8) // 2 // 256 + 1
    # chunks 30 and 31 were in flight, drawn for them, when rows stopped in 29
    for c in (30, 31):
        assert pool.chunk_rows[c] > sum(s >= c for s in stops)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name, seeds, marks, short, stop_chunks", [
    # under the 2000 cap rows 0-5 (-inf, -2.5) and 7 (0.7, seed 9) run out
    ("table_2k", [7, 9, 4], (50, 150, 285), [0, 1, 2, 3, 4, 5, 7], {3}),
    # the +inf, 0.7 and -2.5 rows stop in 256-even chunks 29, 31 and 58 (the
    # last), and the -inf rows run out
    ("table_30k", [9, 1, 3], (150, 600, 1780), [0, 1, 2], {29, 31, 58}),
], ids=["2000-cap", "30000-cap"])
def test_short_rows_come_after_every_mark_in_row_order(request, name, seeds, marks,
                                                       short, stop_chunks, workers):
    """Rows short of the last mark are yielded after every mark yield, in
    ascending row order, inline and pooled; run_sweep's warnings keep it."""
    table = request.getfixturevalue(name)
    with RecordingPool(table, workers) if workers > 1 else nullcontext() as pool:
        rows = list(_build_rows(table, list(MIXED_ALPHAS), seeds, None, marks, pool))
    last = len(rows) - len(short)
    assert [(r, k) for r, k, _ in rows[last:]] == [(r, len(marks)) for r in short]
    assert all(k < len(marks) for _, k, _ in rows[:last])
    assert {(g.num_edges - 1) // 256 for _, k, g in rows
            if k >= len(marks) - 1} == stop_chunks


@pytest.fixture(scope="module")
def pool_2k(table_2k):
    with RecordingPool(table_2k, 2) as pool:
        yield pool


# Pinned cases, run whatever else the suite collects: a row stops while later
# chunks drawn for it are in flight and the rows left are not a prefix of the
# chunk's rows (the first two), and a row crosses an inner mark mid-chunk
# (the last two).
@example(alphas=[INF, -INF], seeds=[1], stop=((150,), None))
@example(alphas=[2.0, -2.5], seeds=[1, 2], stop=((100, 200), None))
@example(alphas=[INF, 0.0], seeds=[1], stop=((50, 100), None))
@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    alphas=st.lists(st.sampled_from((-INF, -2.5, 0.0, 0.7, 2.0, INF)), min_size=1,
                    max_size=3, unique=True),
    seeds=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    stop=st.one_of(
        st.lists(st.integers(2, 290), min_size=1, max_size=4, unique=True).map(
            lambda marks: (tuple(sorted(marks)), None)),
        st.integers(4, 1000).map(lambda n: ((), 2 * n)),
    ),
)
def test_pooled_rows_equal_build_many_snapshots(table_2k, pool_2k, alphas, seeds, stop):
    """Pooled construction streams what build_many and snapshot_at give, for
    any alphas, seeds, marks (-inf and -2.5 rows exhaust the 2000 bound
    before 285 nodes) or max_even stop."""
    marks, max_even = stop
    assert_streams_build_many(table_2k, alphas, seeds, marks, max_even, pool_2k)


def test_graphs_store_int32_and_derive_source_evens(table_2k):
    g = build_many(table_2k, (0.0, INF), [1], max_even=2000)[0]
    for arr in (g.edge_p, g.edge_q, g.node_count_history):
        assert arr.dtype == np.int32
    assert PrimeGraph.__slots__ == ("edge_p", "node_count_history", "alpha", "seed")
    assert "edge_even" not in PrimeGraph.__slots__
    assert "edge_q" not in PrimeGraph.__slots__
    assert g.edge_even.tolist() == list(range(8, 2001, 2))
    assert np.array_equal(g.edge_q, g.edge_even - g.edge_p)
    sub = g.snapshot_at(100)
    assert sub.edge_even.tolist() == g.edge_even[:sub.num_edges].tolist()
    # the metrics read each prime as its row in node_labels
    n, u, v = g.edge_rows()
    labels = g.node_labels
    assert n == labels.size == g.num_nodes and (np.diff(labels) > 0).all()
    assert np.array_equal(labels[u], g.edge_p) and np.array_equal(labels[v], g.edge_q)


def test_pickled_snapshot_ships_8_bytes_per_edge(table_30k):
    # what a metrics task sends a worker: int32 p and node counts per edge
    g = build(table_30k, 0.0, 5, max_even=20_000)
    for n_star in (300, 1000, 2000):
        sub = g.snapshot_at(n_star)
        assert sub.num_edges > 1000
        assert len(pickle.dumps(sub)) <= 8 * sub.num_edges + 1024


def test_growth_log_and_edge_accounting(table_30k):
    g = build(table_30k, 0.0, 5, max_even=5000)
    evens = np.arange(8, 5001, 2)
    assert np.array_equal(g.edge_even, evens)
    assert g.num_edges == evens.size
    hist = g.node_count_history
    assert (np.diff(hist) >= 0).all() and (np.diff(hist) <= 2).all()
    assert hist[0] == 2


@pytest.mark.parametrize("alpha", [-INF, -2.5, -1.0, 0.0, 1.0, 2.0, INF])
def test_simplicity_and_node_bound(table_30k, alpha):
    g = build(table_30k, alpha, 31, max_even=20_000)
    assert (g.edge_p < g.edge_q).all()
    assert (g.edge_p + g.edge_q == g.edge_even).all()
    assert np.isin(g.edge_p, table_30k.ordered_primes).all()
    assert np.isin(g.edge_q, table_30k.ordered_primes).all()
    # no duplicate undirected edges (pair sums are distinct by construction)
    keys = g.edge_p.astype(np.int64) * 10**6 + g.edge_q
    assert np.unique(keys).size == g.num_edges
    # loose sparsity bound: node count never exceeds link count + 1
    m = np.arange(1, g.num_edges + 1)
    assert (g.node_count_history <= m + 1).all()


def test_positive_alpha_grows_faster(table_30k):
    fast = build(table_30k, 2.0, 8, max_even=10_000)
    slow = build(table_30k, -2.0, 8, max_even=10_000)
    assert fast.num_edges == slow.num_edges
    assert fast.num_nodes > slow.num_nodes
    tail = slice(100, None)
    assert (fast.node_count_history[tail] >= slow.node_count_history[tail]).all()


def test_snapshots_basic(table_30k):
    g = build(table_30k, 0.0, 2, max_even=4000)
    assert g.snapshot_at(2).num_edges == 1
    n50 = g.snapshot_at(50)
    assert n50.num_nodes >= 50
    assert n50.node_count_history[-2] < 50  # first crossing, not a later state
    assert g.snapshot_at(10**6) is None  # unreachable checkpoints are absent


def test_snapshot_prefix_consistency(table_30k):
    g = build(table_30k, 1.0, 3, target_nodes=500)
    sub = g.snapshot_at(400)
    idx = int(np.searchsorted(g.node_count_history, 400))
    assert sub.num_edges == idx + 1
    assert sub.num_nodes == int(g.node_count_history[idx])
    assert np.array_equal(sub.edge_p, g.edge_p[: idx + 1])


def test_sieve_exhausted(table_2k):
    with pytest.raises(SieveExhausted) as err:
        build(table_2k, 0.0, 1, target_nodes=100_000)
    # the partial state: last even consumed, nodes reached, links, alpha
    assert str(err.value) == (
        "even numbers exhausted at 2000 (bound 2000): reached N=272 of 100000 "
        "nodes with M=997 links at alpha=0.0"
    )


def test_exhaust_partial_mode(table_2k):
    graphs = build_many(table_2k, 0.0, [1, 2], target_nodes=100_000)
    assert all(g.num_nodes < 100_000 for g in graphs)
    assert all(g.num_edges > 0 for g in graphs)
    assert all(int(g.edge_even[-1]) <= table_2k.limit for g in graphs)


def test_sieve_below_the_first_even_gives_empty_rows():
    g, = build_many(build_table(7), 0.0, [1], target_nodes=10)
    assert g.num_edges == 0 and g.num_nodes == 0
    with pytest.raises(SieveExhausted):
        build(build_table(7), 0.0, 1, target_nodes=10)


def test_max_even_beyond_sieve(table_2k):
    with pytest.raises(ValueError, match="^max_even=50000 needs a sieve up to it, "
                                         "table stops at 2000$"):
        build(table_2k, 0.0, 1, max_even=50_000)


def test_config_validation(table_2k):
    def build_one(table, alpha, seed, **stop):
        return build_many(table, alpha, [seed], **stop)

    for alpha, seed, stop, message in (
        (0.0, 1, {}, "set exactly one of max_even / target_nodes"),
        (0.0, 1, {"max_even": 1000, "target_nodes": 10},
         "set exactly one of max_even / target_nodes"),
        (0.0, 1, {"max_even": 7}, "max_even must be even and >= 8, got 7"),
        (0.0, 1, {"target_nodes": 1}, "target_nodes must be >= 2, got 1"),
        (math.nan, 1, {"max_even": 100}, "alpha must not be NaN"),
        (0.0, -1, {"max_even": 100}, "seed must fit in 64 unsigned bits"),
        (0.0, 2**64, {"max_even": 100}, "seed must fit in 64 unsigned bits"),
    ):
        for fn in (build, build_one):
            with pytest.raises(ValueError, match=f"^{message}$"):
                fn(table_2k, alpha, seed, **stop)
    # a fractional count or bound is refused, not truncated or compared as a float
    for stop in ({"target_nodes": 2.5}, {"target_nodes": 10.5}, {"max_even": 200.0}):
        for fn in (build, build_one):
            with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
                fn(table_2k, 0.0, 1, **stop)


def test_build_many_checks_every_seed(table_2k):
    # 2**64 built a graph and -1 failed inside numpy before the seed check
    for seeds in ([2**64], [-1], [1, 2**64], [2**64 - 1, -1]):
        with pytest.raises(ValueError, match="^seed must fit in 64 unsigned bits$"):
            build_many(table_2k, (0.0, 1.0), seeds, max_even=100)
    g, = build_many(table_2k, 0.0, [2**64 - 1], max_even=100)
    assert g.seed == 2**64 - 1


def test_edge_list_export(tmp_path, table_2k, table_30k):
    g = build(table_2k, -INF, 6, max_even=12)
    path = tmp_path / "edges.txt"
    g.write_edge_list(path)
    text = path.read_text()
    assert text == (
        "# goldbach-net alpha=-inf seed=6 M=3 N=3\n"
        "3 5 8\n3 7 10\n5 7 12\n"
    )
    # 9997 edges, written 4096 at a time: every line in order across the seams
    g = build(table_30k, 0.0, 6, max_even=20_000)
    g.write_edge_list(path)
    assert path.read_text().splitlines()[1:] == [
        f"{p} {q} {n}" for p, q, n in zip(g.edge_p.tolist(), g.edge_q.tolist(),
                                          g.edge_even.tolist())]


def test_selection_frequencies_3sigma_large_even(table_1m):
    # alpha=-2.5 over n=100002 (1423 pairs): the six likeliest pairs hold
    # about 85% of the mass; exact probabilities from delta**alpha directly
    n, alpha, trials = 100_002, -2.5, 200_000
    d = decompose(table_1m, n)
    weights = d.delta.astype(np.float64) ** alpha
    prob = weights / weights.sum()
    likeliest = np.argsort(prob)[::-1][:6]
    rng = np.random.default_rng(20260808)
    counts = np.bincount(_kernel_picks(d, alpha, rng.random(trials)),
                         minlength=d.omega)
    for i in likeliest:
        sigma = math.sqrt(prob[i] * (1 - prob[i]) / trials)
        observed = counts[i] / trials
        assert abs(observed - prob[i]) < 3 * sigma, (
            f"pair ({d.p[i]}, {d.q[i]}): observed {observed:.5f}, "
            f"expected {prob[i]:.5f} +- {3 * sigma:.5f}"
        )


def test_pick_stable_at_extreme_alpha(table_30k):
    # max-rescaled weights stay finite where delta**alpha would overflow;
    # strongly negative alpha concentrates on the smallest spread, strongly
    # positive on the largest spreads, which cluster within ~0.04% at the top
    d = decompose(table_30k, 20_000)
    draws = np.linspace(0.0, 1.0, 1001)[1:-1]
    for alpha in (-150.0, 150.0):
        assert np.array_equal(_kernel_picks(d, alpha, draws),
                              pick_index(d.delta, alpha, draws))
    assert (_kernel_picks(d, -150.0, draws) == np.argmin(d.delta)).all()
    top = d.delta[_kernel_picks(d, 150.0, draws)]
    assert top.mean() == pytest.approx(float(d.delta.max()), rel=0.01)
    assert (top >= 0.9 * d.delta.max()).all()


def test_largest_finite_alpha_builds_the_infinite_graphs(table_30k):
    # at the largest |alpha| check_run accepts, alpha * log(delta) stays
    # finite, and all the weight of each even falls on its extreme spread
    with np.errstate(over="raise", invalid="raise"):
        for alpha in (2.8e306, -2.8e306):
            finite = build(table_30k, alpha, 5, max_even=20_000)
            limit = build(table_30k, math.copysign(INF, alpha), 5, max_even=20_000)
            assert np.array_equal(finite.edge_p, limit.edge_p)


def test_new_endpoints_match_the_search_oracle(table_30k):
    """Counting new endpoints on the picked prime indices equals searching
    each endpoint in the ordered primes, in counts and in the cells marked,
    on chunks over some of the rows, partly seen before, and while ``seen``
    doubles its columns to cover the chunks' prime indices."""
    primes = table_30k.ordered_primes
    rng = np.random.default_rng(20260808)
    groups = [(-INF, 0, 2), (-2.5, 2, 4), (0.0, 4, 6), (INF, 6, 8)]
    for _ in range(12):
        j, size = int(rng.integers(0, 14_000)), int(rng.integers(1, 257))
        rows = np.sort(rng.choice(10, size=8, replace=False))
        idx = _chunk_picks(table_30k, j, size, groups, rng.random((8, size)))
        evens = np.arange(8 + 2 * j, 8 + 2 * (j + size), 2)
        assert idx.dtype == np.int32 and idx.shape == (8, size, 2)
        assert (primes[idx[..., 0]] + primes[idx[..., 1]] == evens).all()
        seen = rng.random((10, primes.size)) < rng.choice([0.0, 0.05, 0.5], (10, 1))
        expected_seen = seen.copy().ravel()
        expected = new_endpoints_by_search(primes, expected_seen, rows, j,
                                           primes[idx[..., 0]])
        seen, new = _new_endpoints(seen, rows, idx)
        assert new.dtype == np.uint8
        assert np.array_equal(new, expected)
        assert np.array_equal(seen.ravel(), expected_seen)
    # chunks at evens 8-518, 608-1118, 4008-4518 and 4208-4718: seen grows
    # 64 -> 128, -> 256, -> 1024 (twice in one chunk), then holds
    seen = np.zeros((10, 64), dtype=bool)
    expected_seen = np.zeros(10 * primes.size, dtype=bool)
    for j, width in ((0, 128), (300, 256), (2000, 1024), (2100, 1024)):
        rows = np.sort(rng.choice(10, size=8, replace=False))
        idx = _chunk_picks(table_30k, j, 256, groups, rng.random((8, 256)))
        expected = new_endpoints_by_search(primes, expected_seen, rows, j,
                                           primes[idx[..., 0]])
        seen, new = _new_endpoints(seen, rows, idx)
        assert seen.shape == (10, width) and idx.max() < width
        assert np.array_equal(new, expected)
        marked = expected_seen.reshape(10, -1)
        assert np.array_equal(seen, marked[:, :width]) and not marked[:, width:].any()


def test_grid_build_memory_stays_bounded(table_1m):
    # the six grid alphas at one seed to 4000 nodes, run alone: about 4.9 MB
    # with flat blocks of 32 even numbers, 3-byte records and a growing seen,
    # 5.6 MB with each even padded to the block's largest pair count, 6.3 MB
    # with 5-byte records and seen over all the sieve's primes, about 20 MB
    # with whole 256-even chunks
    tracemalloc.start()
    try:
        build_many(table_1m, (0.0, -1.0, -1.4, -1.8, -2.1, -2.5), [1],
                   target_nodes=4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MB"


def test_single_build_memory_stays_bounded(table_1m):
    # one 5000-node build at alpha = -2.5, run alone: about 3.8 MB with each
    # 32-even block's weights laid flat, 4.7 MB with each even padded to the
    # block's largest pair count
    tracemalloc.start()
    try:
        build(table_1m, -2.5, 1, target_nodes=5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.3 * 2**20, f"tracemalloc peak {peak / 2**20:.2f} MB"


def test_twenty_seed_build_memory_stays_bounded(table_1m):
    # one grid cell's construction, 20 rows to 4000 nodes (about 37k edges
    # each), run alone: about 10.4 MB with 3-byte records, seen grown to the
    # picked primes and flat blocks (11.1 MB padded), 13.9 MB with 5-byte
    # records and seen over all 78 498 primes of the sieve; the 20 graphs
    # returned hold 5.9 MB of that
    tracemalloc.start()
    try:
        build_many(table_1m, -2.5, range(20), target_nodes=4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12.5 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MB"


def test_growth_figure_memory_stays_bounded():
    # 100 rows of 9997 edges in one pass, run alone: about 8.7 MB with 3-byte
    # chunk records, 10.4 MB with 5-byte ones, 16.4 MB with 12-byte ones,
    # 16.6 MB if the 100 graphs are kept
    tracemalloc.start()
    try:
        figure_tables(6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20, f"tracemalloc peak {peak / 2**20:.1f} MB"
