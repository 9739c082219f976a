"""Property tests of construction, metrics and the null model, run
derandomized so that tier-1 stays deterministic."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (TinyGraph, floyd_warshall_stats, gnm_by_set, newman_r,
                     per_node_clustering, pick_index)

from goldbachnet import (baseline, build_many, compute_report, decompose,
                         metrics, sample_gnm)
from goldbachnet.netbuild import _picker

ALPHAS = (-math.inf, -2.5, -1.0, 0.0, 0.7, 2.0, math.inf)
SEEDS = (1, 7, 9, 42, 2**63 + 5)

stops = st.one_of(
    st.builds(lambda n: {"max_even": 2 * n}, st.integers(4, 1000)),
    st.builds(lambda n: {"target_nodes": n}, st.integers(2, 320)),
)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(
    alphas=st.lists(st.sampled_from(ALPHAS), min_size=1, max_size=4, unique=True),
    seeds=st.lists(st.sampled_from(SEEDS), min_size=1, max_size=4),
    stop=stops,
    data=st.data(),
)
def test_row_independent_of_call_companions(table_2k, alphas, seeds, stop, data):
    """A (alpha, seed) row is the same whatever other rows share the call."""
    a = data.draw(st.integers(0, len(alphas) - 1), label="alpha index")
    i = data.draw(st.integers(0, len(seeds) - 1), label="seed index")
    joint = build_many(table_2k, alphas, seeds, **stop)[a * len(seeds) + i]
    alone = build_many(table_2k, alphas[a], [seeds[i]], **stop)[0]
    assert np.array_equal(joint.edge_p, alone.edge_p)
    assert np.array_equal(joint.edge_q, alone.edge_q)
    assert np.array_equal(joint.node_count_history, alone.node_count_history)
    assert (joint.alpha, joint.seed) == (alone.alpha, alone.seed)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(alpha=st.sampled_from(ALPHAS), seed=st.sampled_from(SEEDS), stop=stops,
       n_star=st.integers(2, 400))
def test_construction_is_goldbach_simple_and_prefix_closed(table_2k, alpha, seed,
                                                          stop, n_star):
    """Edge i joins two primes summing to 8 + 2i, no edge repeats, the node
    count history counts distinct primes, and a snapshot is a prefix."""
    g = build_many(table_2k, alpha, [seed], **stop)[0]
    p, q = g.edge_p.astype(np.int64), g.edge_q.astype(np.int64)
    assert (p + q == 8 + 2 * np.arange(g.num_edges)).all()
    assert (p < q).all()
    assert np.isin(p, table_2k.ordered_primes).all()
    assert np.isin(q, table_2k.ordered_primes).all()
    assert np.unique(p * table_2k.limit + q).size == g.num_edges
    seen = set()
    for i, pair in enumerate(zip(p.tolist(), q.tolist())):
        seen.update(pair)
        assert g.node_count_history[i] == len(seen)
    sub = g.snapshot_at(n_star)
    if sub is None:
        assert g.num_nodes < n_star
        return
    m = sub.num_edges
    assert np.array_equal(sub.edge_p, g.edge_p[:m])
    assert np.array_equal(sub.edge_q, g.edge_q[:m])
    assert np.array_equal(sub.node_count_history, g.node_count_history[:m])
    assert sub.num_nodes >= n_star and (m == 1 or sub.node_count_history[-2] < n_star)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    # up to the top of table_1m (a 32-even block ends at or below 10**6 + 2),
    # where evens have thousands of pairs
    n0=st.integers(4, 499_970).map(lambda i: 2 * i),
    width=st.integers(1, 32),
    alpha=st.sampled_from((-math.inf, -2.8e306, -150.0, -2.5, 0.0, 1.3, 150.0,
                           2.8e306, math.inf)),
    seed=st.integers(0, 2**32 - 1),
)
@example(n0=999_940, width=32, alpha=-2.8e306, seed=1)
def test_block_picks_equal_the_per_even_oracle(table_1m, n0, width, alpha, seed):
    """The block kernel picks what the per-even law picks, bit for bit, for
    draws of 0, the largest double below 1, 1 itself (the only draw that
    reaches the total) and random ones, and raises no overflow or invalid
    operation, even at the largest finite |alpha|."""
    d = decompose(table_1m, range(n0, n0 + 2 * width, 2))
    special = np.array([0.0, np.nextafter(1.0, 0.0), 1.0])[:, None]
    draws = np.vstack([np.broadcast_to(special, (3, width)),
                       np.random.default_rng(seed).random((4, width))])
    with np.errstate(over="raise", invalid="raise"):
        picks = _picker(d.delta, d.counts)(alpha, draws)
    first = np.cumsum(d.counts) - d.counts
    for k, (lo, hi) in enumerate(zip(first, first + d.counts)):
        assert np.array_equal(picks[:, k] - lo,
                              pick_index(d.delta[lo:hi], alpha, draws[:, k]))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(which=st.integers(0, 2), width=st.integers(1, 64), data=st.data())
def test_decompose_indexes_the_ordered_primes(table_2k, table_30k, table_1m,
                                              which, width, data):
    """A block's ip and iq are the int32 positions of p < q in the ordered
    primes, pair for pair as a per-even scan of the primes finds them."""
    table = (table_2k, table_30k, table_1m)[which]
    primes = table.ordered_primes
    last = (table.limit + 3) // 2 - width + 1  # last even of the block <= limit + 3
    n0 = 2 * data.draw(st.integers(4, last), label="n0 / 2")
    d = decompose(table, range(n0, n0 + 2 * width, 2))
    position = np.full(table.limit + 1, -1)
    position[primes] = np.arange(primes.size)
    ip, iq = [], []
    for n in range(n0, n0 + 2 * width, 2):
        p = primes[2 * primes < n]
        p = p[position[n - p] >= 0]
        ip.append(position[p])
        iq.append(position[n - p])
    assert d.ip.dtype == d.iq.dtype == np.int32
    assert d.counts.tolist() == [a.size for a in ip]
    assert np.array_equal(d.ip, np.concatenate(ip))
    assert np.array_equal(d.iq, np.concatenate(iq))
    assert np.array_equal(primes[d.ip], d.p) and np.array_equal(primes[d.iq], d.q)
    assert (d.ip < d.iq).all()


def _pairs(n):
    return (st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
            .filter(lambda e: e[0] != e[1]).map(lambda e: (min(e), max(e))))


@st.composite
def small_graphs(draw):
    """Up to 40 nodes and 2n edges: often disconnected, often with isolated
    nodes."""
    n = draw(st.integers(2, 40))
    return n, sorted(draw(st.sets(_pairs(n), min_size=1, max_size=2 * n)))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(graph=small_graphs(), data=st.data())
def test_report_invariant_under_any_relabelling(graph, data):
    """Any permutation onto any sorted, non-contiguous labels, with edges
    reversed in order and direction, gives the same report; only the float
    sums over nodes, C and C(k), may round differently."""
    n, edges = graph
    perm = data.draw(st.permutations(range(n)), label="permutation")
    labels = sorted(data.draw(st.sets(st.integers(0, 10**9), min_size=n,
                                      max_size=n), label="labels"))
    new = [labels[i] for i in perm]
    moved = [(new[v], new[u]) for u, v in reversed(edges)]
    before = compute_report(TinyGraph(n, edges)).to_dict()
    after = compute_report(TinyGraph(n, moved, labels=labels)).to_dict()
    assert before.pop("C") == pytest.approx(after.pop("C"), rel=0, abs=1e-12)
    c_k, c_k_after = before.pop("C_by_degree"), after.pop("C_by_degree")
    assert c_k.keys() == c_k_after.keys()
    for k in c_k:
        assert c_k[k] == pytest.approx(c_k_after[k], rel=0, abs=1e-12)
    assert before == after


@st.composite
def hub_graphs(draw):
    """9 to 40 nodes, one to three hubs linked to at least half of the
    others, plus up to n random edges."""
    n = draw(st.integers(9, 40))
    edges = draw(st.sets(_pairs(n), max_size=n))
    for hub in range(draw(st.integers(1, 3))):
        spokes = draw(st.sets(st.integers(0, n - 1), min_size=n // 2))
        edges |= {(min(hub, s), max(hub, s)) for s in spokes if s != hub}
    return n, sorted(edges)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(graph=st.one_of(small_graphs(), hub_graphs()), cols=st.integers(1, 16),
       edge_rows=st.integers(1, 8))
def test_report_matches_oracles_in_any_row_blocks(graph, cols, edge_rows):
    """d, p(j), the reachable fraction and the giant component equal
    Floyd-Warshall, C and C(k) the per-node count, and the paper convention
    is standard times (k-1)/(k+1) in every degree bin, whatever the column
    and edge blocks of the triangle count."""
    n, edges = graph
    with mock.patch.multiple(metrics, _TRIANGLE_COLS=cols, _TRIANGLE_EDGES=edge_rows):
        report = compute_report(TinyGraph(n, edges))
        paper = compute_report(TinyGraph(n, edges), "paper").C_by_degree
    d, p_of_j, reachable_fraction, giant = floyd_warshall_stats(n, edges)
    assert report.d == pytest.approx(d, rel=0, abs=1e-12)
    assert report.p_of_j.keys() == p_of_j.keys()
    for j in p_of_j:
        assert report.p_of_j[j] == pytest.approx(p_of_j[j], rel=0, abs=1e-12)
    assert (report.reachable_fraction, report.giant_component_size) == (
        reachable_fraction, giant)
    c_i = per_node_clustering(n, edges)
    deg = np.bincount(np.ravel(edges), minlength=n)
    assert report.C == pytest.approx(c_i.mean(), rel=0, abs=1e-12)
    assert report.C_by_degree.keys() == paper.keys() == set(deg.tolist())
    for k, c_k in report.C_by_degree.items():
        assert c_k == pytest.approx(c_i[deg == k].mean(), rel=0, abs=1e-12)
        assert paper[k] == pytest.approx(c_k * (k - 1) / (k + 1), rel=0, abs=1e-12)


@st.composite
def edge_regular_graphs(draw):
    """Disjoint copies of one k-regular graph (cycles, or cliques K_m) plus
    isolated nodes: every edge end has degree k, so r is undefined."""
    edges, n = [], 0
    if draw(st.booleans()):
        for size in draw(st.lists(st.integers(3, 9), min_size=1, max_size=4)):
            edges += [(n + i, n + (i + 1) % size) for i in range(size)]
            n += size
    else:
        size = draw(st.integers(2, 6))
        for _ in range(draw(st.integers(1, 4))):
            edges += [(n + i, n + j) for i in range(size) for j in range(i + 1, size)]
            n += size
    return n + draw(st.integers(0, 5)), edges


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(graph=st.one_of(hub_graphs(), edge_regular_graphs()))
def test_assortativity_matches_newman_oracle(graph):
    n, edges = graph
    expected = newman_r(n, edges)
    r = compute_report(TinyGraph(n, edges)).r
    if expected is None:
        assert r is None
    else:
        assert r == pytest.approx(expected, rel=0, abs=1e-9)


@st.composite
def gnm_args(draw):
    n = draw(st.one_of(st.integers(2, 100), st.integers(2, 5000)))
    most = n * (n - 1) // 2 if n <= 100 else 3000  # complete graphs stay small
    m = draw(st.one_of(st.just(0), st.just(most), st.integers(0, most)))
    seed = draw(st.one_of(st.sampled_from((0, 7, 2**64 - 1)),
                          st.integers(0, 2**64 - 1)))
    return n, m, seed


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(args=gnm_args())
def test_sample_gnm_gives_exactly_m_distinct_ordered_pairs(args):
    n, m, seed = args
    g = sample_gnm(n, m, seed)
    n_rows, u, v = g.edge_rows()
    assert n_rows == n and np.array_equal(u, g.edge_u) and np.array_equal(v, g.edge_v)
    assert u.size == v.size == m
    assert ((0 <= u) & (u < v) & (v < n)).all()
    assert np.unique(u * n + v).size == m


def _check_csr(graph):
    """``_adjacency`` gives int64 columns in [0, n), strictly ascending in
    each row, over both directions of every edge and nothing else, so the
    BFS gather may clip instead of checking its bounds."""
    n, u, v = graph.edge_rows()
    indptr, indices = metrics._adjacency(graph)
    assert indptr.dtype == indices.dtype == np.int64
    assert indptr.size == n + 1 and indptr[0] == 0 and indptr[-1] == 2 * u.size
    assert ((0 <= indices) & (indices < n)).all()
    keys = np.repeat(np.arange(n), np.diff(indptr)) * n + indices
    assert (np.diff(keys) > 0).all()  # rows in order, columns ascending within
    assert np.array_equal(keys, np.sort(np.concatenate([u * n + v, v * n + u])))
    rows, cols = np.divmod(keys, n)
    assert np.array_equal(np.sort(cols * n + rows), keys)  # symmetric


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(args=gnm_args())
def test_gnm_csr_is_symmetric_sorted_and_in_bounds(args):
    _check_csr(sample_gnm(*args))


@pytest.mark.parametrize("alpha", [0.0, -2.5])
def test_prime_graph_csr_is_symmetric_sorted_and_in_bounds(table_1m, alpha):
    for g in build_many(table_1m, alpha, [1, 20260808], target_nodes=4000):
        for n_star in (2, 3, 50, 500, 2000, 4000):
            _check_csr(g.snapshot_at(n_star))


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(args=gnm_args())
@example(args=(2, 0, 7))
@example(args=(2, 1, 0))
@example(args=(100, 4950, 2**64 - 1))
@pytest.mark.parametrize("sort_bits", [63, 0], ids=["packed", "argsort"])
def test_sample_gnm_equals_set_oracle(args, sort_bits):
    """The sort-based sampler keeps the same pairs, in the same order and
    dtype, as the one-candidate-at-a-time set loop, on the packed-key path
    and on the stable-argsort path that large n takes."""
    n, m, seed = args
    with mock.patch.object(baseline, "_SORT_BITS", sort_bits):
        g = sample_gnm(n, m, seed)
    u, v = gnm_by_set(n, m, seed)
    assert g.edge_u.dtype == u.dtype and g.edge_v.dtype == v.dtype
    assert np.array_equal(g.edge_u, u) and np.array_equal(g.edge_v, v)
