import itertools
import math
from unittest import mock

import numpy as np
import pytest
from oracles import gnm_by_set

from goldbachnet import compute_report, sample_gnm


def test_forced_triangle():
    g = sample_gnm(3, 3, seed=5)
    edges = set(zip(g.edge_u.tolist(), g.edge_v.tolist()))
    assert edges == {(0, 1), (0, 2), (1, 2)}


def test_exact_edge_count_and_mean_degree():
    report = compute_report(sample_gnm(1000, 3000, seed=9))
    assert report.n_edges == 3000
    assert report.mean_k == pytest.approx(6.0, abs=1e-12)


def test_infeasible():
    with pytest.raises(ValueError,
                       match=r"^m_edges=7 outside \[0, 6\] for 4 nodes$"):
        sample_gnm(4, 7, seed=1)
    with pytest.raises(ValueError,
                       match=r"^m_edges=-1 outside \[0, 6\] for 4 nodes$"):
        sample_gnm(4, -1, seed=1)
    with pytest.raises(ValueError, match="^need at least 2 nodes, got 1$"):
        sample_gnm(1, 0, seed=1)


@pytest.mark.parametrize("n, packed", [(2**22, True), (2**29, False),
                                       (3_037_000_500, False)])
def test_large_n_matches_oracle_on_either_sort_path(n, packed):
    # n**2 shifted by the 9 position bits of a 256-candidate round fits 63
    # bits at n = 2**22 only; above it the keys take a stable argsort
    with mock.patch.object(np, "argsort", wraps=np.argsort) as argsort:
        for seed in (0, 7, 2**64 - 1):
            g = sample_gnm(n, 10, seed)
            u, v = gnm_by_set(n, 10, seed)
            assert np.array_equal(g.edge_u, u) and np.array_equal(g.edge_v, v)
    assert argsort.called is not packed


def test_pair_keys_beyond_int64_are_refused():
    with pytest.raises(ValueError, match="^pair keys fit int64 up to 3037000500 "
                                         "nodes, got 3037000501$"):
        sample_gnm(3_037_000_501, 1, seed=1)


def test_determinism_and_simplicity():
    for seed in (0, 1, 99):
        a = sample_gnm(50, 120, seed)
        b = sample_gnm(50, 120, seed)
        assert np.array_equal(a.edge_u, b.edge_u)
        assert np.array_equal(a.edge_v, b.edge_v)
        assert (a.edge_u < a.edge_v).all()
        keys = a.edge_u * 50 + a.edge_v
        assert np.unique(keys).size == 120


def test_uniformity_over_all_three_edge_graphs_on_four_nodes():
    # 6 possible pairs on 4 labeled nodes -> C(6,3) = 20 distinct graphs
    pairs = list(itertools.combinations(range(4), 2))
    assert len(pairs) == 6
    n_graphs = math.comb(6, 3)
    assert n_graphs == 20
    counts = {}
    samples = 20_000
    for seed in range(samples):
        g = sample_gnm(4, 3, seed)
        key = tuple(sorted(zip(g.edge_u.tolist(), g.edge_v.tolist())))
        counts[key] = counts.get(key, 0) + 1
    assert len(counts) == n_graphs
    p = 1 / n_graphs
    sigma = math.sqrt(samples * p * (1 - p))
    for key, c in counts.items():
        assert abs(c - samples * p) < 4 * sigma, (key, c)


def test_clustering_matches_erdos_renyi_expectation():
    # ensemble mean C' ~ <k>/(N-1) for G(N, M)
    n, m, runs = 1000, 3000, 50
    cs = []
    for seed in range(runs):
        from goldbachnet.metrics import clustering

        cs.append(clustering(sample_gnm(n, m, seed))[0])
    cs = np.array(cs)
    expected = 6 / 999
    assert abs(cs.mean() - expected) < 3 * cs.std(ddof=1) / np.sqrt(runs)


def test_dprime_grows_logarithmically():
    from goldbachnet.metrics import shortest_distance_stats

    sizes = (250, 500, 1000, 2000, 4000)
    means = []
    for n in sizes:
        ds = [
            shortest_distance_stats(sample_gnm(n, 3 * n, s))[0]
            for s in range(3)
        ]
        means.append(np.mean(ds))
    x = np.log(sizes)
    y = np.array(means)
    coeffs = np.polyfit(x, y, 1)
    resid = y - np.polyval(coeffs, x)
    r2 = 1 - np.sum(resid**2) / np.sum((y - y.mean()) ** 2)
    assert coeffs[0] > 0
    assert r2 > 0.95


def test_matched_baseline_report(table_30k):
    from goldbachnet import build

    g = build(table_30k, 0.0, 3, target_nodes=300)
    rep = compute_report(g)
    base = compute_report(sample_gnm(rep.n_nodes, rep.n_edges, seed=17))
    assert base.n_nodes == rep.n_nodes
    assert base.n_edges == rep.n_edges
    assert base.mean_k == pytest.approx(rep.mean_k, abs=1e-12)

