import itertools
import math
from unittest import mock

import numpy as np
import pytest
from oracles import gnm_by_set, gnm_degree_pmf, gnm_expected_clustering

from goldbachnet import compute_report, sample_gnm
from goldbachnet.metrics import CLUSTERING_CONVENTIONS, _adjacency, _clustering


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
    # fractional counts are refused before any draw; numpy ints are counts
    for n, m in ((10.5, 3), (10, 3.5)):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            sample_gnm(n, m, seed=1)
    assert sample_gnm(np.int64(4), np.int64(6), seed=1).num_edges == 6


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
    # ensemble mean C' against the exact E[C'] of G(N, M), 0.0059034 here;
    # the approximation <k>/(N-1) = 0.0060060 is 1.7% above it
    n, m, runs = 1000, 3000, 50
    cs = []
    for seed in range(runs):
        from goldbachnet.metrics import clustering

        cs.append(clustering(sample_gnm(n, m, seed))[0])
    cs = np.array(cs)
    expected = gnm_expected_clustering(n, m)
    assert abs(cs.mean() - expected) < 3 * cs.std(ddof=1) / np.sqrt(runs)


def _degree_bins(expected, least=10.0):
    """Cut points that group degrees 0, 1, ... so that each bin expects at
    least ``least`` counts, the remainder joining the last bin."""
    cuts, acc = [], 0.0
    for k, e in enumerate(expected):
        acc += e
        if acc >= least:
            cuts.append(k + 1)
            acc = 0.0
    cuts[-1] = expected.size
    return cuts


# Bounds fixed from their tails before any run, each at 1e-4:
#   t: two-sided, Student t with 19 degrees of freedom;
#   chi2: upper tail with df = bins - 1, the bins fixed by _degree_bins;
#   max z: two-sided and family-wise over the n nodes, from the exact law
#     of a node's 20-run degree sum (the 20-fold convolution of the pmf).
@pytest.mark.parametrize("n, m, df, chi2_bound, z_bound", [
    (4000, 37269, 31, 69.1, 5.70),
    (250, 400, 9, 33.7, 5.45),
])
def test_gnm_matches_its_exact_laws_at_full_size(n, m, df, chi2_bound, z_bound):
    """Over 20 seeds: the mean C' under both conventions against its exact
    expectation, the pooled degrees against the hypergeometric pmf, and each
    node's mean degree against its exact mean and variance, so a fault that
    touches one node shows too."""
    runs = 20
    clustering = {conv: [] for conv in CLUSTERING_CONVENTIONS}
    degrees = np.empty((runs, n), dtype=np.int64)
    for seed in range(runs):
        g = sample_gnm(n, m, seed + 1)
        adj = _adjacency(g)
        for conv, values in clustering.items():
            values.append(_clustering(adj, conv)[0])
        degrees[seed] = np.bincount(np.concatenate([g.edge_u, g.edge_v]), minlength=n)

    for conv, values in clustering.items():
        t = ((np.mean(values) - gnm_expected_clustering(n, m, conv))
             / (np.std(values, ddof=1) / math.sqrt(runs)))
        assert abs(t) < 4.897, (conv, t)

    pk = gnm_degree_pmf(n, m)
    cuts = _degree_bins(runs * n * pk)
    assert len(cuts) - 1 == df
    starts = [0, *cuts[:-1]]
    expected = runs * n * np.add.reduceat(pk, starts)
    observed = np.add.reduceat(np.bincount(degrees.ravel(), minlength=pk.size), starts)
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    assert chi2 < chi2_bound, chi2

    k = np.arange(pk.size)
    mean_k = 2 * m / n
    var_k = float(pk @ (k - mean_k) ** 2)
    z = (degrees.mean(axis=0) - mean_k) / math.sqrt(var_k / runs)
    assert np.abs(z).max() < z_bound, (int(np.abs(z).argmax()), np.abs(z).max())


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

