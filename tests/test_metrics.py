import tracemalloc
from collections import Counter

import numpy as np
import pytest

from goldbachnet import (
    assortativity,
    build,
    clustering,
    compute_report,
    degree_stats,
    metrics,
    sample_gnm,
    shortest_distance_stats,
)
from goldbachnet.errors import DegenerateGraph, UndefinedAssortativity
from goldbachnet.metrics import CLUSTERING_CONVENTIONS

from oracles import (
    TinyGraph,
    floyd_warshall_stats,
    newman_r,
    per_node_clustering,
    random_small_graph,
)

TRIANGLE = TinyGraph(3, [(0, 1), (1, 2), (0, 2)])
PATH3 = TinyGraph(3, [(0, 1), (1, 2)])
STAR3 = TinyGraph(4, [(0, 1), (0, 2), (0, 3)])
TWO_EDGES = TinyGraph(4, [(0, 1), (2, 3)])


def test_triangle_distances():
    d, p_of_j, rf, giant = shortest_distance_stats(TRIANGLE)
    assert d == 1.0
    assert p_of_j == {1: 1.0}
    assert rf == 1.0
    assert giant == 3


def test_path3_distances():
    d, p_of_j, rf, giant = shortest_distance_stats(PATH3)
    assert d == pytest.approx(4 / 3)
    assert p_of_j[1] == pytest.approx(2 / 3)
    assert p_of_j[2] == pytest.approx(1 / 3)
    assert rf == 1.0 and giant == 3


def test_disjoint_edges_distances():
    d, p_of_j, rf, giant = shortest_distance_stats(TWO_EDGES)
    assert d == 1.0
    assert rf == pytest.approx(2 / 6)
    assert giant == 2


def test_degenerate_graph():
    with pytest.raises(DegenerateGraph):
        shortest_distance_stats(TinyGraph(1, [], labels=[0]))
    with pytest.raises(DegenerateGraph):
        shortest_distance_stats(TinyGraph(3, []))  # no reachable pair


def test_triangle_clustering_conventions():
    c, by_k = clustering(TRIANGLE, "standard")
    assert c == 1.0
    assert by_k == {2: 1.0}
    c_paper, by_k_paper = clustering(TRIANGLE, "paper")
    assert c_paper == pytest.approx(1 / 3)  # m_i = 2*3/2 = 3, one realized link
    assert by_k_paper == {2: pytest.approx(1 / 3)}
    with pytest.raises(ValueError):
        clustering(TRIANGLE, "nonsense")


def test_star_clustering_zero():
    for conv in ("standard", "paper"):
        c, _ = clustering(STAR3, conv)
        assert c == 0.0


def _mean_by_degree(deg, c_i):
    return {int(k): float(c_i[deg == k].mean()) for k in np.unique(deg)}


def test_clustering_counts_beyond_int8():
    # adjacent hubs 0 and 1 share 300 leaves, so the edge (0, 1) has 300
    # common neighbors: more than an 8-bit count can hold
    n = 302
    edges = [(0, 1)] + [(hub, leaf) for leaf in range(2, n) for hub in (0, 1)]
    deg = np.bincount(np.ravel(edges), minlength=n)
    g = TinyGraph(n, edges)
    for conv in CLUSTERING_CONVENTIONS:
        c_i = per_node_clustering(n, edges, conv)
        c, by_k = clustering(g, conv)
        assert c == pytest.approx(c_i.mean(), abs=1e-12)
        assert by_k == pytest.approx(_mean_by_degree(deg, c_i), abs=1e-12)


def test_paper_convention_rescales_standard():
    rng = np.random.default_rng(11)
    for _ in range(30):
        n, edges = random_small_graph(rng)
        g = TinyGraph(n, edges)
        std = per_node_clustering(n, edges, "standard")
        deg = np.zeros(n, dtype=int)
        for u, v in edges:
            deg[u] += 1
            deg[v] += 1
        expected = np.where(deg >= 1, std * (deg - 1) / (deg + 1), 0.0)
        c_paper, _ = clustering(g, "paper")
        assert c_paper == pytest.approx(expected.mean(), abs=1e-12)


def test_triangle_degree_stats():
    p_of_k, mean_k, f_k, k_max = degree_stats(TRIANGLE)
    assert p_of_k == {2: 1.0}
    assert mean_k == 2.0
    assert f_k == 0.0
    assert k_max == 2


def test_star_degree_stats():
    p_of_k, mean_k, f_k, k_max = degree_stats(STAR3)
    assert mean_k == pytest.approx(1.5)
    assert k_max == 3
    assert p_of_k == {1: 0.75, 3: 0.25}


def test_path3_assortativity_exact():
    assert assortativity(PATH3) == pytest.approx(-1.0)


def test_triangle_assortativity_undefined():
    with pytest.raises(UndefinedAssortativity):
        assortativity(TRIANGLE)
    report = compute_report(TRIANGLE)
    assert report.r is None  # absent, never a silent zero


def test_assortativity_no_edges():
    with pytest.raises(UndefinedAssortativity):
        assortativity(TinyGraph(3, []))


def test_small_graphs_match_oracles():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(400):
        n, edges = random_small_graph(rng)
        oracle = floyd_warshall_stats(n, edges)
        g = TinyGraph(n, edges)
        d, p_of_j, rf, giant = shortest_distance_stats(g)
        d_o, p_o, rf_o, giant_o = oracle
        assert d == pytest.approx(d_o, abs=1e-12)
        assert set(p_of_j) == set(p_o)
        for j in p_o:
            assert p_of_j[j] == pytest.approx(p_o[j], abs=1e-12)
        assert rf == pytest.approx(rf_o) and giant == giant_o

        c, by_k = clustering(g)
        c_oracle = per_node_clustering(n, edges)
        assert c == pytest.approx(c_oracle.mean(), abs=1e-12)

        r_oracle = newman_r(n, edges)
        if r_oracle is None:
            with pytest.raises(UndefinedAssortativity):
                assortativity(g)
        else:
            assert assortativity(g) == pytest.approx(r_oracle, abs=1e-9)
        checked += 1
    assert checked == 400


def test_report_identities(table_30k):
    g = build(table_30k, 0.5, 77, target_nodes=400)
    rep = compute_report(g)
    assert sum(rep.p_of_j.values()) == pytest.approx(1.0, abs=1e-9)
    assert sum(rep.P_of_k.values()) == pytest.approx(1.0, abs=1e-9)
    assert rep.d == pytest.approx(
        sum(j * p for j, p in rep.p_of_j.items()), abs=1e-9
    )
    assert rep.mean_k == pytest.approx(2 * rep.n_edges / rep.n_nodes, abs=1e-9)
    assert 0.0 <= rep.C <= 1.0
    assert -1.0 <= rep.r <= 1.0
    assert rep.f_k >= 0.0
    assert set(rep.C_by_degree) == set(rep.P_of_k)  # same occupied degrees


def test_relabeling_invariance():
    rng = np.random.default_rng(5)
    n, edges = 8, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
                   (0, 4), (2, 6)]
    base = compute_report(TinyGraph(n, edges))
    perm = rng.permutation(n)
    relabeled = TinyGraph(n, [(int(perm[u]), int(perm[v])) for u, v in edges])
    other = compute_report(relabeled)
    assert other.d == pytest.approx(base.d)
    assert other.p_of_j == base.p_of_j
    assert other.C == pytest.approx(base.C)
    assert other.P_of_k == base.P_of_k
    assert other.r == pytest.approx(base.r)
    # arbitrary non-contiguous labels are fine too
    scaled = TinyGraph(n, [(u * 17 + 3, v * 17 + 3) for u, v in edges],
                       labels=np.arange(n) * 17 + 3)
    assert compute_report(scaled).d == pytest.approx(base.d)


def test_isolated_nodes_counted():
    g = TinyGraph(5, [(0, 1), (1, 2)])
    p_of_k, mean_k, f_k, k_max = degree_stats(g)
    assert p_of_k[0] == pytest.approx(2 / 5)
    assert mean_k == pytest.approx(4 / 5)
    d, p_of_j, rf, giant = shortest_distance_stats(g)
    assert rf == pytest.approx(3 / 10)
    c, by_k = clustering(g)
    assert 0 in by_k and by_k[0] == 0.0


def test_gnm_assortativity_near_zero():
    # large uniform graphs are degree-uncorrelated
    rs = [
        assortativity(sample_gnm(200, 400, seed))
        for seed in range(40)
    ]
    rs = np.array(rs)
    assert abs(rs.mean()) < 3 * rs.std(ddof=1) / np.sqrt(rs.size)


def test_report_serialization():
    rep = compute_report(PATH3)
    doc = rep.to_dict()
    assert doc["d"] == pytest.approx(4 / 3)
    assert doc["p_of_j"] == rep.p_of_j
    assert doc["P_of_k"] == rep.P_of_k and doc["P_of_k"] is not rep.P_of_k
    assert sorted(rep.P_of_k.items()) == [(1, 2 / 3), (2, 1 / 3)]


def _networkx_graph(nx, graph):
    """``graph`` as a networkx graph on its rows 0..N-1."""
    n, u, v = graph.edge_rows()
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(zip(u.tolist(), v.tolist()))
    return g


def test_distance_matches_networkx_at_realistic_size(table_1m):
    nx = pytest.importorskip("networkx")
    g = build(table_1m, -2.5, 20260808, target_nodes=2000)
    # ordered pairs per hop count, one BFS per source
    hops = Counter()
    for _, lengths in nx.all_pairs_shortest_path_length(_networkx_graph(nx, g)):
        hops.update(lengths.values())
    del hops[0]
    pairs = sum(hops.values())
    assert pairs == 2000 * 1999  # connected
    d, p_of_j, rf, giant = shortest_distance_stats(g)
    assert d == pytest.approx(sum(j * c for j, c in hops.items()) / pairs,
                              rel=1e-12)
    assert p_of_j == pytest.approx({j: c / pairs for j, c in hops.items()},
                                   rel=1e-12)
    assert (rf, giant) == (1.0, 2000)


def test_component_sizes_match_networkx():
    nx = pytest.importorskip("networkx")
    g = sample_gnm(3000, 1200, 11)  # mean degree 0.8
    components = list(nx.connected_components(_networkx_graph(nx, g)))
    ref = sorted(len(c) for c in components)
    assert ref.count(1) > 1000 and len(ref) > 1500 and ref[-1] > 10
    labels = metrics._component_labels(metrics._adjacency(g))
    assert all(set(labels[list(c)].tolist()) == {min(c)} for c in components)
    sizes = np.bincount(labels)
    assert sorted(sizes[sizes > 0].tolist()) == ref
    report = compute_report(g)
    assert report.giant_component_size == ref[-1]
    assert report.reachable_fraction == sum(s * (s - 1) for s in ref) / (3000 * 2999)


def test_distance_matches_networkx_on_disconnected_graph():
    # each BFS pass stops once its sources reach their components, so check
    # the histogram where components and isolated nodes of every size mix
    nx = pytest.importorskip("networkx")
    g = sample_gnm(3000, 2400, 5)  # mean degree 1.6
    ref = _networkx_graph(nx, g)
    sizes = sorted(len(c) for c in nx.connected_components(ref))
    assert sizes.count(1) > 500 and sizes.count(2) > 50 and sizes[-1] > 1500
    hops = Counter()
    for _, lengths in nx.all_pairs_shortest_path_length(ref):
        hops.update(lengths.values())
    del hops[0]
    pairs = sum(hops.values())
    assert pairs == sum(s * (s - 1) for s in sizes)
    d, p_of_j, rf, giant = shortest_distance_stats(g)
    assert d == pytest.approx(sum(j * c for j, c in hops.items()) / pairs,
                              rel=1e-12)
    assert p_of_j == pytest.approx({j: c / pairs for j, c in hops.items()},
                                   rel=1e-12)
    assert (rf, giant) == (pairs / (3000 * 2999), sizes[-1])


@pytest.mark.parametrize("alpha, n", [(-2.5, 4000), (2.0, 5000)])
def test_clustering_matches_networkx_at_realistic_size(table_1m, alpha, n):
    nx = pytest.importorskip("networkx")
    g = build(table_1m, alpha, 20260808, target_nodes=n)
    ref = _networkx_graph(nx, g)
    c_ref = nx.clustering(ref)
    deg = np.array([ref.degree(u) for u in range(g.num_nodes)])
    c_std = np.array([c_ref[u] for u in range(g.num_nodes)])
    # paper convention: k(k+1)/2 neighbor pairs instead of k(k-1)/2
    expected = {"standard": c_std, "paper": c_std * (deg - 1) / (deg + 1)}
    for conv, c_i in expected.items():
        c, by_k = clustering(g, conv)
        assert c == pytest.approx(c_i.mean(), rel=1e-12)
        assert by_k == pytest.approx(_mean_by_degree(deg, c_i), rel=1e-12)


@pytest.mark.parametrize("alpha", [2.0, -1.0, -2.0])
def test_degree_and_assortativity_match_networkx(table_1m, alpha):
    nx = pytest.importorskip("networkx")
    g = build(table_1m, alpha, 20260808, target_nodes=5000)
    ref = _networkx_graph(nx, g)
    degrees = [k for _, k in ref.degree()]
    p_of_k, mean_k, f_k, k_max = degree_stats(g)
    assert k_max == max(degrees)
    assert mean_k == pytest.approx(sum(degrees) / len(degrees), rel=1e-12)
    assert assortativity(g) == pytest.approx(
        nx.degree_assortativity_coefficient(ref), abs=1e-9
    )


def test_report_memory_stays_bounded(table_1m):
    # the N = 5000 build at the 10**6 cap (M = 48 019), run alone: about 5.2 MB
    # with the CSR keys built in place, 1024-edge clustering blocks ANDed in
    # place, int32 rows and one add.at per endpoint array; 6.4 MB with
    # 4096-edge blocks and add.at over concatenated endpoints
    graph = build(table_1m, -2.5, 1, target_nodes=5000)
    tracemalloc.start()
    try:
        compute_report(graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.8 * 2**20, f"tracemalloc peak {peak / 2**20:.2f} MB"
