"""Per-graph statistics: distances, clustering, degrees, assortativity.

All functions accept any graph object exposing ``node_labels`` (sorted
array of distinct labels) and ``edge_endpoints()`` (two parallel label
arrays, one entry per undirected edge). Distances are averaged over
reachable pairs only, with the reachable fraction reported alongside so
that disconnected graphs are never silently mixed into connected ones.
"""

from dataclasses import dataclass
from typing import ClassVar

import numpy as np
from scipy.sparse import csr_array
from scipy.sparse.csgraph import connected_components

from .errors import DegenerateGraph, UndefinedAssortativity

CLUSTERING_CONVENTIONS = ("standard", "paper")
# rows per sparse product in _clustering; bounds its transient memory
_TRIANGLE_ROWS = 256


@dataclass
class MetricsReport:
    """Scalar and distribution statistics of one undirected graph.

    ``r`` is None when assortativity is undefined (zero degree variance
    across edge endpoints). Distribution maps carry only occupied bins.
    """

    n_nodes: int
    n_edges: int
    d: float
    p_of_j: dict
    reachable_fraction: float
    giant_component_size: int
    C: float
    C_by_degree: dict
    P_of_k: dict
    mean_k: float
    f_k: float
    k_max: int
    r: float | None

    SCALAR_FIELDS: ClassVar[tuple] = (
        "n_nodes",
        "n_edges",
        "d",
        "reachable_fraction",
        "giant_component_size",
        "C",
        "mean_k",
        "f_k",
        "k_max",
        "r",
    )
    DISTRIBUTION_FIELDS: ClassVar[tuple] = ("p_of_j", "P_of_k", "C_by_degree")

    def scalars(self):
        return {name: getattr(self, name) for name in self.SCALAR_FIELDS}

    def to_dict(self):
        """Flat JSON-compatible document (distribution bins keyed by int)."""
        doc = self.scalars()
        for name in self.DISTRIBUTION_FIELDS:
            doc[name] = dict(getattr(self, name))
        return doc

    def distribution_csv_rows(self, name):
        """Two-column (x, value) rows for one distribution, ascending x."""
        dist = getattr(self, name)
        return [(k, dist[k]) for k in sorted(dist)]


def _adjacency(graph):
    """Symmetric 0/1 adjacency of ``graph`` as one CSR array, rows sorted.

    Row i belongs to ``node_labels[i]``; every kernel reads the node count,
    the degrees and the edge count off this one array.
    """
    labels = graph.node_labels
    u, v = graph.edge_endpoints()
    eu = np.searchsorted(labels, u)
    ev = np.searchsorted(labels, v)
    # int32, not int8: one common-neighbor count can exceed 127
    data = np.ones(2 * eu.size, dtype=np.int32)
    rows_cols = (np.concatenate([eu, ev]), np.concatenate([ev, eu]))
    return csr_array((data, rows_cols), shape=(labels.size, labels.size))


def _degrees(adj):
    # int64: scipy may pick int32 indices, and k**3 overflows int32 above 1290
    return np.diff(adj.indptr).astype(np.int64)


def _bfs_distance_histogram(adj):
    """Count ordered reachable pairs at each hop distance.

    Runs breadth-first search from every node, 64 sources at a time: bit s
    of the uint64 at node u says whether source s has reached u. One level
    step unions the frontier bits of every node's neighbors via a single
    ``bitwise_or.reduceat`` over the CSR layout.
    """
    n, indptr, indices = adj.shape[0], adj.indptr, adj.indices
    starts = indptr[:-1]
    isolated = _degrees(adj) == 0
    any_isolated = bool(isolated.any())
    # trailing zero sentinel keeps every reduceat offset in bounds; OR-ing an
    # extra 0 into the final segment is a no-op, and the garbage produced for
    # empty segments (isolated nodes) is zeroed below
    vals = np.zeros(indices.size + 1, dtype=np.uint64)
    counts = np.zeros(8, dtype=np.int64)
    one = np.uint64(1)
    for base in range(0, n, 64):
        width = min(64, n - base)
        visited = np.zeros(n, dtype=np.uint64)
        sources = np.arange(base, base + width)
        visited[sources] = one << np.arange(width, dtype=np.uint64)
        frontier = visited.copy()
        level = 0
        while True:
            level += 1
            np.take(frontier, indices, out=vals[:-1])
            nxt = np.bitwise_or.reduceat(vals, starts)
            if any_isolated:
                nxt[isolated] = 0
            fresh = nxt & ~visited
            reached = int(np.bitwise_count(fresh).sum())
            if reached == 0:
                break
            if level >= counts.size:
                counts = np.concatenate([counts, np.zeros(counts.size, np.int64)])
            counts[level] += reached
            visited |= fresh
            frontier = fresh
    return counts


def _distance_stats(adj):
    n = adj.shape[0]
    if n < 2:
        raise DegenerateGraph(f"need at least 2 nodes, have {n}")
    _, labels = connected_components(adj, directed=False)
    sizes = np.bincount(labels).astype(np.int64)
    giant = int(sizes.max())
    reachable_pairs = int(np.sum(sizes * (sizes - 1) // 2))
    total_pairs = n * (n - 1) // 2
    if reachable_pairs == 0:
        raise DegenerateGraph("no connected pair of nodes")

    counts = _bfs_distance_histogram(adj)
    pair_counts = counts // 2  # every unordered pair was seen from both ends
    total = int(pair_counts.sum())
    js = np.flatnonzero(pair_counts)
    d = float(np.sum(js * pair_counts[js]) / total)
    p_of_j = {int(jv): float(pair_counts[jv] / total) for jv in js}
    return d, p_of_j, reachable_pairs / total_pairs, giant


def _clustering(adj, convention):
    if convention not in CLUSTERING_CONVENTIONS:
        raise ValueError(f"unknown clustering convention {convention!r}")
    n, deg = adj.shape[0], _degrees(adj)
    # links among the neighbors of i = triangles at i = (A^3)_ii / 2, summed
    # from (A @ A) * A one block of rows at a time to bound the product
    links_among_neighbors = np.zeros(n, dtype=np.int64)
    for lo in range(0, n, _TRIANGLE_ROWS):
        block = slice(lo, lo + _TRIANGLE_ROWS)
        rows = adj[block]
        links_among_neighbors[block] = (rows @ adj).multiply(rows).sum(axis=1) // 2
    if convention == "standard":
        possible = deg * (deg - 1) // 2
    else:
        possible = deg * (deg + 1) // 2
    c_i = np.zeros(n, dtype=np.float64)
    ok = possible > 0
    c_i[ok] = links_among_neighbors[ok] / possible[ok]
    c_mean = float(np.mean(c_i)) if n else 0.0

    by_degree = {}
    counts = np.bincount(deg)
    sums = np.bincount(deg, weights=c_i)
    for k in np.flatnonzero(counts):
        by_degree[int(k)] = float(sums[k] / counts[k])
    return c_mean, by_degree


def _degree_stats(adj):
    n, deg = adj.shape[0], _degrees(adj)
    if n < 1:
        raise DegenerateGraph("graph has no nodes")
    counts = np.bincount(deg)
    p_of_k = {int(k): float(counts[k] / n) for k in np.flatnonzero(counts)}
    mean_k = float(deg.mean())
    f_k = float(np.sqrt(np.mean(deg.astype(np.float64) ** 2) - mean_k**2))
    return p_of_k, mean_k, f_k, int(deg.max())


def _assortativity(adj):
    if adj.nnz == 0:
        raise UndefinedAssortativity("graph has no edges")
    deg = _degrees(adj)
    # exact integer sums over both directions of every edge: the denominator
    # must vanish exactly for degree-regular edge sets, not merely fall below
    # a float tolerance
    s_kk = int(deg @ (adj @ deg))
    s_k2 = int(deg @ deg)
    s_k3 = int(np.sum(deg**3))
    num = adj.nnz * s_kk - s_k2 * s_k2
    den = adj.nnz * s_k3 - s_k2 * s_k2
    if den == 0:
        raise UndefinedAssortativity(
            "degrees at edge endpoints have zero variance"
        )
    return num / den


def shortest_distance_stats(graph):
    """Mean shortest distance and the distance distribution.

    Returns
    -------
    (d, p_of_j, reachable_fraction, giant_component_size)
        d averages over reachable unordered pairs; p_of_j maps distance to
        probability over those pairs; reachable_fraction is their share of
        all N(N-1)/2 pairs.
    """
    return _distance_stats(_adjacency(graph))


def clustering(graph, convention="standard"):
    """Mean clustering coefficient and its restriction per degree.

    ``convention`` picks the neighbor-pair denominator: "standard" uses
    k(k-1)/2, "paper" uses k(k+1)/2. Nodes whose denominator is zero
    contribute 0, keeping C an average over all nodes.
    """
    return _clustering(_adjacency(graph), convention)


def degree_stats(graph):
    """Degree distribution P(k), mean degree, degree spread, max degree."""
    return _degree_stats(_adjacency(graph))


def assortativity(graph):
    """Newman degree correlation over edges, each edge counted once.

    Raises UndefinedAssortativity when every edge joins equal-degree
    endpoints (zero variance), rather than reporting a silent 0.
    """
    return _assortativity(_adjacency(graph))


def compute_report(graph, clustering_convention="standard"):
    """All statistics of one graph in a single pass over its CSR form."""
    adj = _adjacency(graph)
    d, p_of_j, reachable_fraction, giant = _distance_stats(adj)
    c_mean, c_by_degree = _clustering(adj, clustering_convention)
    p_of_k, mean_k, f_k, k_max = _degree_stats(adj)
    try:
        r = _assortativity(adj)
    except UndefinedAssortativity:
        r = None
    return MetricsReport(
        n_nodes=adj.shape[0],
        n_edges=adj.nnz // 2,
        d=d,
        p_of_j=p_of_j,
        reachable_fraction=float(reachable_fraction),
        giant_component_size=giant,
        C=c_mean,
        C_by_degree=c_by_degree,
        P_of_k=p_of_k,
        mean_k=mean_k,
        f_k=f_k,
        k_max=k_max,
        r=r,
    )
