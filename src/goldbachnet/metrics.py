"""Per-graph statistics: distances, clustering, degrees, assortativity.

All functions accept any graph object whose ``edge_rows()`` returns
``(N, u, v)``: its node count and two parallel integer arrays holding the
endpoints of each undirected edge as rows 0..N-1, so each graph numbers
its own nodes. Distances are averaged over reachable pairs only, with the
reachable fraction reported alongside so that disconnected graphs are
never silently mixed into connected ones.
"""

from dataclasses import dataclass, fields

import numpy as np

from .errors import DegenerateGraph, UndefinedAssortativity

CLUSTERING_CONVENTIONS = ("standard", "paper")
# columns per packed adjacency block and edges per gather in _clustering;
# together they bound each gathered block to 256 KB
_TRIANGLE_COLS = 2048
_TRIANGLE_EDGES = 1024


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

    def to_dict(self):
        """Flat JSON-compatible document (distribution bins keyed by int)."""
        return vars(self) | {name: getattr(self, name).copy() for name in DISTRIBUTIONS}


# each distribution field of MetricsReport, with the name of its bins
DISTRIBUTIONS = {"p_of_j": "j", "P_of_k": "k", "C_by_degree": "k"}
SCALAR_FIELDS = tuple(f.name for f in fields(MetricsReport)
                      if f.name not in DISTRIBUTIONS)


def _adjacency(graph):
    """Symmetric adjacency of ``graph`` as one int64 CSR ``(indptr,
    indices)`` over its ``edge_rows``, columns ascending in each row.

    Every kernel reads the node count, degrees and edge count off it;
    int64 spares the BFS an index conversion on every level.
    """
    n, u, v = graph.edge_rows()
    m = u.size
    keys = np.concatenate([u, v], dtype=np.int64)  # row * n + col, built in place
    keys *= n
    keys[:m] += v
    keys[m:] += u
    keys.sort()
    indices = keys % n
    keys //= n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n), out=indptr[1:])
    return indptr, indices


def _degrees(adj):
    return np.diff(adj[0])  # int64: k**3 overflows int32 above 1290


def _component_labels(adj):
    """Smallest node of each node's component, by minimum-label propagation.

    Each round every node takes the smallest label among itself and its
    neighbors, and pointer jumping follows labels to a fixed point. A label
    only falls and stays in its component: rounds end at one per component.
    """
    indptr, indices = adj
    linked = np.diff(indptr) > 0
    starts = indptr[:-1][linked]
    labels = np.arange(indptr.size - 1)
    while True:
        low = labels.copy()
        low[linked] = np.minimum(labels[linked],
                                 np.minimum.reduceat(labels[indices], starts))
        while not np.array_equal(jumped := low[low], low):
            low = jumped
        if np.array_equal(low, labels):
            return labels
        labels = low


def _bfs_distance_histogram(adj, reach):
    """Count ordered reachable pairs at each hop distance.

    Runs breadth-first search from every node, 64 sources at a time: bit s
    of the uint64 at node u says whether source s has reached u. One level
    step unions the frontier bits of every node's neighbors via a single
    ``bitwise_or.reduceat`` over the CSR layout. A pass stops at the level
    where each source s has reached all ``reach[s]`` nodes of its component.
    """
    indptr, indices = adj
    n, starts = indptr.size - 1, indptr[:-1]
    isolated = np.flatnonzero(_degrees(adj) == 0)
    # trailing zero sentinel keeps every reduceat offset in bounds; OR-ing an
    # extra 0 into the final segment is a no-op, and the garbage produced for
    # empty segments (isolated nodes) is zeroed below. The gather clips: its
    # columns lie in [0, n) by construction, and mode="raise" buffers ``out``
    vals = np.zeros(indices.size + 1, dtype=np.uint64)
    counts = np.zeros(n, dtype=np.int64)  # a hop distance is below n
    for base in range(0, n, 64):
        width = min(64, n - base)
        unreached = int(reach[base:base + width].sum())
        visited = np.zeros(n, dtype=np.uint64)
        visited[base:base + width] = 1 << np.arange(width, dtype=np.uint64)
        frontier = visited.copy()
        level = 0
        while unreached > 0:
            level += 1
            np.take(frontier, indices, out=vals[:-1], mode="clip")
            nxt = np.bitwise_or.reduceat(vals, starts)
            nxt[isolated] = 0
            fresh = nxt & ~visited
            reached = int(np.bitwise_count(fresh).sum())
            unreached -= reached
            counts[level] += reached
            visited |= fresh
            frontier = fresh
    return counts


def _distance_stats(adj):
    n = adj[0].size - 1
    if n < 2:
        raise DegenerateGraph(f"need at least 2 nodes, have {n}")
    labels = _component_labels(adj)
    sizes = np.bincount(labels)
    giant = int(sizes.max())
    reachable_pairs = int(np.sum(sizes * (sizes - 1) // 2))
    total_pairs = n * (n - 1) // 2
    if reachable_pairs == 0:
        raise DegenerateGraph("no connected pair of nodes")

    counts = _bfs_distance_histogram(adj, sizes[labels] - 1)
    pair_counts = counts // 2  # every unordered pair was seen from both ends
    total = int(pair_counts.sum())
    js = np.flatnonzero(pair_counts)
    d = float(np.sum(js * pair_counts[js]) / total)
    p_of_j = {int(jv): float(pair_counts[jv] / total) for jv in js}
    return d, p_of_j, reachable_pairs / total_pairs, giant


def _clustering(adj, convention):
    if convention not in CLUSTERING_CONVENTIONS:
        raise ValueError(f"unknown clustering convention {convention!r}")
    indptr, indices = adj
    n, deg = indptr.size - 1, _degrees(adj)
    rows = np.repeat(np.arange(n, dtype=np.int32), deg)  # half the bytes of intp
    # links among the neighbors of i = half the common neighbors summed over
    # the edges at i. Each edge u < v counts its own by popcount over packed
    # adjacency bits, one block of columns and of edges at a time; the sum
    # takes dtype int64 because its default uint64 cannot add to int64
    upper = rows < indices
    eu, ev = rows[upper], indices[upper]
    common = np.zeros(eu.size, dtype=np.int64)
    for lo in range(0, n, _TRIANGLE_COLS):
        inside = (indices >= lo) & (indices < lo + _TRIANGLE_COLS)
        bits = np.zeros((n, -(-min(_TRIANGLE_COLS, n - lo) // 64)), dtype=np.uint64)
        cols = (indices[inside] - lo).astype(np.uint64)
        np.bitwise_or.at(bits, (rows[inside], cols >> 6), np.uint64(1) << (cols & 63))
        for e in range(0, eu.size, _TRIANGLE_EDGES):
            block = slice(e, e + _TRIANGLE_EDGES)
            both = bits[eu[block]]
            both &= bits[ev[block]]
            common[block] += np.bitwise_count(both).sum(axis=1, dtype=np.int64)
    links_among_neighbors = np.zeros(n, dtype=np.int64)
    np.add.at(links_among_neighbors, eu, common)
    np.add.at(links_among_neighbors, ev, common)
    links_among_neighbors //= 2
    possible = deg * (deg - 1 if convention == "standard" else deg + 1) // 2
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
    n, deg = adj[0].size - 1, _degrees(adj)
    if n < 1:
        raise DegenerateGraph("graph has no nodes")
    counts = np.bincount(deg)
    p_of_k = {int(k): float(counts[k] / n) for k in np.flatnonzero(counts)}
    mean_k = float(deg.mean())
    f_k = float(np.sqrt(np.mean(deg.astype(np.float64) ** 2) - mean_k**2))
    return p_of_k, mean_k, f_k, int(deg.max())


def _assortativity(adj):
    nnz = adj[1].size
    if nnz == 0:
        raise UndefinedAssortativity("graph has no edges")
    deg = _degrees(adj)
    # exact integer sums over both directions of every edge: the denominator
    # must vanish exactly for degree-regular edge sets, not merely fall below
    # a float tolerance
    s_kk = int(np.repeat(deg, deg) @ deg[adj[1]])
    s_k2 = int(deg @ deg)
    s_k3 = int(np.sum(deg**3))
    num = nnz * s_kk - s_k2 * s_k2
    den = nnz * s_k3 - s_k2 * s_k2
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
        n_nodes=adj[0].size - 1,
        n_edges=adj[1].size // 2,
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
