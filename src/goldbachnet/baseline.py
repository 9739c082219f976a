"""Uniform G(N, M) null model matched to a measured graph."""

import numpy as np

from .errors import InfeasibleNullModel
from .metrics import compute_report
from .netbuild import check_seed


class GnmGraph:
    """Uniform simple graph on nodes 0..n-1; isolated nodes are kept."""

    __slots__ = ("n_nodes_", "edge_u", "edge_v", "seed")

    def __init__(self, n_nodes, edge_u, edge_v, seed):
        self.n_nodes_ = int(n_nodes)
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.seed = int(seed)

    def __repr__(self):
        return f"GnmGraph(N={self.num_nodes}, M={self.num_edges}, seed={self.seed})"

    @property
    def num_nodes(self):
        return self.n_nodes_

    @property
    def num_edges(self):
        return int(self.edge_u.size)

    @property
    def node_labels(self):
        return np.arange(self.n_nodes_, dtype=np.int64)

    def edge_endpoints(self):
        return self.edge_u, self.edge_v


def sample_gnm(n_nodes, m_edges, seed):
    """Draw a uniform simple graph with exactly ``n_nodes`` and ``m_edges``.

    Rejection sampling over unordered pairs: candidate pairs stream from
    the seeded generator and the first m distinct ones are kept, which is
    exactly uniform over M-edge simple graphs. M is far below N**2/2 in
    every use here, so rejection stays cheap. Raises ValueError below 2
    nodes or for a seed outside 64 unsigned bits, and InfeasibleNullModel
    unless 0 <= m_edges <= n_nodes * (n_nodes - 1) / 2.
    """
    n, m = n_nodes, m_edges
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    max_edges = n * (n - 1) // 2
    if not 0 <= m <= max_edges:
        raise InfeasibleNullModel(
            f"m_edges={m} outside [0, {max_edges}] for {n} nodes")
    seed = check_seed(seed)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    seen = set()
    us = []
    vs = []
    while len(us) < m:
        k = max(256, 4 * (m - len(us)))
        a = rng.integers(0, n, size=k)
        b = rng.integers(0, n, size=k)
        for x, y in zip(a.tolist(), b.tolist()):
            if x == y:
                continue
            if x > y:
                x, y = y, x
            key = x * n + y
            if key in seen:
                continue
            seen.add(key)
            us.append(x)
            vs.append(y)
            if len(us) == m:
                break
    return GnmGraph(n, np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64),
                    seed)


def baseline_report(n_nodes, m_edges, seed, clustering_convention="standard"):
    """Metrics of one sampled null graph, in the same report type."""
    return compute_report(sample_gnm(n_nodes, m_edges, seed), clustering_convention)
