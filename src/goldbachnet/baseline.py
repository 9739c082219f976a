"""Uniform G(N, M) null model matched to a measured graph."""

import operator

import numpy as np

from .netbuild import check_seed

_SORT_BITS = 63  # packed sort keys stay below 2**63; beyond, a stable argsort


class GnmGraph:
    """Uniform simple graph on nodes 0..n-1; isolated nodes are kept."""

    __slots__ = ("num_nodes", "edge_u", "edge_v", "seed")

    def __init__(self, num_nodes, edge_u, edge_v, seed):
        self.num_nodes = int(num_nodes)
        self.edge_u = edge_u
        self.edge_v = edge_v
        self.seed = int(seed)

    def __repr__(self):
        return f"GnmGraph(N={self.num_nodes}, M={self.num_edges}, seed={self.seed})"

    @property
    def num_edges(self):
        return int(self.edge_u.size)

    def edge_rows(self):
        return self.num_nodes, self.edge_u, self.edge_v


def sample_gnm(n_nodes, m_edges, seed):
    """Draw a uniform simple graph with exactly ``n_nodes`` and ``m_edges``.

    Rejection sampling over unordered pairs: candidate pairs stream from the
    seeded generator in rounds, and the first m distinct ones in stream order
    are kept. The candidates (loops dropped) are independent and uniform over
    the pairs, and a round's size depends only on how many distinct pairs came
    before it, so the law of the kept set is the same under any relabeling of
    the pairs: it is exactly uniform over M-edge simple graphs. M is far below
    N**2/2 in every use here, so rejection stays cheap. Raises ValueError
    below 2 nodes, above 3 037 000 500 nodes (pair keys ``lo * n + hi`` would
    overflow int64), unless 0 <= m_edges <= n_nodes * (n_nodes - 1) / 2, or
    for a seed outside 64 unsigned bits; TypeError unless both counts are
    integral (numpy ints are).
    """
    n, m = operator.index(n_nodes), operator.index(m_edges)
    if n < 2:
        raise ValueError(f"need at least 2 nodes, got {n}")
    if n * (n - 1) > 2**63:
        raise ValueError(f"pair keys fit int64 up to 3037000500 nodes, got {n}")
    max_edges = n * (n - 1) // 2
    if not 0 <= m <= max_edges:
        raise ValueError(
            f"m_edges={m} outside [0, {max_edges}] for {n} nodes")
    seed = check_seed(seed)
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    keys = np.zeros(0, dtype=np.int64)  # distinct pairs so far, in stream order
    while keys.size < m:
        k = max(256, 4 * (m - keys.size))
        a = rng.integers(0, n, size=k)
        b = rng.integers(0, n, size=k)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        stream = np.concatenate([keys, (lo * n + hi)[lo != hi]])
        # mark each key's first position: one sort of key << shift | position
        # where that fits 63 bits, else a stable argsort of the keys
        shift = stream.size.bit_length()
        first = np.zeros(stream.size, dtype=bool)
        if (n * n) << shift < 1 << _SORT_BITS:
            packed = np.sort(stream << shift | np.arange(stream.size))
            starts = np.diff(packed >> shift, prepend=-1) != 0
            first[packed[starts] & ((1 << shift) - 1)] = True
        else:
            order = np.argsort(stream, kind="stable")
            first[order[np.diff(stream[order], prepend=-1) != 0]] = True
        keys = stream[first][:m]
    return GnmGraph(n, *np.divmod(keys, n), seed)
