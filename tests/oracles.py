"""Independent reference implementations used to check the package.

Everything here is deliberately naive: trial division, double loops,
Floyd-Warshall, dense triple counting, pair selection one even number at
a time. None of it shares code with the package under test.
"""

import math

import numpy as np


def trial_division_is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def trial_division_primes(limit):
    return [n for n in range(2, limit + 1) if trial_division_is_prime(n)]


def brute_force_pairs(n, primes=None):
    """All (p, q, q - p) with p + q = n, p < q, both prime; p ascending.

    ``primes`` holds every prime up to n in ascending order, with set-like
    membership (``dict.fromkeys`` of an ascending list); by default they
    come from trial division. p runs over those primes below n / 2.
    """
    if primes is None:
        primes = dict.fromkeys(trial_division_primes(n))
    out = []
    for p in primes:
        if 2 * p >= n:
            break
        if n - p in primes:
            out.append((p, n - p, n - 2 * p))
    return out


def pick_index(delta, alpha, draws):
    """Index of the pair of one even number that each draw selects.

    The delta**alpha selection law, one even number at a time: a draw picks
    pair i iff it lands in the i-th cumulative slot of the max-rescaled
    weights, the last pair if it rounds onto the total; +inf (-inf) picks
    the largest (smallest) spread.
    """
    if alpha == math.inf:
        return np.full(len(draws), np.argmax(delta))
    if alpha == -math.inf:
        return np.full(len(draws), np.argmin(delta))
    logw = np.log(delta, dtype=np.float64)
    logw *= alpha
    logw -= logw.max()
    cum = np.exp(logw, out=logw).cumsum()
    return cum[:-1].searchsorted(draws * cum[-1], side="right")


def expected_node_counts(decomp, alpha, link_counts):
    """Exact E[N(M)] of the construction at each M of ``link_counts``.

    ``decomp`` holds every pair of the even numbers 8, 10, ... in order:
    prime positions ``ip``, ``iq``, spreads ``delta`` and per-even
    ``counts``. Each even number draws its own uniform, so after the first
    M of them prime p is absent with probability prod_n (1 - P_n(p)), where
    P_n(p) is the float64 weight share delta**alpha of p's pair at n (a
    prime is in at most one pair of n); E[N(M)] sums 1 - that over primes.
    """
    ip, iq, counts = decomp.ip, decomp.iq, decomp.counts
    even = np.repeat(np.arange(counts.size), counts)
    logw = alpha * np.log(decomp.delta.astype(np.float64))
    logw -= np.maximum.reduceat(logw, np.cumsum(counts) - counts)[even]
    w = np.exp(logw)
    share = w / np.bincount(even, weights=w)[even]
    with np.errstate(divide="ignore"):  # log1p(-1) = -inf: a single pair
        log_miss = np.log1p(-share)
    nodes = int(max(ip.max(), iq.max())) + 1
    out = []
    for m in link_counts:
        end = int(counts[:m].sum())
        log_absent = (np.bincount(ip[:end], log_miss[:end], nodes)
                      + np.bincount(iq[:end], log_miss[:end], nodes))
        out.append(float(-np.expm1(log_absent).sum()))
    return out


def new_endpoints_by_search(ordered_primes, seen, rows, j, p):
    """Count per edge (uint8) of its endpoints new to its row, for the
    smaller primes ``p`` (rows, evens) picked from the even numbers from
    8 + 2j on: each endpoint's index is searched for in the ordered primes,
    and ``seen`` is the flat bool array of (row, prime index) cells, marked
    in place at first occurrences, p before q.
    """
    q = np.arange(8 + 2 * j, 8 + 2 * (j + p.shape[1]), 2) - p
    idx = np.searchsorted(ordered_primes, np.stack([p, q], axis=2))
    keys = (idx + rows[:, None, None] * ordered_primes.size).ravel()
    unseen = np.flatnonzero(~seen[keys])
    first = unseen[np.unique(keys[unseen], return_index=True)[1]]
    seen[keys[first]] = True
    return np.bincount(first // 2, minlength=p.size).astype(np.uint8).reshape(p.shape)


def gnm_by_set(n, m, seed):
    """Edges ``(u, v)`` (int64, u < v) of the G(n, m) sample for ``seed``:
    candidate pairs stream from the seeded generator in rounds of two
    ``integers`` draws, and the first m distinct ones are kept through a
    Python set, one candidate at a time."""
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
    return np.array(us, dtype=np.int64), np.array(vs, dtype=np.int64)


class TinyGraph:
    """Minimal graph object satisfying the metrics duck type: edges between
    sorted, possibly non-contiguous labels, numbered into rows by search."""

    def __init__(self, n_nodes, edges, labels=None):
        if labels is None:
            labels = np.arange(n_nodes, dtype=np.int64)
        self.node_labels = np.asarray(labels, dtype=np.int64)
        self.eu = np.array([e[0] for e in edges], dtype=np.int64)
        self.ev = np.array([e[1] for e in edges], dtype=np.int64)

    def edge_rows(self):
        labels = self.node_labels
        return labels.size, labels.searchsorted(self.eu), labels.searchsorted(self.ev)


def adjacency_matrix(n, edges):
    a = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        a[u, v] = a[v, u] = True
    return a


def floyd_warshall_stats(n, edges):
    """(d, p_of_j, reachable_fraction, giant) by dense Floyd-Warshall."""
    dist = np.full((n, n), np.inf)
    np.fill_diagonal(dist, 0.0)
    for u, v in edges:
        dist[u, v] = dist[v, u] = 1.0
    for k in range(n):
        dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
    upper = dist[np.triu_indices(n, 1)]
    finite = upper[np.isfinite(upper)]
    if finite.size == 0:
        return None
    values, counts = np.unique(finite.astype(int), return_counts=True)
    p_of_j = {int(j): c / finite.size for j, c in zip(values, counts)}
    reachable_fraction = finite.size / upper.size
    # component sizes from reachability
    seen = set()
    giant = 0
    for s in range(n):
        if s in seen:
            continue
        comp = {t for t in range(n) if np.isfinite(dist[s, t])}
        seen |= comp
        giant = max(giant, len(comp))
    return float(finite.mean()), p_of_j, reachable_fraction, giant


def per_node_clustering(n, edges, convention="standard"):
    """C_i per node by direct neighbor-pair counting over sets."""
    neighbors = [set() for _ in range(n)]
    for u, v in edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    edge_set = {frozenset(e) for e in edges}
    c = np.zeros(n)
    for i in range(n):
        nb = sorted(neighbors[i])
        k = len(nb)
        links = sum(
            1
            for a in range(k)
            for b in range(a + 1, k)
            if frozenset((nb[a], nb[b])) in edge_set
        )
        possible = k * (k - 1) // 2 if convention == "standard" else k * (k + 1) // 2
        c[i] = links / possible if possible else 0.0
    return c


def newman_r(n, edges):
    """Assortativity from the edge-once formula; None when 0/0."""
    deg = np.zeros(n, dtype=int)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    m = len(edges)
    j = np.array([deg[u] for u, _ in edges], dtype=float)
    k = np.array([deg[v] for _, v in edges], dtype=float)
    mean_jk = np.mean(j * k)
    mean_half = np.mean((j + k) / 2)
    mean_sq = np.mean((j**2 + k**2) / 2)
    den = mean_sq - mean_half**2
    if abs(den) < 1e-12:
        return None
    return (mean_jk - mean_half**2) / den


def random_small_graph(rng, max_nodes=8):
    """A random simple graph with >= 1 edge on 2..max_nodes labeled nodes."""
    import itertools

    n = int(rng.integers(2, max_nodes + 1))
    pairs = list(itertools.combinations(range(n), 2))
    m = int(rng.integers(1, len(pairs) + 1))
    chosen = rng.choice(len(pairs), size=m, replace=False)
    return n, [pairs[i] for i in chosen]
