"""Construction of the prime-pair network.

One edge per even number n = 8, 10, 12, ...: among the prime pairs of n,
one is drawn with probability proportional to delta**alpha, where
delta = q - p is the spread of a pair. alpha = +inf (-inf) deterministically
picks the largest (smallest) spread. Node labels are the primes themselves.
The graph is simple by construction: pairs from distinct even numbers have
distinct sums, and within one number only a single pair is kept.
"""

import math
import operator
from collections import deque
from functools import partial
from itertools import islice

import numpy as np

from .errors import SieveExhausted
from .goldbach import decompose

# even numbers per node-counting pass of _build_rows, and per decompose and
# pick within it (whole-chunk blocks leave multi-MB temporaries on the heap)
_CHUNK = 256
_BLOCK = 32
# the log of an int64 spread is below 44, so alpha * log(delta) stays finite
_ALPHA_MAX = np.finfo(np.float64).max / 64
_RESET = 2.0**100  # a total S below 2**47 rounds away in S + _RESET (_picker)

_worker_table = None  # a pool worker's sieve, set by its initializer _share_table


def _check_even_bound(bound, name):
    """Raise ValueError unless ``bound``, the largest even number a build may
    consume, is even and >= 8, and TypeError unless it is integral."""
    if operator.index(bound) < 8 or bound % 2:
        raise ValueError(f"{name} must be even and >= 8, got {bound}")


def check_run(alpha, stop):
    """Validate a spread exponent and a stop rule; return float alpha.

    ``stop`` is ``(max_even, target_nodes)``, exactly one of them set, and
    integral: process every even number up to and including ``max_even``,
    or stop once the node count first reaches ``target_nodes``.
    """
    alpha = float(alpha)
    if math.isnan(alpha):
        raise ValueError("alpha must not be NaN")
    if abs(alpha) > _ALPHA_MAX and math.isfinite(alpha):
        raise ValueError(f"finite |alpha| must be <= {_ALPHA_MAX:.4g}; use +inf/-inf")
    max_even, target_nodes = stop
    if (max_even is None) == (target_nodes is None):
        raise ValueError("set exactly one of max_even / target_nodes")
    if max_even is not None:
        _check_even_bound(max_even, "max_even")
    if target_nodes is not None and operator.index(target_nodes) < 2:
        raise ValueError(f"target_nodes must be >= 2, got {target_nodes}")
    return alpha


def check_seed(seed, name="seed"):
    """Return int ``seed``; raise ValueError unless it fits in 64 unsigned bits."""
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"{name} must fit in 64 unsigned bits")
    return seed


def _picker(delta, counts):
    """Return ``pick(alpha, draws)`` for a block of even numbers.

    ``delta`` holds the spreads of the block's pairs, even by even, and
    ``counts`` each even's pair count; ``pick`` maps draws of shape (rows,
    evens) to indices into ``delta``. A draw picks the pair in whose slot
    of the cumulative max-rescaled delta**alpha weights it lands (naive
    powers overflow for |alpha| ~ 5 once spreads reach ~10**6), the last
    pair if it rounds onto the total. alpha = +inf (-inf) picks the first
    (last) pair, whose spread is the largest (smallest).

    Weights lie flat, each even's behind reset slots +_RESET, -_RESET: a
    weight is at most 1, so a running total S is at most a pair count, far
    below 2**47, S + _RESET is _RESET, _RESET - _RESET is +0 and 0 + w is w,
    and one cumsum gives each even the doubles of its own. Reset slots copy
    the even's first log spread, so their weights stay finite. Spreads
    descend within an even: the maximum is the first pair's (alpha >= 0) or
    the last's. Keys row + 1j * cum sort lexicographically, so one search
    serves the block; the +_RESET key is the previous even's and the +0 key
    this one's, so a count less the even's first pair slot is the pick.
    """
    first, last, slots = counts.cumsum() - counts, counts - 1, counts + 2
    rows = np.arange(counts.size)
    start = first + 2 * rows + 2  # each even's first pair in the flat layout
    resets = np.stack([start - 2, start - 1])
    logd = np.log(delta, dtype=np.float64)
    logd = np.insert(logd, np.repeat(first, 2), np.repeat(logd[first], 2))
    keys = np.empty(logd.size, dtype=np.complex128)
    keys.real = np.repeat(rows, slots)
    keys.real[resets[0]] -= 1

    def pick(alpha, draws):
        if math.isinf(alpha):
            return np.broadcast_to(first + last * (alpha < 0), draws.shape)
        w = logd * alpha
        w -= np.repeat(w[start + last * (alpha < 0)], slots)
        np.exp(w, out=w)[resets] = [[_RESET], [-_RESET]]
        w.cumsum(out=keys.imag)
        x = rows + 1j * (draws * keys.imag[start + last])
        count = keys.searchsorted(x, side="right") - start
        return first + np.minimum(count, last)

    return pick


class PrimeGraph:
    """Simple undirected graph over primes, with its insertion history.

    Edge i comes from the even number 8 + 2i and joins the primes
    ``edge_p[i]`` < ``edge_q[i]`` = 8 + 2i - ``edge_p[i]``, so only the
    ``int32`` array edge_p is stored; ``node_count_history[i]`` is the node
    count after edge i. Instances are treated as immutable once built.
    """

    __slots__ = ("edge_p", "node_count_history", "alpha", "seed")

    def __init__(self, edge_p, node_count_history, alpha, seed):
        self.edge_p = edge_p
        self.node_count_history = node_count_history
        self.alpha = float(alpha)
        self.seed = int(seed)

    def __repr__(self):
        return (
            f"PrimeGraph(N={self.num_nodes}, M={self.num_edges}, "
            f"alpha={self.alpha!r}, seed={self.seed})"
        )

    @property
    def num_edges(self):
        return int(self.edge_p.size)

    @property
    def num_nodes(self):
        return int(self.node_count_history[-1]) if self.num_edges else 0

    @property
    def edge_even(self):
        """Source even number of each edge: every one from 8 on, in order."""
        return 8 + 2 * np.arange(self.num_edges, dtype=np.int64)

    @property
    def edge_q(self):
        """Larger prime of each edge, ``int32``: its source even minus p."""
        return np.arange(8, 8 + 2 * self.num_edges, 2, dtype=np.int32) - self.edge_p

    @property
    def node_labels(self):
        """Sorted array of the distinct primes present."""
        # sorted, repeats dropped: np.unique's first call imports numpy.ma
        labels = np.sort(np.concatenate([self.edge_p, self.edge_q]))
        return labels[np.diff(labels, prepend=-1) != 0]

    def edge_rows(self):
        """(N, u, v): the endpoints of each edge as rows of ``node_labels``."""
        labels = self.node_labels
        return (labels.size, labels.searchsorted(self.edge_p),
                labels.searchsorted(self.edge_q))

    def snapshot_at(self, n_star):
        """State at the first moment the node count reached ``n_star``.

        Returns None when the graph never grew that far.
        """
        idx = int(np.searchsorted(self.node_count_history, int(n_star), side="left"))
        if idx >= self.num_edges:
            return None
        m = idx + 1
        return PrimeGraph(self.edge_p[:m], self.node_count_history[:m], self.alpha,
                          self.seed)

    def write_edge_list(self, path):
        """Plain-text export: header line, then one "p q n" line per edge."""
        columns = self.edge_p, self.edge_q, self.edge_even
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"# goldbach-net alpha={self.alpha!r} seed={self.seed} "
                     f"M={self.num_edges} N={self.num_nodes}\n")
            # Python ints for 4096 edges at a time: whole lists of them set the peak RSS
            for i in range(0, self.num_edges, 4096):
                part = (c[i:i + 4096].tolist() for c in columns)
                fh.writelines(map("{} {} {}\n".format, *part))


def _share_table(table):
    global _worker_table
    _worker_table = table


def _chunk_picks(table, j, size, groups, draws):
    """(rows, size, 2) int32 prime indices (ip, iq) picked per ``(alpha, lo, hi)``
    group of ``draws`` rows for the evens from 8 + 2j on; workers pass no table."""
    table = _worker_table if table is None else table
    evens = range(8 + 2 * j, 8 + 2 * (j + size), 2)
    idx = np.empty((*draws.shape, 2), dtype=np.int32)
    for c in range(0, size, _BLOCK):
        block = slice(c, c + _BLOCK)
        decomp = decompose(table, evens[block])
        pick = _picker(decomp.delta, decomp.counts)
        for alpha, lo, hi in groups:
            k = pick(alpha, draws[lo:hi, block])
            idx[lo:hi, block, 0] = decomp.ip[k]
            idx[lo:hi, block, 1] = decomp.iq[k]
    return idx


def _new_endpoints(seen, rows, idx):
    """``(seen, new)``: uint8 count per edge of its endpoints new to its row;
    marks the first occurrences, p before q, in ``seen[row, prime index]``,
    whose columns double until they cover ``idx``. Temporaries die here."""
    while idx.max() >= seen.shape[1]:
        seen = np.hstack([seen, np.zeros_like(seen)])
    keys = (idx + rows[:, None, None] * seen.shape[1]).ravel()
    unseen = np.flatnonzero(~seen.take(keys))
    first = unseen[np.unique(keys[unseen], return_index=True)[1]]
    seen.put(keys[first], True)
    return seen, (np.bincount(first // 2, minlength=keys.size // 2)
                  .astype(np.uint8).reshape(idx.shape[:2]))


def _build_rows(table, alphas, seeds, max_even, marks, pool=None):
    """Build the alpha-major rows of checked ``alphas`` by int ``seeds``.

    Yields ``(row, k, snapshot)`` when a row first reaches ``marks[k]``, cut
    at the first crossing; a row stops at the last mark, and rows short of
    it at the last even number come last, whole and in row order, with
    ``k = len(marks)``. A ``pool`` set up by ``_share_table(table)`` runs
    ``_chunk_picks`` with one more chunk in flight than it has workers: chunk
    uniforms are drawn here, in order, for the rows active at submission;
    picks of rows since stopped are cut. A chunk's record holds every active
    row: 3 bytes per edge, p's prime index (uint16 below a cap of about
    1.6e6) and uint8 new endpoints, all dropped when the last row stops.
    """
    gens = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(s)))
            for s in seeds]
    finite = np.isfinite(alphas)
    n_seeds, n_rows = len(seeds), len(alphas) * len(seeds)
    target = marks[-1] if marks else math.inf
    last_even = table.limit if max_even is None else max_even
    n_evens = max((last_even - 8) // 2 + 1, 0)
    # p is at most half the last even, so its index fits the count of such primes
    index_type = np.min_scalar_type(np.sum(table.ordered_primes <= table.limit // 2))
    seen = np.zeros((n_rows, _CHUNK), dtype=bool)  # grows with the picked primes
    count, reached = np.zeros((2, n_rows), dtype=np.int64)  # nodes, marks per row
    active = np.arange(n_rows)
    records = [(active, *np.zeros((2, n_rows, 0), dtype=index_type))]  # (rows, ip, new)

    def graph(r):
        at = [rec[0].searchsorted(r) for rec in records]  # r's row in each record
        ip, new = (np.concatenate([rec[x][i] for rec, i in zip(records, at)])
                   for x in (1, 2))
        return PrimeGraph(table.ordered_primes[ip].astype(np.int32),
                          np.cumsum(new, dtype=np.int32), alphas[r // n_seeds],
                          seeds[r % n_seeds])

    def submit(j):
        size = min(_CHUNK, n_evens - j)
        row_alpha, row_seed = np.divmod(active, n_seeds)
        uniforms = np.zeros((n_seeds, size))
        # a set: np.unique's first call imports numpy.ma (1.8 MB traced)
        for i in set(row_seed[finite[row_alpha]].tolist()):
            uniforms[i] = gens[i].random(size)
        # active rows are alpha-major, so each alpha's rows are one slice
        bounds = np.searchsorted(row_alpha, np.arange(len(alphas) + 1)).tolist()
        groups = [g for g in zip(alphas, bounds, bounds[1:]) if g[2] > g[1]]
        task = (j, size, groups, uniforms[row_seed])
        return j, active, (pool.submit(_chunk_picks, None, *task).result
                           if pool else partial(_chunk_picks, table, *task))

    starts = iter(range(0, n_evens, _CHUNK))
    pending = deque(map(submit, islice(starts, pool._max_workers + 1 if pool else 1)))
    while active.size and pending:
        j, rows, picks = pending.popleft()
        idx = picks()[np.searchsorted(rows, active)]
        seen, new = _new_endpoints(seen, active, idx)
        records.append((active, idx[..., 0].astype(index_type), new))
        count[active] += new.sum(axis=1, dtype=np.int64)
        for r in active.tolist():
            while reached[r] < len(marks) and count[r] >= marks[reached[r]]:
                yield r, int(reached[r]), graph(r).snapshot_at(marks[reached[r]])
                reached[r] += 1
        active = active[count[active] < target]
        if active.size:
            pending.extend(map(submit, islice(starts, 1)))

    for r in active.tolist():
        yield r, len(marks), graph(r)


def build_many(table, alphas, seeds, *, max_even=None, target_nodes=None):
    """Build one realization per (alpha, seed), sharing the per-even work.

    Bit-for-bit equivalent to building each row on its own: the j-th even
    number (n = 8 + 2j) uses the j-th uniform of seed i's own generator,
    whatever the batching, since ``Generator.random`` spends one 64-bit
    output per double and carries nothing between calls; every finite
    alpha reads the same uniforms of seed i, and +inf and -inf consume
    none.

    One inline ``_build_rows`` pass builds every row; a row that reaches
    ``target_nodes`` is cut at the first crossing, and fewer than ``_CHUNK``
    even numbers are decomposed past the last stop.

    Parameters
    ----------
    table : PrimeTable
        Its sieve bound is the largest even number consumed.
    alphas : float or sequence of float
    seeds : sequence of int
        Each must fit in 64 unsigned bits.
    max_even, target_nodes : int, optional
        Stop rule; exactly one must be given.

    Returns
    -------
    list of PrimeGraph
        Alpha-major: the graph of ``(alphas[a], seeds[i])`` is at
        ``a * len(seeds) + i``, so a single float gives one per seed. A row
        that runs out of even numbers before reaching ``target_nodes`` is
        returned as built and nothing is raised, so a direct caller compares
        ``num_nodes`` with ``target_nodes``.
    """
    alphas = [check_run(a, (max_even, target_nodes)) for a in np.ravel(alphas)]
    seeds = [check_seed(s) for s in seeds]
    if max_even is not None and max_even > table.limit:
        raise ValueError(
            f"max_even={max_even} needs a sieve up to it, "
            f"table stops at {table.limit}"
        )
    marks = () if target_nodes is None else (target_nodes,)
    rows = _build_rows(table, alphas, seeds, max_even, marks)
    return [graph for _, _, graph in sorted(rows, key=operator.itemgetter(0))]


def build(table, alpha, seed, *, max_even=None, target_nodes=None):
    """Build the one realization ``build_many`` gives for (alpha, seed).

    Raises SieveExhausted when the sieve bound is consumed before the
    graph reaches ``target_nodes``.
    """
    graph = build_many(table, alpha, [seed], max_even=max_even,
                       target_nodes=target_nodes)[0]
    if target_nodes is not None and graph.num_nodes < target_nodes:
        m = graph.num_edges
        raise SieveExhausted(
            f"even numbers exhausted at {6 + 2 * m} (bound {table.limit}): "
            f"reached N={graph.num_nodes} of {target_nodes} nodes with "
            f"M={m} links at alpha={graph.alpha!r}"
        )
    return graph
