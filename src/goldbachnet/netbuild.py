"""Construction of the prime-pair network.

One edge per even number n = 8, 10, 12, ...: among the prime pairs of n,
one is drawn with probability proportional to delta**alpha, where
delta = q - p is the spread of a pair. alpha = +inf (-inf) deterministically
picks the largest (smallest) spread. Node labels are the primes themselves.
The graph is simple by construction: pairs from distinct even numbers have
distinct sums, and within one number only a single pair is kept.
"""

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import OutOfRange, SieveExhausted
from .goldbach import GoldbachPair, decompose

# uniforms are drawn in fixed-size blocks so that the value consumed for the
# j-th even number depends only on (seed, j), never on how the loop is batched
_UNIFORM_BLOCK = 4096


def check_run(alpha, stop=None):
    """Validate a spread exponent and, if given, a stop rule; return float alpha.

    ``stop`` is ``(max_even, target_nodes)``, exactly one of them set:
    process every even number up to and including ``max_even``, or stop
    once the node count first reaches ``target_nodes``.
    """
    alpha = float(alpha)
    if math.isnan(alpha):
        raise ValueError("alpha must not be NaN")
    if stop is None:
        return alpha
    max_even, target_nodes = stop
    if (max_even is None) == (target_nodes is None):
        raise ValueError("set exactly one of max_even / target_nodes")
    if max_even is not None and (max_even < 8 or max_even % 2):
        raise ValueError(f"max_even must be even and >= 8, got {max_even}")
    if target_nodes is not None and target_nodes < 2:
        raise ValueError(f"target_nodes must be >= 2, got {target_nodes}")
    return alpha


def _cumulative_weights(delta, alpha):
    # max-rescaled exponentials; naive delta**alpha overflows for |alpha| ~ 5
    # once spreads reach ~10**6
    logw = alpha * np.log(delta.astype(np.float64))
    w = np.exp(logw - logw.max())
    return np.cumsum(w)


def _pick(delta, alpha, draws):
    """Index of the pair each uniform of ``draws`` selects, as an array.

    For finite alpha, pair i is chosen iff the draw lands in the i-th
    cumulative slot of the normalized delta**alpha weights. For
    alpha = +inf (-inf) every draw picks the largest (smallest) spread;
    ties are impossible because spreads within one even number are distinct.
    """
    if alpha == math.inf:
        return np.full(len(draws), np.argmax(delta))
    if alpha == -math.inf:
        return np.full(len(draws), np.argmin(delta))
    cum = _cumulative_weights(delta, alpha)
    return np.minimum(np.searchsorted(cum, draws * cum[-1], side="right"),
                      delta.size - 1)


def select_pair(decomp, alpha, rng_draw):
    """Pick one pair of ``decomp`` from a single uniform draw.

    The one-draw case of the selection ``build_many`` makes for every even
    number (see ``_pick``); for alpha = +inf (-inf) the draw is ignored.

    Parameters
    ----------
    decomp : Decomposition
    alpha : float
        Spread exponent; +inf and -inf are allowed, NaN is not.
    rng_draw : float
        Uniform variate in [0, 1).

    Returns
    -------
    GoldbachPair
    """
    alpha = check_run(alpha)
    i = int(_pick(decomp.delta, alpha, np.array([float(rng_draw)]))[0])
    return GoldbachPair(int(decomp.p[i]), int(decomp.q[i]), int(decomp.delta[i]))


@dataclass(frozen=True)
class BuildConfig:
    """One construction run: spread exponent, stop rule and seed.

    Exactly one of ``max_even`` and ``target_nodes`` must be set; see
    ``check_run``.
    """

    alpha: float
    seed: int
    max_even: int | None = None
    target_nodes: int | None = None

    def __post_init__(self):
        check_run(self.alpha, (self.max_even, self.target_nodes))
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in 64 unsigned bits")


class PrimeGraph:
    """Simple undirected graph over primes, with its insertion history.

    Edges are kept in insertion order as parallel arrays (edge_p, edge_q,
    edge_even); ``node_count_history[i]`` is the node count after edge i.
    Instances are treated as immutable once built.
    """

    __slots__ = (
        "edge_p",
        "edge_q",
        "edge_even",
        "node_count_history",
        "alpha",
        "seed",
        "exhausted",
        "_labels",
    )

    def __init__(self, edge_p, edge_q, edge_even, node_count_history, alpha, seed,
                 exhausted=False):
        self.edge_p = edge_p
        self.edge_q = edge_q
        self.edge_even = edge_even
        self.node_count_history = node_count_history
        self.alpha = float(alpha)
        self.seed = int(seed)
        self.exhausted = bool(exhausted)
        self._labels = None

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
    def node_labels(self):
        """Sorted array of the distinct primes present."""
        if self._labels is None:
            self._labels = np.unique(np.concatenate([self.edge_p, self.edge_q]))
        return self._labels

    @property
    def edges(self):
        """Insertion-ordered list of (p, q, source_even) tuples."""
        return list(
            zip(self.edge_p.tolist(), self.edge_q.tolist(), self.edge_even.tolist())
        )

    @property
    def growth_log(self):
        """Array of (links, nodes) after each insertion, shape (M, 2)."""
        m = self.num_edges
        return np.column_stack(
            [np.arange(1, m + 1, dtype=np.int64), self.node_count_history]
        )

    def edge_endpoints(self):
        return self.edge_p, self.edge_q

    def snapshot_at(self, n_star):
        """State at the first moment the node count reached ``n_star``.

        Returns None when the graph never grew that far.
        """
        idx = int(np.searchsorted(self.node_count_history, int(n_star), side="left"))
        if idx >= self.num_edges:
            return None
        m = idx + 1
        return PrimeGraph(
            self.edge_p[:m],
            self.edge_q[:m],
            self.edge_even[:m],
            self.node_count_history[:m],
            self.alpha,
            self.seed,
            exhausted=self.exhausted,
        )

    def write_edge_list(self, path):
        """Plain-text export: header line, then one "p q n" line per edge."""
        lines = [
            f"# goldbach-net alpha={self.alpha!r} seed={self.seed} "
            f"M={self.num_edges} N={self.num_nodes}"
        ]
        lines.extend(
            f"{p} {q} {n}"
            for p, q, n in zip(
                self.edge_p.tolist(), self.edge_q.tolist(), self.edge_even.tolist()
            )
        )
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class _Realization:
    """Mutable bookkeeping for one seed while the shared even-loop runs."""

    __slots__ = ("seed", "gen", "block", "block_no", "p", "q", "src", "seen",
                 "count", "hist", "exhausted")

    def __init__(self, seed):
        self.seed = int(seed)
        self.gen = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence(self.seed))
        )
        self.block = None
        self.block_no = -1
        self.p = []
        self.q = []
        self.src = []
        self.seen = set()
        self.count = 0
        self.hist = []
        self.exhausted = False

    def uniform(self, j):
        b, off = divmod(j, _UNIFORM_BLOCK)
        if self.block_no != b:
            # j advances one even at a time, so blocks are generated in order
            self.block = self.gen.random(_UNIFORM_BLOCK)
            self.block_no = b
        return self.block[off]

    def add_edge(self, p, q, n):
        self.p.append(p)
        self.q.append(q)
        self.src.append(n)
        if p not in self.seen:
            self.seen.add(p)
            self.count += 1
        if q not in self.seen:
            self.seen.add(q)
            self.count += 1
        self.hist.append(self.count)

    def freeze(self, alpha):
        return PrimeGraph(
            np.array(self.p, dtype=np.int64),
            np.array(self.q, dtype=np.int64),
            np.array(self.src, dtype=np.int64),
            np.array(self.hist, dtype=np.int64),
            alpha,
            self.seed,
            exhausted=self.exhausted,
        )


def build_many(table, alpha, seeds, *, max_even=None, target_nodes=None,
               on_exhaust="raise"):
    """Build one realization per seed, sharing the per-even-number work.

    Bit-for-bit equivalent to building each seed on its own: realization i
    consumes uniforms only from its own generator, one draw per even number
    it processes (none when alpha is +inf or -inf).

    Parameters
    ----------
    table : PrimeTable
        Its sieve bound is the largest even number consumed.
    alpha : float
    seeds : sequence of int
    max_even, target_nodes : int, optional
        Stop rule; exactly one must be given.
    on_exhaust : {"raise", "partial"}
        Whether running out of even numbers before reaching target_nodes
        raises SieveExhausted or returns the partial graphs flagged
        ``exhausted``.

    Returns
    -------
    list of PrimeGraph
    """
    alpha = check_run(alpha, (max_even, target_nodes))
    if on_exhaust not in ("raise", "partial"):
        raise ValueError(f"unknown on_exhaust mode {on_exhaust!r}")
    if max_even is not None and max_even > table.limit:
        raise OutOfRange(
            f"max_even={max_even} needs a sieve up to it, "
            f"table stops at {table.limit}"
        )

    finite = math.isfinite(alpha)
    states = [_Realization(s) for s in seeds]
    active = list(states)

    n = 8
    j = 0
    while active:
        if max_even is not None and n > max_even:
            break
        if n > table.limit:
            if on_exhaust == "raise":
                st = active[0]
                raise SieveExhausted(
                    f"even numbers exhausted at {n - 2} (bound {table.limit}): "
                    f"reached N={st.count} of {target_nodes} nodes with "
                    f"M={len(st.p)} links at alpha={alpha!r}"
                )
            for st in active:
                st.exhausted = True
            break
        decomp = decompose(table, n)
        # +inf and -inf ignore the draw and consume no uniform
        draws = np.array([st.uniform(j) if finite else 0.0 for st in active])
        done = []
        for st, i in zip(active, _pick(decomp.delta, alpha, draws)):
            st.add_edge(int(decomp.p[i]), int(decomp.q[i]), n)
            if target_nodes is not None and st.count >= target_nodes:
                done.append(st)
        for st in done:
            active.remove(st)
        n += 2
        j += 1

    return [st.freeze(alpha) for st in states]


def build(cfg, table):
    """Run the construction described by ``cfg`` against ``table``."""
    return build_many(
        table,
        cfg.alpha,
        [cfg.seed],
        max_even=cfg.max_even,
        target_nodes=cfg.target_nodes,
        on_exhaust="raise",
    )[0]

