"""Splitting even numbers into ordered prime pairs.

An even n >= 8 splits as n = p + q with p < q both odd primes; the spread
of a pair is delta = q - p. Within one number every pair has a distinct
spread (delta = n - 2p), which the selection machinery in
:mod:`goldbachnet.netbuild` relies on.
"""

import numpy as np

from .errors import UndecomposableEven


class Decomposition:
    """All prime pairs (p, q), p < q, summing to one even number, or to each
    even number of a range.

    Pairs are parallel arrays, even number by even number, each sorted by
    ascending p: int32 positions ``ip``, ``iq`` of p, q in the ordered primes
    and ``delta``; ``counts`` holds the pair count of each even.
    """

    __slots__ = ("n", "ip", "iq", "delta", "counts", "_primes")

    def __init__(self, n, primes, ip, iq, delta, counts):
        self.n = n if isinstance(n, range) else int(n)
        self._primes, self.ip, self.iq = primes, ip, iq
        self.delta, self.counts = delta, counts

    p = property(lambda self: self._primes[self.ip], doc="Smaller primes.")
    q = property(lambda self: self._primes[self.iq], doc="Larger primes.")
    omega = property(lambda self: int(self.ip.size), doc="Number of pairs.")

    def __repr__(self):
        return f"Decomposition(n={self.n}, omega={self.omega})"


def decompose(table, n):
    """Enumerate the prime pairs of an even number, or of a range of them.

    For each odd prime p up to half the largest even number, the primes
    q > p completing a pair are one slice of the ordered primes; a stable
    sort on the even number groups them.

    Parameters
    ----------
    table : PrimeTable
        Sieve covering at least the largest even number minus 3.
    n : int or range
        Even number, at least 8, or a range of them in steps of 2.

    Returns
    -------
    Decomposition

    Raises
    ------
    ValueError
        If n is odd or below 8, the range is empty or not of step 2, or
        the sieve is too small for the largest even number.
    UndecomposableEven
        Naming the first even number without a pair (never observed for
        even n >= 8; fatal on purpose).
    """
    evens = n if isinstance(n, range) else range(int(n), int(n) + 1, 2)
    if not evens or evens.step != 2 or evens[0] < 8 or evens[0] % 2:
        raise ValueError(f"need even numbers >= 8 in steps of 2, got {n}")
    n0, n1 = evens[0], evens[-1]
    if n1 > table.limit + 3:
        raise ValueError(
            f"{n1} needs primes up to {n1 - 3}, sieve stops at {table.limit}"
        )
    primes = table.ordered_primes
    # odd p <= n1 / 2 (n - 2 is never prime), q above p in the primes' order
    p = primes[1:primes.searchsorted(n1 // 2, side="right")]
    # q in [n0 - p, n1 - p] by position: below[k] + base primes lie under x0 + 2k
    x0 = n0 - (n1 // 2 - 1 | 1)  # the least n - p, odd like every n - p
    base, top = primes.searchsorted([x0, n1])
    below = np.zeros((n1 - x0) // 2 + 2, dtype=np.int32)
    below[(primes[base:top] - x0) // 2 + 1] = 1
    below.cumsum(out=below)
    lo = np.maximum(below[(n0 - p - x0) >> 1] + base, np.arange(2, p.size + 2))
    count = np.maximum(below[((n1 - p - x0) >> 1) + 1] + base - lo, 0)
    ip = np.repeat(np.arange(1, p.size + 1, dtype=np.int32), count)
    iq = np.repeat((lo - count.cumsum() + count).astype(np.int32), count)
    iq += np.arange(iq.size, dtype=np.int32)
    q, p = primes.take(iq), np.repeat(p, count)
    even = ((p + q - n0) >> 1).astype(np.min_scalar_type(len(evens) - 1))
    order = even.argsort(kind="stable")
    counts = np.bincount(even, minlength=len(evens))
    if not counts.all():
        raise UndecomposableEven(
            f"no prime pair p < q found for {evens[int(counts.argmin())]}")
    return Decomposition(n, primes, ip[order], iq[order], (q - p)[order], counts)
