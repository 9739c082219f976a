"""Splitting even numbers into ordered prime pairs.

An even n >= 8 splits as n = p + q with p < q both odd primes; the spread
of a pair is delta = q - p. Within one number every pair has a distinct
spread (delta = n - 2p), which the selection machinery in
:mod:`goldbachnet.netbuild` relies on.
"""

from typing import NamedTuple

import numpy as np

from .errors import InvalidEvenNumber, OutOfRange, UndecomposableEven


class GoldbachPair(NamedTuple):
    p: int
    q: int
    delta: int


class Decomposition:
    """All prime pairs (p, q), p < q, summing to one even number.

    Pairs are stored as parallel arrays sorted by ascending p.
    """

    __slots__ = ("n", "p", "q", "delta")

    def __init__(self, n, p, q):
        self.n = int(n)
        self.p = p
        self.q = q
        self.delta = q - p

    @property
    def omega(self):
        """Number of pairs."""
        return int(self.p.size)

    @property
    def pairs(self):
        return [
            GoldbachPair(int(a), int(b), int(d))
            for a, b, d in zip(self.p, self.q, self.delta)
        ]

    def __repr__(self):
        return f"Decomposition(n={self.n}, omega={self.omega})"


def decompose(table, n):
    """Enumerate the prime pairs of an even number.

    Parameters
    ----------
    table : PrimeTable
        Sieve covering at least n - 3.
    n : int
        Even number, at least 8.

    Returns
    -------
    Decomposition

    Raises
    ------
    InvalidEvenNumber
        If n is odd or below 8.
    OutOfRange
        If the sieve is too small for n.
    UndecomposableEven
        If no pair exists (never observed for even n >= 8; fatal on purpose).
    """
    n = int(n)
    if n < 8 or n % 2:
        raise InvalidEvenNumber(f"need an even number >= 8, got {n}")
    if n > table.limit + 3:
        raise OutOfRange(
            f"{n} needs primes up to {n - 3}, sieve stops at {table.limit}"
        )
    primes = table.ordered_primes
    hi = int(np.searchsorted(primes, (n - 1) // 2, side="right"))
    p = primes[1:hi]  # skip 2: n - 2 is even and > 2, never prime here
    q = n - p
    mask = table._membership(q)
    p = p[mask]
    q = q[mask]
    if p.size == 0:
        raise UndecomposableEven(f"no prime pair p < q found for {n}")
    return Decomposition(n, p, q)

