"""Prime sieving and membership queries up to a fixed bound."""

import numpy as np

from .errors import InvalidBound, OutOfRange


class PrimeTable:
    """Primes up to ``limit``, with O(1) membership tests.

    Membership is stored as one bool flag per integer, so a query is a
    single gather; a table covering 10**6 costs ~1 MB plus the ordered
    prime array. Instances are immutable after construction and safe to
    share across workers.
    """

    __slots__ = ("limit", "ordered_primes", "_flags")

    def __init__(self, limit, ordered_primes, flags):
        self.limit = int(limit)
        self.ordered_primes = ordered_primes
        self._flags = flags

    def __repr__(self):
        return f"PrimeTable(limit={self.limit}, n_primes={self.n_primes})"

    @property
    def n_primes(self):
        return int(self.ordered_primes.size)

    def is_prime(self, n):
        """True iff ``n`` is prime. ``n`` must lie in [0, limit]."""
        n = int(n)
        if n < 0 or n > self.limit:
            raise OutOfRange(f"{n} is outside the sieve range [0, {self.limit}]")
        return bool(self._flags[n])

    def __contains__(self, n):
        return self.is_prime(n)


def build_table(limit):
    """Sieve of Eratosthenes over [2, limit].

    Parameters
    ----------
    limit : int
        Inclusive upper bound, at least 2.

    Returns
    -------
    PrimeTable
    """
    limit = int(limit)
    if limit < 2:
        raise InvalidBound(f"sieve bound must be >= 2, got {limit}")
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    ordered = np.flatnonzero(flags).astype(np.int64)
    return PrimeTable(limit, ordered, flags)

