"""Prime sieving up to a fixed bound."""

import numpy as np


class PrimeTable:
    """The primes up to ``limit``, in ascending order.

    Instances are immutable after construction and safe to share across
    workers.
    """

    __slots__ = ("limit", "ordered_primes")

    def __init__(self, limit, ordered_primes):
        self.limit = int(limit)
        self.ordered_primes = ordered_primes

    def __repr__(self):
        return f"PrimeTable(limit={self.limit}, n_primes={self.n_primes})"

    @property
    def n_primes(self):
        return int(self.ordered_primes.size)


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
        raise ValueError(f"sieve bound must be >= 2, got {limit}")
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return PrimeTable(limit, np.flatnonzero(flags).astype(np.int64))
