"""Exception types of a failed run; a bad argument raises ValueError instead."""


class GoldbachNetError(Exception):
    """A run that failed after its arguments were accepted: what it found
    (the subclasses), or any other error after the sieve (in the run, in
    folding its tables or in writing its output), re-raised as "run failed: ..."."""


class UndecomposableEven(GoldbachNetError):
    """An even number in range has no prime pair p < q.

    This would contradict the empirical two-prime splitting of every even
    number tested here, so it aborts loudly instead of being skipped.
    """


class SieveExhausted(GoldbachNetError):
    """A node-count target was not reached before running out of even numbers."""


class DegenerateGraph(GoldbachNetError):
    """The graph is too small (or too empty) for the requested statistic."""


class UndefinedAssortativity(GoldbachNetError):
    """Degree correlation is 0/0 because all edge endpoints have equal degree."""
