"""Seeded ensembles: many realizations per alpha, aggregated per snapshot.

Seed derivation is random-access so that any realization can be rebuilt in
isolation: realization i of a sweep uses
``SeedSequence(master_seed, spawn_key=(0, i))`` collapsed to one 64-bit
value, and the matched null-model sample for (alpha index a, realization i,
snapshot index s) uses ``spawn_key=(1, a, i, s)``.
"""

import operator
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from itertools import groupby
from typing import ClassVar

import numpy as np

from .baseline import sample_gnm
from .errors import GoldbachNetError
from .metrics import (CLUSTERING_CONVENTIONS, DISTRIBUTIONS, SCALAR_FIELDS,
                      compute_report)
from .netbuild import (_build_rows, _check_even_bound, _share_table, check_run,
                       check_seed)
from .primes import build_table

DEFAULT_MAX_EVEN_CAP = 1_000_000  # sieve bound of node-count builds and sweeps

SEED_RULE = (
    "uint64 from SeedSequence(master_seed, spawn_key): builds (0, realization); "
    "null models (1, alpha_index, realization, snapshot_index)"
)


def _derive_seed(master_seed, spawn_key):
    seq = np.random.SeedSequence(int(master_seed), spawn_key=spawn_key)
    return int(seq.generate_state(1, np.uint64)[0])


def realization_seed(master_seed, realization):
    """Build seed for one realization of a sweep."""
    return _derive_seed(master_seed, (0, int(realization)))


def baseline_seed(master_seed, alpha_index, realization, snapshot_index):
    """Null-model seed matched to one (alpha, realization, snapshot) cell."""
    return _derive_seed(
        master_seed, (1, int(alpha_index), int(realization), int(snapshot_index))
    )


def _check_rows(alphas, stop, realizations, master_seed):
    """Check the rows of an ensemble: its alphas, each under check_run's stop
    rule ``stop``, its integral realizations and master seed; return them as
    a tuple of floats, an int and an int."""
    alphas = tuple(check_run(a, stop) for a in alphas)
    if not alphas:
        raise ValueError("alphas must be nonempty")
    realizations = operator.index(realizations)  # a TypeError unless integral
    if realizations < 1:
        raise ValueError("realizations must be >= 1")
    return alphas, realizations, check_seed(master_seed, "master_seed")


@dataclass(frozen=True)
class SweepSpec:
    """One ensemble run: alpha grid, node-count checkpoints, realizations."""

    alphas: tuple
    snapshot_nodes: tuple
    realizations: int = 20
    master_seed: int = 1
    max_even_cap: int = DEFAULT_MAX_EVEN_CAP
    clustering: str = "standard"

    def __post_init__(self):
        snaps = tuple(int(s) for s in self.snapshot_nodes)
        if not snaps or any(b <= a for a, b in zip(snaps, snaps[1:])):
            raise ValueError("snapshot_nodes must be nonempty, strictly increasing")
        # every snapshot is a node-count target; the first is the smallest
        rows = _check_rows(self.alphas, (None, snaps[0]), self.realizations,
                           self.master_seed)
        _check_even_bound(self.max_even_cap, "max_even_cap")
        if self.clustering not in CLUSTERING_CONVENTIONS:
            raise ValueError(f"unknown clustering convention {self.clustering!r}")
        vars(self).update(zip(("alphas", "realizations", "master_seed"), rows),
                          snapshot_nodes=snaps, max_even_cap=int(self.max_even_cap))


@dataclass
class ScalarStat:
    """Mean / sample std over the realizations where the value was defined."""

    mean: float | None
    std: float | None
    count: int


@dataclass
class BinStat:
    """Per-bin mean over the realizations containing the bin."""

    mean: float
    count: int


@dataclass
class AggregateStats:
    scalars: dict
    distributions: dict

    def to_json_dict(self):
        return {
            "scalars": {name: vars(st).copy() for name, st in self.scalars.items()},
            "distributions": {name: {str(k): vars(b).copy() for k, b in bins.items()}
                              for name, bins in self.distributions.items()},
        }


def _scalar_stat(values):
    present = [float(v) for v in values if v is not None]
    if not present:
        return ScalarStat(mean=None, std=None, count=0)
    arr = np.asarray(present)
    std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
    return ScalarStat(mean=float(arr.mean()), std=std, count=int(arr.size))


def aggregate(reports):
    """Fold MetricsReports into per-field means and sample standard deviations.

    Distribution bins are averaged pointwise over the realizations that
    contain the bin, with the occupancy count kept so occupancy-weighted
    (zero-filled) averages remain reconstructable.
    """
    reports = list(reports)
    if not reports:
        raise ValueError("aggregate needs at least one report")
    scalars = {
        name: _scalar_stat([getattr(rep, name) for rep in reports])
        for name in SCALAR_FIELDS
    }
    distributions = {}
    for name in DISTRIBUTIONS:
        bins = {}
        for rep in reports:
            for k, v in getattr(rep, name).items():
                bins.setdefault(int(k), []).append(float(v))
        distributions[name] = {
            k: BinStat(mean=float(np.mean(vals)), count=len(vals))
            for k, vals in sorted(bins.items())
        }
    return AggregateStats(scalars=scalars, distributions=distributions)


@dataclass
class SweepCell:
    """Aggregates for one (alpha, snapshot) cell; empty cells mark absence."""

    alpha: float
    snapshot: int
    n_realizations: int
    network: AggregateStats | None
    baseline: AggregateStats | None

    def to_json_dict(self):
        return {name: value.to_json_dict() if isinstance(value, AggregateStats)
                else value for name, value in vars(self).items()}


@dataclass
class EnsembleResult:
    """All cells of one sweep plus full seed provenance."""

    seed_rule: ClassVar[str] = SEED_RULE
    spec: SweepSpec
    cells: list
    warnings: list = field(default_factory=list)

    def cell(self, alpha, snapshot):
        alpha = float(alpha)
        snapshot = int(snapshot)
        for c in self.cells:
            if c.alpha == alpha and c.snapshot == snapshot:
                return c
        raise KeyError(f"no cell for alpha={alpha!r}, snapshot={snapshot}")

    def to_json_dict(self):
        return asdict(self.spec) | {
            "alphas": [repr(a) for a in self.spec.alphas],
            "seed_rule": self.seed_rule,
            "warnings": list(self.warnings),
            "cells": [c.to_json_dict() for c in self.cells],
        }


def _measure(spec, row, si, sub):
    """(report, matched baseline report) of snapshot ``si`` of one row."""
    alpha_index, realization = divmod(row, spec.realizations)
    seed = baseline_seed(spec.master_seed, alpha_index, realization, si)
    return (compute_report(sub, spec.clustering),
            compute_report(sample_gnm(sub.num_nodes, sub.num_edges, seed),
                           spec.clustering))


@contextmanager
def _sieve_and_pool(limit, workers):
    """Check ``workers``, then yield the sieve up to ``limit`` and a pool of
    ``workers`` processes sharing it, or None for one."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    table = build_table(limit)
    pool = None
    if workers > 1:  # the pool stack takes about 2 MB resident: load it only here
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(workers, initializer=_share_table, initargs=(table,))
    try:
        yield table, pool
    except Exception as exc:  # a dead worker, or an error raised in a task
        if pool is None or isinstance(exc, GoldbachNetError):
            raise
        raise GoldbachNetError(f"worker pool failed: {exc!r}") from exc
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)


def run_sweep(spec, workers=1):
    """Execute every (alpha, realization) build and aggregate per snapshot.

    One construction pass builds every row, and the metrics of each (row,
    snapshot) are one task, started as soon as the row reaches it. With
    ``workers`` > 1, one pool created before construction runs both the
    construction chunks and the metrics tasks, at most 2 * ``workers`` of
    them in flight: snapshots wait in construction, not in the pool. The
    result is a deterministic function of ``spec`` alone: cells are folded in
    (alpha, snapshot) order, realizations in order within each cell.
    """
    seeds = [realization_seed(spec.master_seed, i) for i in range(spec.realizations)]
    measured, in_flight, warnings = {}, [], []
    with _sieve_and_pool(spec.max_even_cap, workers) as (table, pool):
        for row, si, sub in _build_rows(table, spec.alphas, seeds, None,
                                        spec.snapshot_nodes, pool):
            if si == len(spec.snapshot_nodes):  # short rows come last, by row
                a, i = divmod(row, spec.realizations)
                warnings.append(f"alpha={spec.alphas[a]!r}: realization {i} exhausted "
                                f"even numbers at cap {spec.max_even_cap} with "
                                f"N={sub.num_nodes}, M={sub.num_edges}")
            elif pool:
                if len(in_flight) == 2 * workers:
                    in_flight.pop(0).result()
                in_flight.append(pool.submit(_measure, spec, row, si, sub))
                measured[row, si] = in_flight[-1]
            else:
                measured[row, si] = _measure(spec, row, si, sub)
        if pool:
            measured = {key: task.result() for key, task in measured.items()}

    cells = []
    for ai, alpha in enumerate(spec.alphas):
        rows = range(ai * len(seeds), (ai + 1) * len(seeds))
        for si, n_star in enumerate(spec.snapshot_nodes):
            pairs = [measured[r, si] for r in rows if (r, si) in measured]
            if pairs:
                reps, breps = zip(*pairs)
                cells.append(SweepCell(alpha, n_star, len(pairs), aggregate(reps),
                                       aggregate(breps)))
            else:
                cells.append(SweepCell(alpha, n_star, 0, None, None))
    return EnsembleResult(spec=spec, cells=cells, warnings=warnings)


@dataclass
class GrowthCurves:
    """Ensemble mean of the node count as a function of the link count M,
    which is one more than the position in ``n_mean`` and ``n_std``."""

    alpha: float
    n_mean: np.ndarray
    n_std: np.ndarray


def growth_curves(alphas, max_even, realizations, master_seed, workers=1):
    """One GrowthCurves per alpha: N(M) averaged over seeded realizations.

    One construction pass, on a pool when ``workers`` > 1, builds every row
    to ``max_even``, so M = 1..(max_even - 8)/2 + 1 for all, and keeps only
    node-count histories; each curve equals that of its alpha alone.
    """
    max_even = int(max_even)
    alphas, realizations, master_seed = _check_rows(
        np.ravel(alphas), (max_even, None), realizations, master_seed)
    seeds = [realization_seed(master_seed, i) for i in range(realizations)]
    curves = []
    with _sieve_and_pool(max_even, workers) as (table, pool):
        rows = _build_rows(table, alphas, seeds, max_even, (), pool)
        for ai, group in groupby(rows, key=lambda row: row[0] // realizations):
            hist = np.vstack([g.node_count_history for *_, g in group]).astype(float)
            n_std = (np.std(hist, axis=0, ddof=1) if realizations > 1
                     else np.zeros(hist.shape[1]))
            curves.append(GrowthCurves(alphas[ai], hist.mean(axis=0), n_std))
    return curves
