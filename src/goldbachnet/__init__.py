"""Prime-pair networks from even-number decompositions.

Every even number n >= 8 contributes one edge between a prime pair
p + q = n, the pair drawn with probability proportional to (q - p)**alpha.
The package builds these networks, measures the usual small-world
statistics against a matched G(N, M) baseline, and averages seeded
ensembles over alpha sweeps and node-count snapshots.
"""

from . import errors
from .baseline import GnmGraph, sample_gnm
from .ensemble import (
    AggregateStats,
    EnsembleResult,
    GrowthCurves,
    SweepCell,
    SweepSpec,
    aggregate,
    baseline_seed,
    growth_curves,
    realization_seed,
    run_sweep,
)
from .goldbach import Decomposition, decompose
from .metrics import MetricsReport, compute_report
from .netbuild import PrimeGraph, build, build_many
from .primes import PrimeTable, build_table

__version__ = "0.1.0"

__all__ = [
    "AggregateStats",
    "Decomposition",
    "EnsembleResult",
    "GnmGraph",
    "GrowthCurves",
    "MetricsReport",
    "PrimeGraph",
    "PrimeTable",
    "SweepCell",
    "SweepSpec",
    "aggregate",
    "baseline_seed",
    "build",
    "build_many",
    "build_table",
    "compute_report",
    "decompose",
    "errors",
    "growth_curves",
    "realization_seed",
    "run_sweep",
    "sample_gnm",
]
