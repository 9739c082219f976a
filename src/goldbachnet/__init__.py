"""Prime-pair networks from even-number decompositions.

Every even number n >= 8 contributes one edge between a prime pair
p + q = n, the pair drawn with probability proportional to (q - p)**alpha.
The package builds these networks, measures the usual small-world
statistics against a matched G(N, M) baseline, and averages seeded
ensembles over alpha sweeps and node-count snapshots.
"""

from . import errors
from .baseline import GnmGraph, baseline_report, sample_gnm
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
from .metrics import (
    MetricsReport,
    assortativity,
    clustering,
    compute_report,
    degree_stats,
    shortest_distance_stats,
)
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
    "assortativity",
    "baseline_report",
    "baseline_seed",
    "build",
    "build_many",
    "build_table",
    "clustering",
    "compute_report",
    "decompose",
    "degree_stats",
    "errors",
    "growth_curves",
    "realization_seed",
    "run_sweep",
    "sample_gnm",
    "shortest_distance_stats",
]
