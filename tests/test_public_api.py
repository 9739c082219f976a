import goldbachnet

PUBLIC_NAMES = [
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


def test_public_names_are_pinned_and_resolve():
    # a new public name is a deliberate change to this list
    assert goldbachnet.__all__ == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(goldbachnet, name)] == []
