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


def test_public_names_are_pinned_and_resolve():
    # a new public name is a deliberate change to this list
    assert goldbachnet.__all__ == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(goldbachnet, name)] == []
