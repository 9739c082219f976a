import concurrent.futures
import json
import math
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from goldbachnet import (
    EnsembleResult,
    MetricsReport,
    SweepCell,
    SweepSpec,
    aggregate,
    baseline_seed,
    build_many,
    build_table,
    compute_report,
    growth_curves,
    realization_seed,
    run_sweep,
    sample_gnm,
)
from goldbachnet import ensemble
from goldbachnet.ensemble import SEED_RULE
from goldbachnet.metrics import SCALAR_FIELDS

ALPHA_TOO_LARGE = r"^finite \|alpha\| must be <= 2.809e\+306; use \+inf/-inf$"


def _report(d=2.0, p_of_j=None, r=0.1):
    return MetricsReport(
        n_nodes=10,
        n_edges=12,
        d=d,
        p_of_j=p_of_j or {1: 0.5, 2: 0.5},
        reachable_fraction=1.0,
        giant_component_size=10,
        C=0.2,
        C_by_degree={2: 0.2},
        P_of_k={2: 0.6, 3: 0.4},
        mean_k=2.4,
        f_k=0.5,
        k_max=3,
        r=r,
    )


def test_aggregate_identical_reports():
    agg = aggregate([_report(), _report()])
    assert agg.scalars["d"].mean == 2.0
    assert agg.scalars["d"].std == 0.0
    assert agg.scalars["d"].count == 2


def test_aggregate_hand_values():
    agg = aggregate([_report(d=2.0), _report(d=4.0)])
    assert agg.scalars["d"].mean == pytest.approx(3.0)
    assert agg.scalars["d"].std == pytest.approx(math.sqrt(2))


def test_aggregate_single_report_zero_std():
    agg = aggregate([_report()])
    assert agg.scalars["d"].std == 0.0
    assert agg.scalars["d"].count == 1


def test_aggregate_partial_bins():
    a = _report(p_of_j={1: 0.5, 2: 0.5})
    b = _report(p_of_j={1: 1.0})
    agg = aggregate([a, b])
    bins = agg.distributions["p_of_j"]
    assert bins[1].mean == pytest.approx(0.75) and bins[1].count == 2
    assert bins[2].mean == pytest.approx(0.5) and bins[2].count == 1


def test_aggregate_missing_r():
    agg = aggregate([_report(r=None), _report(r=0.3)])
    assert agg.scalars["r"].count == 1
    assert agg.scalars["r"].mean == pytest.approx(0.3)
    agg_none = aggregate([_report(r=None)])
    assert agg_none.scalars["r"].mean is None
    assert agg_none.scalars["r"].count == 0


def test_aggregate_empty_rejected():
    with pytest.raises(ValueError):
        aggregate([])


def test_run_sweep_single_realization_equals_report(table_30k):
    spec = SweepSpec(alphas=(0.0,), snapshot_nodes=(80,), realizations=1,
                     master_seed=7, max_even_cap=20_000)
    result = run_sweep(spec)
    cell = result.cell(0.0, 80)
    assert cell.n_realizations == 1
    from goldbachnet import build_many, realization_seed

    g = build_many(table_30k, 0.0, [realization_seed(7, 0)], target_nodes=80)[0]
    rep = compute_report(g.snapshot_at(80))
    for name in SCALAR_FIELDS:
        value = getattr(rep, name)
        stat = cell.network.scalars[name]
        if value is None:
            assert stat.count == 0
        else:
            assert stat.mean == pytest.approx(float(value), abs=1e-12)
            assert stat.std == 0.0


def test_run_sweep_deterministic():
    import json

    spec = SweepSpec(alphas=(0.0, 1.0), snapshot_nodes=(40, 60),
                     realizations=3, master_seed=11, max_even_cap=20_000)
    a = run_sweep(spec).to_json_dict()
    b = run_sweep(spec).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_sweep_parallel_matches_sequential():
    import json

    # under the 2000 cap no -inf realization reaches 275 nodes, and at
    # alpha = 0 realization 2 stops at 273
    spec = SweepSpec(alphas=(0.0, -math.inf, 1.0), snapshot_nodes=(50, 275),
                     realizations=3, master_seed=13, max_even_cap=2_000)
    results = [run_sweep(spec, workers=w) for w in (1, 2, 3)]
    docs = [json.dumps(result.to_json_dict()) for result in results]
    assert docs[1] == docs[0] and docs[2] == docs[0]
    for result in results:
        assert [(c.alpha, c.snapshot, c.n_realizations) for c in result.cells] == [
            (0.0, 50, 3), (0.0, 275, 2), (-math.inf, 50, 3), (-math.inf, 275, 0),
            (1.0, 50, 3), (1.0, 275, 3)]
        assert [w.split(" exhausted")[0] for w in result.warnings] == [
            "alpha=0.0: realization 2", "alpha=-inf: realization 0",
            "alpha=-inf: realization 1", "alpha=-inf: realization 2"]


def _reference_sweep(spec):
    """run_sweep's result folded from build_many, snapshot_at and one report
    pair per reached (row, snapshot), independently of the pool."""
    seeds = [realization_seed(spec.master_seed, i) for i in range(spec.realizations)]
    graphs = build_many(build_table(spec.max_even_cap), spec.alphas, seeds,
                        target_nodes=spec.snapshot_nodes[-1])
    cells, warnings = [], []
    for ai, alpha in enumerate(spec.alphas):
        row = graphs[ai * len(seeds):(ai + 1) * len(seeds)]
        warnings += [f"alpha={alpha!r}: realization {i} exhausted even numbers at cap "
                     f"{spec.max_even_cap} with N={g.num_nodes}, M={g.num_edges}"
                     for i, g in enumerate(row) if g.num_nodes < spec.snapshot_nodes[-1]]
        for si, n_star in enumerate(spec.snapshot_nodes):
            reps, breps = [], []
            for i, sub in enumerate(g.snapshot_at(n_star) for g in row):
                if sub is not None:
                    seed = baseline_seed(spec.master_seed, ai, i, si)
                    reps.append(compute_report(sub, spec.clustering))
                    breps.append(compute_report(sample_gnm(sub.num_nodes,
                                                           sub.num_edges, seed),
                                                spec.clustering))
            cells.append(SweepCell(alpha, n_star, len(reps),
                                   aggregate(reps) if reps else None,
                                   aggregate(breps) if reps else None))
    return EnsembleResult(spec, cells, warnings)


def test_run_sweep_with_look_ahead_matches_reference():
    import json

    # under the 12000 cap -inf never reaches 800 nodes; +inf and 0.7 stop in
    # 256-even chunks 11 to 13, -2.5 in chunks 22 and 23, so pooled sweeps
    # draw chunks for rows that stop while they are in flight, and the rows
    # still active are not the leading ones
    spec = SweepSpec(alphas=(math.inf, 0.7, -2.5, -math.inf),
                     snapshot_nodes=(100, 400, 800), realizations=2,
                     master_seed=17, max_even_cap=12_000)
    reference = json.dumps(_reference_sweep(spec).to_json_dict())
    for workers in (1, 2, 3):
        assert json.dumps(run_sweep(spec, workers=workers).to_json_dict()) == reference
    doc = json.loads(reference)
    assert [c["n_realizations"] for c in doc["cells"]] == [2] * 9 + [2, 2, 0]
    assert len(doc["warnings"]) == 2


def test_run_sweep_bounds_the_metrics_tasks_in_flight(monkeypatch):
    outstanding, measures = [], []

    class RecordingPool(ProcessPoolExecutor):
        """Notes, at each ``_measure`` task submitted, how many are not done
        yet, the new one included."""

        def submit(self, fn, *args):
            if fn is not ensemble._measure:
                return super().submit(fn, *args)
            outstanding.append(1 + sum(not task.done() for task in measures))
            measures.append(super().submit(fn, *args))
            return measures[-1]

    # run_sweep imports the pool class from concurrent.futures when it needs one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    # one 256-even chunk takes every row past several snapshots at once
    spec = SweepSpec(alphas=(0.0, -2.5), snapshot_nodes=(25, 50, 100, 200, 400),
                     realizations=4, master_seed=5, max_even_cap=20_000)
    pooled = run_sweep(spec, workers=2)
    assert len(outstanding) == 2 * 4 * 5
    assert max(outstanding) <= 2 * 2, outstanding
    assert (json.dumps(pooled.to_json_dict())
            == json.dumps(run_sweep(spec, workers=1).to_json_dict()))


def test_run_sweep_absent_cells_and_warnings():
    spec = SweepSpec(alphas=(0.0,), snapshot_nodes=(50, 10_000),
                     realizations=2, master_seed=3, max_even_cap=2_000)
    result = run_sweep(spec)
    reached = result.cell(0.0, 50)
    assert reached.n_realizations == 2
    absent = result.cell(0.0, 10_000)
    assert absent.n_realizations == 0
    assert absent.network is None and absent.baseline is None
    assert len(result.warnings) == 2  # both realizations ran out of evens


def test_run_sweep_self_consistency_across_master_seeds(table_1m):
    d_means = []
    for master in (101, 202):
        spec = SweepSpec(alphas=(0.0,), snapshot_nodes=(1000,),
                         realizations=20, master_seed=master,
                         max_even_cap=1_000_000)
        result = run_sweep(spec)
        d_means.append(result.cell(0.0, 1000).network.scalars["d"].mean)
    assert abs(d_means[0] - d_means[1]) <= 0.5


def test_run_sweep_mean_k_identity(table_30k):
    spec = SweepSpec(alphas=(0.5,), snapshot_nodes=(200,), realizations=6,
                     master_seed=21, max_even_cap=30_000)
    cell = run_sweep(spec).cell(0.5, 200)
    scalars = cell.network.scalars
    ratio = 2 * scalars["n_edges"].mean / scalars["n_nodes"].mean
    assert scalars["mean_k"].mean == pytest.approx(ratio, rel=0.02)


def test_baseline_matches_snapshot_sizes(table_30k):
    spec = SweepSpec(alphas=(0.0,), snapshot_nodes=(150,), realizations=4,
                     master_seed=5, max_even_cap=30_000)
    cell = run_sweep(spec).cell(0.0, 150)
    for field in ("n_nodes", "n_edges", "mean_k"):
        assert cell.baseline.scalars[field].mean == pytest.approx(
            cell.network.scalars[field].mean, abs=1e-9
        )


def test_growth_curves_shape_and_determinism():
    a, = growth_curves((1.0,), 2_000, realizations=4, master_seed=9)
    b, = growth_curves((1.0,), 2_000, realizations=4, master_seed=9)
    assert a.n_mean.size == a.n_std.size == (2_000 - 8) // 2 + 1
    assert np.array_equal(a.n_mean, b.n_mean)
    assert np.array_equal(a.n_std, b.n_std)
    assert (np.diff(a.n_mean) >= 0).all()
    single, = growth_curves((1.0,), 500, realizations=1, master_seed=9)
    assert (single.n_std == 0).all()


@pytest.mark.parametrize("alphas, realizations, master_seed, message", [
    ((), 1, 9, "^alphas must be nonempty$"),
    ((0.0, math.nan), 1, 9, "^alpha must not be NaN$"),
    ((0.0, 1e308), 1, 9, ALPHA_TOO_LARGE),
    ((0.0, -1e308), 1, 9, ALPHA_TOO_LARGE),
    ((1.0,), 0, 9, "^realizations must be >= 1$"),
    ((1.0,), 1, -1, "^master_seed must fit in 64 unsigned bits$"),
    ((1.0,), 1, 2**64, "^master_seed must fit in 64 unsigned bits$"),
])
def test_growth_curves_and_sweep_spec_reject_bad_rows_alike(
        alphas, realizations, master_seed, message):
    with pytest.raises(ValueError, match=message) as growth_err:
        growth_curves(alphas, 500, realizations=realizations, master_seed=master_seed)
    with pytest.raises(ValueError, match=message) as spec_err:
        SweepSpec(alphas=alphas, snapshot_nodes=(10,), realizations=realizations,
                  master_seed=master_seed)
    assert str(growth_err.value) == str(spec_err.value)


def test_growth_curves_of_many_alphas_equal_single_alpha_calls():
    alphas = (math.inf, 2.0, 0.0, -1.3, -math.inf)
    curves = growth_curves(alphas, 6_000, realizations=3, master_seed=4)
    assert [c.alpha for c in curves] == list(alphas)
    for c in curves:
        alone, = growth_curves((c.alpha,), 6_000, realizations=3, master_seed=4)
        assert c.n_mean.size == (6_000 - 8) // 2 + 1  # one entry per M
        for name in ("n_mean", "n_std"):
            x, y = getattr(c, name), getattr(alone, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (c.alpha, name)
    # the rows differ between alphas, so a mixed-up row would show
    assert len({c.n_mean.tobytes() for c in curves}) == len(alphas)


def test_spec_validation():
    with pytest.raises(ValueError):
        SweepSpec(alphas=(), snapshot_nodes=(10,))
    with pytest.raises(ValueError):
        SweepSpec(alphas=(0.0,), snapshot_nodes=())
    with pytest.raises(ValueError):
        SweepSpec(alphas=(0.0,), snapshot_nodes=(10, 10))
    with pytest.raises(ValueError):
        SweepSpec(alphas=(0.0,), snapshot_nodes=(10,), realizations=0)
    with pytest.raises(ValueError):
        SweepSpec(alphas=(float("nan"),), snapshot_nodes=(10,))
    for alpha in (1e308, -1e308, 2.9e306):
        with pytest.raises(ValueError, match=ALPHA_TOO_LARGE):
            SweepSpec(alphas=(0.0, alpha), snapshot_nodes=(10,))
    huge = (-math.inf, -2.8e306, 2.8e306, math.inf)
    assert SweepSpec(alphas=huge, snapshot_nodes=(10,)).alphas == huge
    for snaps in ((0, 50), (1,), (-5, 10)):
        with pytest.raises(ValueError, match="^target_nodes must be >= 2"):
            SweepSpec(alphas=(0.0,), snapshot_nodes=snaps)
    assert SweepSpec(alphas=(0.0,), snapshot_nodes=(2, 50)).snapshot_nodes == (2, 50)
    for cap in (1001, 7, 0):
        with pytest.raises(ValueError, match=f"^max_even_cap must be even and >= 8, "
                                             f"got {cap}$"):
            SweepSpec(alphas=(0.0,), snapshot_nodes=(10,), max_even_cap=cap)
    for fractional in ({"snapshot_nodes": (250.7,)}, {"snapshot_nodes": (10, 250.0)},
                       {"snapshot_nodes": (10,), "max_even_cap": 20_000.0}):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            SweepSpec(alphas=(0.0,), **fractional)


def test_spec_rejects_unknown_clustering():
    # caught at construction, not after the whole build stage of run_sweep
    with pytest.raises(ValueError, match="papre"):
        SweepSpec(alphas=(0.0,), snapshot_nodes=(10,), clustering="papre")
    assert SweepSpec(alphas=(0.0,), snapshot_nodes=(10,),
                     clustering="paper").clustering == "paper"


def test_spec_stores_the_ints_it_checked():
    # numpy integers give the plain-int spec's sweep.json bytes, not a
    # TypeError from json.dumps after the whole run
    plain = SweepSpec(alphas=(0.0,), snapshot_nodes=(50,), realizations=2,
                      master_seed=3, max_even_cap=20_000)
    numpy_ints = SweepSpec(alphas=(np.float64(0.0),), snapshot_nodes=(np.int64(50),),
                           realizations=np.int64(2), master_seed=np.int64(3),
                           max_even_cap=np.int64(20_000))
    docs = [json.dumps(run_sweep(spec).to_json_dict(), indent=2, sort_keys=True)
            for spec in (plain, numpy_ints)]
    assert docs[1] == docs[0]
    assert [type(getattr(numpy_ints, name)) for name in (
        "realizations", "master_seed", "max_even_cap")] == [int, int, int]
    # the seeds of master seed 1 are run, so 1 is recorded
    spec = SweepSpec(alphas=(0.0,), snapshot_nodes=(50,), master_seed=1.5)
    assert spec.master_seed == 1 and type(spec.master_seed) is int
    # a fractional realization count or bound is refused at construction,
    # before any work
    with pytest.raises(TypeError):
        SweepSpec(alphas=(0.0,), snapshot_nodes=(50,), realizations=2.5)
    with pytest.raises(TypeError):
        growth_curves((0.0,), 500, realizations=2.5, master_seed=1)
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        growth_curves([0.0], 200.7, 2, 1)


def test_json_document_roundtrip():
    import json

    spec = SweepSpec(alphas=(0.0, float("inf")), snapshot_nodes=(30,),
                     realizations=2, master_seed=1, max_even_cap=10_000)
    doc = run_sweep(spec).to_json_dict()
    text = json.dumps(doc, sort_keys=True)
    parsed = json.loads(text)
    assert parsed["alphas"] == ["0.0", "inf"]
    assert parsed["seed_rule"] == SEED_RULE
    assert parsed["realizations"] == 2
    assert parsed["cells"][0]["network"]["scalars"]["d"]["count"] == 2
