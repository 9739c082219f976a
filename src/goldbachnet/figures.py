"""Preset study datasets 1-10 and their CSV-ready tables.

Each preset reproduces one standard view of the model at its conventional
defaults (20 realizations, node checkpoints as listed below) and returns
plain tables; the command-line layer writes them out as CSV.

    1   mean shortest distance d vs node count N, one column per alpha,
        plus the matched-null d' table
    2   distance distribution p(j) per alpha at N=5000
    3   d vs alpha, one column per N
    4   clustering C vs N per alpha, plus the matched-null C' table
    5   degree distribution P(k) per alpha at N=5000
    6   growth: node count N vs link count M per alpha
    7   mean degree and degree spread vs alpha at N=5000
    8   max degree and mean degree vs N per alpha
    9   degree-resolved clustering C(k) per alpha at N=5000
    10  degree correlation r vs alpha at N=5000

Probability distributions (presets 2 and 5) are averaged with absent bins
counted as zero, so every column still sums to one; C(k) bins (preset 9)
are averaged only over the realizations that contain the bin, because an
absent bin there means no data rather than zero clustering.
"""

from dataclasses import dataclass

import numpy as np

from .ensemble import SweepSpec, growth_curves, run_sweep

DEFAULT_MAX_EVEN_CAP = 1_000_000

FIGURE_DEFAULTS = {
    1: {"alphas": (2.0, 1.0, 0.0, -1.0, -1.8, -2.5),
        "snapshots": (250, 500, 1000, 2000, 4000)},
    2: {"alphas": (2.0, 0.0, -1.0, -2.0, -2.5), "snapshots": (5000,)},
    3: {"alphas": (-2.5, -2.1, -1.8, -1.4, -1.0, -0.5, 0.0, 1.0, 2.0),
        "snapshots": (1000, 2000, 4000)},
    4: {"alphas": (2.0, 1.0, 0.0, -1.0, -1.8, -2.5),
        "snapshots": (250, 500, 1000, 2000, 4000)},
    5: {"alphas": (2.0, -0.1, -0.5, -2.0), "snapshots": (5000,)},
    6: {"alphas": (2.0, 1.0, 0.0, -1.0, -2.0), "max_even": 20_000},
    7: {"alphas": (-2.5, -2.1, -1.8, -1.4, -1.0, -0.5, 0.0, 1.0, 2.0),
        "snapshots": (5000,)},
    8: {"alphas": (2.0, 0.0, -2.5), "snapshots": (250, 500, 1000, 2000, 4000)},
    9: {"alphas": (-1.0, 0.0, 1.0, 2.0), "snapshots": (5000,)},
    10: {"alphas": (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0),
         "snapshots": (5000,)},
}


@dataclass
class Table:
    """One CSV-ready table: header names plus rows of cells."""

    header: list
    rows: list


def alpha_label(alpha):
    return f"{float(alpha):g}"


def _scalar_vs_snapshot(result, field, side="network"):
    """Rows of (N, mean/std per alpha) for one scalar field."""
    spec = result.spec
    header = ["N"]
    for a in spec.alphas:
        lbl = alpha_label(a)
        header += [f"{field}_mean[alpha={lbl}]", f"{field}_std[alpha={lbl}]"]
    rows = []
    for snap in spec.snapshot_nodes:
        row = [snap]
        for a in spec.alphas:
            cell = result.cell(a, snap)
            agg = getattr(cell, side)
            if agg is None:
                row += [None, None]
            else:
                st = agg.scalars[field]
                row += [st.mean, st.std]
        rows.append(row)
    return Table(header, rows)


def _scalar_vs_alpha(result, fields, snap=None):
    """Rows of (alpha, mean/std per field) at one snapshot, or per N."""
    spec = result.spec
    snaps = [snap] if snap is not None else list(spec.snapshot_nodes)
    header = ["alpha"]
    for field in fields:
        for s in snaps:
            tag = f"[N={s}]" if len(snaps) > 1 else ""
            header += [f"{field}_mean{tag}", f"{field}_std{tag}"]
    rows = []
    for a in spec.alphas:
        row = [alpha_label(a)]
        for field in fields:
            for s in snaps:
                agg = result.cell(a, s).network
                if agg is None:
                    row += [None, None]
                else:
                    st = agg.scalars[field]
                    row += [st.mean, st.std]
        rows.append(row)
    return Table(header, rows)


def _distribution_table(result, name, snap, x_name, zero_fill):
    """Per-alpha columns of one distribution over the union of bins, each
    mean followed by its bin's occupancy count unless ``zero_fill``."""
    spec = result.spec
    with_counts = not zero_fill
    bins = set()
    for a in spec.alphas:
        cell = result.cell(a, snap)
        if cell.network is not None:
            bins.update(cell.network.distributions[name])
    header = [x_name]
    for a in spec.alphas:
        lbl = alpha_label(a)
        header.append(f"{name}_mean[alpha={lbl}]")
        if with_counts:
            header.append(f"{name}_count[alpha={lbl}]")
    rows = []
    for b in sorted(bins):
        row = [b]
        for a in spec.alphas:
            cell = result.cell(a, snap)
            if cell.network is None:
                row.append(None)
                if with_counts:
                    row.append(0)
                continue
            stat = cell.network.distributions[name].get(b)
            if stat is None:
                row.append(0.0 if zero_fill else None)
                if with_counts:
                    row.append(0)
            else:
                value = stat.mean
                if zero_fill:
                    # absent bins count as probability zero in those runs
                    value = stat.mean * stat.count / cell.n_realizations
                row.append(value)
                if with_counts:
                    row.append(stat.count)
        rows.append(row)
    return Table(header, rows)


def _growth_table(alphas, max_even, realizations, master_seed, workers):
    curves = growth_curves(alphas, max_even, realizations, master_seed, workers)
    header = ["M"]
    for a in alphas:
        lbl = alpha_label(a)
        header += [f"N_mean[alpha={lbl}]", f"N_std[alpha={lbl}]"]
    cols = np.column_stack([x for c in curves for x in (c.n_mean, c.n_std)]).tolist()
    return Table(header, [[m, *row] for m, row in zip(curves[0].m.tolist(), cols)])


def figure_tables(figure_id, *, alphas=None, snapshots=None, realizations=None,
                  master_seed=1, max_even=None, max_even_cap=DEFAULT_MAX_EVEN_CAP,
                  clustering="standard", workers=1):
    """Tables for one preset, keyed by file stem.

    Any of alphas / snapshots / realizations / max_even overrides the
    preset default; the rest keep their conventional values.
    """
    figure_id = int(figure_id)
    if figure_id not in FIGURE_DEFAULTS:
        raise ValueError(f"figure id must be in 1..10, got {figure_id}")
    preset = FIGURE_DEFAULTS[figure_id]
    alphas = tuple(float(a) for a in (alphas or preset["alphas"]))
    realizations = int(realizations) if realizations is not None else 20

    if figure_id == 6:
        max_even = int(max_even) if max_even is not None else preset["max_even"]
        return {"N_vs_M": _growth_table(alphas, max_even, realizations, master_seed,
                                        workers)}

    snapshots = tuple(int(s) for s in (snapshots or preset["snapshots"]))
    spec = SweepSpec(
        alphas=alphas,
        snapshot_nodes=snapshots,
        realizations=realizations,
        master_seed=master_seed,
        max_even_cap=max_even_cap,
        clustering=clustering,
    )
    result = run_sweep(spec, workers=workers)
    snap = snapshots[-1]

    if figure_id == 1:
        return {
            "d_vs_N": _scalar_vs_snapshot(result, "d"),
            "dprime_vs_N": _scalar_vs_snapshot(result, "d", side="baseline"),
        }
    if figure_id == 2:
        return {"p_of_j": _distribution_table(result, "p_of_j", snap, "j",
                                              zero_fill=True)}
    if figure_id == 3:
        return {"d_vs_alpha": _scalar_vs_alpha(result, ["d"])}
    if figure_id == 4:
        return {
            "C_vs_N": _scalar_vs_snapshot(result, "C"),
            "Cprime_vs_N": _scalar_vs_snapshot(result, "C", side="baseline"),
        }
    if figure_id == 5:
        return {"P_of_k": _distribution_table(result, "P_of_k", snap, "k",
                                              zero_fill=True)}
    if figure_id == 7:
        return {"k_stats_vs_alpha": _scalar_vs_alpha(result, ["mean_k", "f_k"],
                                                     snap=snap)}
    if figure_id == 8:
        return {
            "kmax_vs_N": _scalar_vs_snapshot(result, "k_max"),
            "kmean_vs_N": _scalar_vs_snapshot(result, "mean_k"),
        }
    if figure_id == 9:
        return {"C_of_k": _distribution_table(result, "C_by_degree", snap, "k",
                                              zero_fill=False)}
    # figure 10
    return {"r_vs_alpha": _scalar_vs_alpha(result, ["r"], snap=snap)}
