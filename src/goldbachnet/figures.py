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

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .ensemble import (DEFAULT_MAX_EVEN_CAP, SweepSpec, _failed_run, growth_curves,
                       run_sweep)
from .metrics import DISTRIBUTIONS

_N_LADDER = (250, 500, 1000, 2000, 4000)
_ALPHA_GRID = (-2.5, -2.1, -1.8, -1.4, -1.0, -0.5, 0.0, 1.0, 2.0)

# Each preset's tables map a file stem to (kind, *arguments) of _TABLE_KINDS:
#   "vs_N" (field, side): a row per snapshot N, mean and std per alpha;
#   "vs_alpha" (fields, last N only): a row per alpha, mean and std per field;
#   "distribution" (name, zero_fill): a row per bin at the last N.
FIGURE_DEFAULTS = {
    1: {"alphas": (2.0, 1.0, 0.0, -1.0, -1.8, -2.5), "snapshots": _N_LADDER,
        "tables": {"d_vs_N": ("vs_N", "d", "network"),
                   "dprime_vs_N": ("vs_N", "d", "baseline")}},
    2: {"alphas": (2.0, 0.0, -1.0, -2.0, -2.5), "snapshots": (5000,),
        "tables": {"p_of_j": ("distribution", "p_of_j", True)}},
    3: {"alphas": _ALPHA_GRID, "snapshots": (1000, 2000, 4000),
        "tables": {"d_vs_alpha": ("vs_alpha", ("d",), False)}},
    4: {"alphas": (2.0, 1.0, 0.0, -1.0, -1.8, -2.5), "snapshots": _N_LADDER,
        "tables": {"C_vs_N": ("vs_N", "C", "network"),
                   "Cprime_vs_N": ("vs_N", "C", "baseline")}},
    5: {"alphas": (2.0, -0.1, -0.5, -2.0), "snapshots": (5000,),
        "tables": {"P_of_k": ("distribution", "P_of_k", True)}},
    6: {"alphas": (2.0, 1.0, 0.0, -1.0, -2.0), "max_even": 20_000},
    7: {"alphas": _ALPHA_GRID, "snapshots": (5000,),
        "tables": {"k_stats_vs_alpha": ("vs_alpha", ("mean_k", "f_k"), True)}},
    8: {"alphas": (2.0, 0.0, -2.5), "snapshots": _N_LADDER,
        "tables": {"kmax_vs_N": ("vs_N", "k_max", "network"),
                   "kmean_vs_N": ("vs_N", "mean_k", "network")}},
    9: {"alphas": (-1.0, 0.0, 1.0, 2.0), "snapshots": (5000,),
        "tables": {"C_of_k": ("distribution", "C_by_degree", False)}},
    10: {"alphas": (-2.0, -1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5, 2.0),
         "snapshots": (5000,), "tables": {"r_vs_alpha": ("vs_alpha", ("r",), True)}},
}


@dataclass
class Table:
    """One CSV-ready table: header names plus rows of cells, each a list of
    Python int, float, str or None. ``rows`` is a list, except for preset 6,
    whose rows are a read-only sequence built from the growth curves on
    access."""

    header: list
    rows: Sequence


class _GrowthRows(Sequence):
    """Figure 6's rows: M, then the mean and std of N per alpha. Each row is
    built on access, a block of rows at a time when iterated, from the
    curves' arrays, so the table holds no Python object per cell."""

    _BLOCK = 1024

    def __init__(self, curves):
        self._columns = [x for c in curves for x in (c.n_mean, c.n_std)]

    def __len__(self):
        return len(self._columns[0])

    def _rows(self, start, stop):
        cols = np.column_stack([x[start:stop] for x in self._columns]).tolist()
        return [[m, *row] for m, row in enumerate(cols, start + 1)]

    def __getitem__(self, index):
        i = range(len(self))[operator.index(index)]  # IndexError out of range
        return self._rows(i, i + 1)[0]

    def __iter__(self):
        for start in range(0, len(self), self._BLOCK):
            yield from self._rows(start, start + self._BLOCK)

    def __eq__(self, other):
        return (isinstance(other, Sequence) and len(self) == len(other)
                and all(a == b for a, b in zip(self, other)))


def alpha_label(alpha):
    """``alpha`` as ``:g`` text where that reads back as ``alpha``, else its repr."""
    text = f"{float(alpha):g}"
    return text if float(text) == alpha else repr(float(alpha))


def _alpha_columns(first, name, stats, alphas):
    """Header: ``first``, then one ``name_stat[alpha=...]`` per alpha and stat."""
    return [first] + [f"{name}_{stat}[alpha={alpha_label(a)}]"
                      for a in alphas for stat in stats]


def _mean_std(result, alpha, snap, field, side="network"):
    """(mean, std) of one scalar in one cell, or (None, None) if it is empty."""
    agg = getattr(result.cell(alpha, snap), side)
    if agg is None:
        return None, None
    st = agg.scalars[field]
    return st.mean, st.std


def _vs_n(result, field, side):
    """Rows of (N, mean/std per alpha) for one scalar field."""
    spec = result.spec
    header = _alpha_columns("N", field, ("mean", "std"), spec.alphas)
    rows = []
    for snap in spec.snapshot_nodes:
        row = [snap]
        for a in spec.alphas:
            row += _mean_std(result, a, snap, field, side)
        rows.append(row)
    return Table(header, rows)


def _vs_alpha(result, fields, last_only):
    """Rows of (alpha, mean/std per field and N), at the last N only if
    ``last_only``; columns carry an [N=...] tag when there are several."""
    spec = result.spec
    snaps = spec.snapshot_nodes[-1:] if last_only else spec.snapshot_nodes
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
                row += _mean_std(result, a, s, field)
        rows.append(row)
    return Table(header, rows)


def _distribution(result, name, zero_fill):
    """Per-alpha columns of one distribution at the last snapshot, over the
    union of bins, each mean followed by its bin's occupancy count unless
    ``zero_fill``."""
    spec = result.spec
    cells = [result.cell(a, spec.snapshot_nodes[-1]) for a in spec.alphas]
    bins = set().union(*(c.network.distributions[name] for c in cells if c.network))
    stats = ("mean",) if zero_fill else ("mean", "count")
    header = _alpha_columns(DISTRIBUTIONS[name], name, stats, spec.alphas)
    rows = []
    for b in sorted(bins):
        row = [b]
        for cell in cells:
            stat = cell.network.distributions[name].get(b) if cell.network else None
            if not zero_fill:
                row += [None, 0] if stat is None else [stat.mean, stat.count]
            elif cell.network is None:
                row.append(None)
            else:
                # absent bins count as probability zero in those runs
                row.append(0.0 if stat is None
                           else stat.mean * stat.count / cell.n_realizations)
        rows.append(row)
    return Table(header, rows)


_TABLE_KINDS = {"vs_N": _vs_n, "vs_alpha": _vs_alpha, "distribution": _distribution}


def figure_tables(figure_id, *, alphas=None, snapshots=None, realizations=None,
                  master_seed=1, max_even=None, max_even_cap=DEFAULT_MAX_EVEN_CAP,
                  clustering="standard", workers=1):
    """Tables for one preset, keyed by file stem.

    Any of alphas / snapshots / realizations / max_even overrides the
    preset default; the rest keep their conventional values. Preset 6
    reads ``max_even`` and no ``snapshots``, ``max_even_cap`` or
    ``clustering``, the others all but ``max_even``; a value other than
    the default for one a preset does not read raises ValueError.
    """
    figure_id = int(figure_id)
    if figure_id not in FIGURE_DEFAULTS:
        raise ValueError(f"figure id must be in 1..10, got {figure_id}")
    preset = FIGURE_DEFAULTS[figure_id]
    unread = ({"snapshots": (snapshots, None), "clustering": (clustering, "standard"),
               "max_even_cap": (max_even_cap, DEFAULT_MAX_EVEN_CAP)}
              if "max_even" in preset else {"max_even": (max_even, None)})
    for name, (value, default) in unread.items():
        if value != default:
            raise ValueError(f"figure {figure_id} does not read {name}")
    alphas = tuple(float(a) for a in (preset["alphas"] if alphas is None else alphas))
    realizations = SweepSpec.realizations if realizations is None else realizations

    if "max_even" in preset:
        max_even = preset["max_even"] if max_even is None else max_even
        curves = growth_curves(alphas, max_even, realizations, master_seed, workers)
        header = _alpha_columns("M", "N", ("mean", "std"), alphas)
        return {"N_vs_M": Table(header, _GrowthRows(curves))}

    spec = SweepSpec(
        alphas=alphas,
        snapshot_nodes=preset["snapshots"] if snapshots is None else snapshots,
        realizations=realizations,
        master_seed=master_seed,
        max_even_cap=max_even_cap,
        clustering=clustering,
    )
    result = run_sweep(spec, workers=workers)
    with _failed_run():
        return {stem: _TABLE_KINDS[kind](result, *args)
                for stem, (kind, *args) in preset["tables"].items()}
