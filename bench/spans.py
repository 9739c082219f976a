"""Span recorder for the traced benchmark run, and the per-layer metrics.

Spans are recorded from outside the program: ``install`` replaces each
public entry point listed in ``TARGETS`` by a timing wrapper, in every
``goldbachnet`` module that binds it (``from .metrics import
compute_report`` makes a second binding that a patch of ``metrics`` alone
would miss). ``uninstall`` puts every original back. Spans stay in memory
as tuples ``(id, parent, name, start, end, count)`` and are written out
once the invocation has finished.

``metrics.compute_report`` is composite. After each call the wrapper also
times the public ``shortest_distance_stats``, ``clustering``,
``degree_stats`` and ``assortativity`` on the same graph, as sibling spans,
so the traced run shows how the report's time splits.
"""

import importlib
import sys
import time

ROOT_PARENT = -1

# (module, attribute, count): count maps a call's result to the work items
# stored with its span
TARGETS = (
    ("cli", "main", None),
    ("figures", "figure_tables", None),
    ("ensemble", "run_sweep", None),
    ("ensemble", "growth_curves", None),
    ("ensemble", "aggregate", None),
    ("netbuild", "build_many", lambda graphs: sum(g.num_edges for g in graphs)),
    ("goldbach", "decompose", lambda decomp: decomp.omega),
    ("primes", "build_table", None),
    ("metrics", "compute_report", None),
    ("baseline", "sample_gnm", None),
)

METRIC_PARTS = ("shortest_distance_stats", "clustering", "degree_stats",
                "assortativity")


class Recorder:
    """Collects nested spans of one single-threaded invocation."""

    def __init__(self):
        self.spans = []
        self._stack = [ROOT_PARENT]
        self._next_id = 0

    def call(self, name, fn, args, kwargs, count=None):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        n = 0
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                n = int(count(result))
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end, n))


def _wrap(recorder, name, fn, count):
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, count)

    return wrapper


def _wrap_compute_report(recorder, fn, parts, undefined_error):
    def wrapper(*args, **kwargs):
        report = recorder.call("metrics.compute_report", fn, args, kwargs)
        graph = args[0]
        convention = (args[1] if len(args) > 1
                      else kwargs.get("clustering_convention", "standard"))
        for part in METRIC_PARTS:
            part_args = (graph, convention) if part == "clustering" else (graph,)
            try:
                recorder.call(f"metrics.{part}", parts[part], part_args, {})
            except undefined_error:
                pass  # degree-regular edge set: r is undefined, still timed
        return report

    return wrapper


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name == "goldbachnet" or name.startswith("goldbachnet.")]


def install(recorder):
    """Wrap every target in every goldbachnet module; return the patches."""
    for modname, _, _ in TARGETS:
        importlib.import_module(f"goldbachnet.{modname}")
    metrics = importlib.import_module("goldbachnet.metrics")
    errors = importlib.import_module("goldbachnet.errors")
    parts = {part: getattr(metrics, part) for part in METRIC_PARTS}
    modules = _package_modules()
    patches = []
    for modname, attr, count in TARGETS:
        original = getattr(importlib.import_module(f"goldbachnet.{modname}"), attr)
        if (modname, attr) == ("metrics", "compute_report"):
            wrapper = _wrap_compute_report(recorder, original, parts,
                                           errors.UndefinedAssortativity)
        else:
            wrapper = _wrap(recorder, f"{modname}.{attr}", original, count)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    patches.append((mod, key, original))
                    setattr(mod, key, wrapper)
    return patches


def uninstall(patches):
    for mod, key, original in reversed(patches):
        setattr(mod, key, original)


def _covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Map span id -> span time minus the time its child spans cover."""
    children = {}
    for sid, parent, _, start, end, _ in spans:
        children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - _covered(children.get(sid, ()), start, end)
        for sid, _, _, start, end, _ in spans
    }


def _cells(spans):
    """Busy time of each alpha cell of every single-process run_sweep.

    A cell starts with its build_many call and lasts until the next cell
    starts, the last one until run_sweep returns. The metric parts that
    only the traced run computes are not part of a cell's work.
    """
    part_names = {f"metrics.{part}" for part in METRIC_PARTS}
    parts = [(s, e) for _, _, n, s, e, _ in spans if n in part_names]
    cells = []
    for _, _, name, start, end, _ in spans:
        if name != "ensemble.run_sweep":
            continue
        starts = sorted(s for _, _, n, s, e, _ in spans
                        if n == "netbuild.build_many" and start <= s and e <= end)
        bounds = starts + [end]
        cells.extend(b - a - _covered(parts, a, b) for a, b in zip(bounds, bounds[1:]))
    return cells


def layer_metrics(spans, untraced_wall_s, untraced_parallel_wall_s, workers,
                  traced_wall_s, artifact_bytes):
    """Per-layer metrics of one traced invocation, as ``{name: (value, unit)}``."""
    own = self_times(spans)
    total = {}
    self_sum = {}
    calls = {}
    items = {}
    for sid, _, name, start, end, n in spans:
        total[name] = total.get(name, 0.0) + (end - start)
        self_sum[name] = self_sum.get(name, 0.0) + own[sid]
        calls[name] = calls.get(name, 0) + 1
        items[name] = items.get(name, 0) + n
    cells = _cells(spans)
    decompose_calls = calls.get("goldbach.decompose", 0)
    edges = items.get("netbuild.build_many", 0)
    return {
        "metrics.clustering_s": (total.get("metrics.clustering", 0.0), "s"),
        "metrics.distance_s": (total.get("metrics.shortest_distance_stats", 0.0), "s"),
        "metrics.degree_s": (total.get("metrics.degree_stats", 0.0), "s"),
        "metrics.assortativity_s": (total.get("metrics.assortativity", 0.0), "s"),
        "metrics.compute_report_s": (total.get("metrics.compute_report", 0.0), "s"),
        "metrics.graphs": (calls.get("metrics.compute_report", 0), "count"),
        "baseline.sample_gnm_s": (total.get("baseline.sample_gnm", 0.0), "s"),
        "baseline.graphs": (calls.get("baseline.sample_gnm", 0), "count"),
        "goldbach.decompose_s": (total.get("goldbach.decompose", 0.0), "s"),
        "goldbach.decompose_calls": (decompose_calls, "count"),
        "goldbach.pairs": (items.get("goldbach.decompose", 0), "count"),
        "netbuild.build_many_self_s": (self_sum.get("netbuild.build_many", 0.0), "s"),
        "netbuild.edges": (edges, "count"),
        "netbuild.edges_per_decompose": (
            edges / decompose_calls if decompose_calls else 0.0, "ratio"),
        "ensemble.self_s": (self_sum.get("ensemble.run_sweep", 0.0)
                            + self_sum.get("ensemble.growth_curves", 0.0), "s"),
        "ensemble.aggregate_s": (total.get("ensemble.aggregate", 0.0), "s"),
        "ensemble.cell_max_s": (max(cells, default=0.0), "s"),
        "ensemble.cell_mean_s": (sum(cells) / len(cells) if cells else 0.0, "s"),
        "ensemble.parallel_eff": (
            sum(cells) / (workers * untraced_parallel_wall_s) if cells else 0.0,
            "ratio"),
        "primes.build_table_s": (total.get("primes.build_table", 0.0), "s"),
        "figures.self_s": (self_sum.get("figures.figure_tables", 0.0), "s"),
        "cli.self_s": (self_sum.get("cli.main", 0.0), "s"),
        "cli.artifact_bytes": (artifact_bytes, "bytes"),
        "trace.overhead_s": (traced_wall_s - untraced_wall_s, "s"),
    }


def self_sum_problem(spans, traced_wall_s):
    """Why the self times fail to add up to the traced wall time, or None."""
    own = self_times(spans)
    if any(v < -1e-9 for v in own.values()):
        return "a span has negative self time"
    total = sum(own.values())
    if abs(total - traced_wall_s) > 0.005 + 0.01 * traced_wall_s:
        return f"self times sum to {total:.4f} s, traced wall is {traced_wall_s:.4f} s"
    return None
