"""Output checks for one benchmark invocation.

Each check returns a list of problems; an empty list means the invocation
produced correct output. At every seed the manifest must match the files
on disk and the workload's invariants must hold. At the default seed every
artifact digest must also equal the reference pinned in
``reference_digests.json``, so an optimisation that moves any output byte
fails the benchmark.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

from workloads import (BUILD_ALPHA, BUILD_TARGET_NODES, DEFAULT_SEED,
                       GROWTH_ALPHAS, GROWTH_MAX_EVEN, SWEEP_ALPHAS,
                       SWEEP_REALIZATIONS, SWEEP_SNAPSHOTS)

REFERENCE_PATH = Path(__file__).resolve().parent / "reference_digests.json"

SUM_TOLERANCE = 1e-9


def reference_digests():
    return json.loads(REFERENCE_PATH.read_text())


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _sieve(limit):
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


def check_manifest(out_dir, argv, seed, expected_paths, reference=None):
    """The manifest lists exactly the expected artifacts, with true digests."""
    out_dir = Path(out_dir)
    manifest = json.loads((out_dir / "manifest.json").read_text())
    problems = []
    if manifest.get("command") != ["goldbachnet"] + list(argv):
        problems.append(f"manifest command {manifest.get('command')} is not the invocation")
    if manifest.get("master_seed") != seed:
        problems.append(f"manifest master_seed {manifest.get('master_seed')} != {seed}")
    listed = {a["path"]: a for a in manifest.get("artifacts", [])}
    if sorted(listed) != sorted(expected_paths):
        problems.append(f"artifacts {sorted(listed)} != {sorted(expected_paths)}")
    for rel, entry in sorted(listed.items()):
        path = out_dir / rel
        if not path.is_file():
            problems.append(f"{rel}: missing")
            continue
        digest = _sha256(path)
        if digest != entry["sha256"] or path.stat().st_size != entry["bytes"]:
            problems.append(f"{rel}: digest or size differs from the manifest")
        if reference is not None and reference.get(rel) != digest:
            problems.append(f"{rel}: digest {digest} != pinned {reference.get(rel)}")
    return problems


def _distribution_sum(dist, n_realizations):
    # absent bins count as zero, as figures.py averages them
    return sum(b["mean"] * b["count"] for b in dist.values()) / n_realizations


def check_sweep(out_dir, alphas=SWEEP_ALPHAS, snapshots=SWEEP_SNAPSHOTS,
                realizations=SWEEP_REALIZATIONS):
    out_dir = Path(out_dir)
    doc = json.loads((out_dir / "sweep.json").read_text())
    problems = []
    cells = doc["cells"]
    if len(cells) != len(alphas) * len(snapshots):
        problems.append(f"{len(cells)} cells, expected {len(alphas) * len(snapshots)}")
    n_scalars = 0
    for cell in cells:
        tag = f"cell alpha={cell['alpha']} N={cell['snapshot']}"
        if cell["n_realizations"] != realizations:
            problems.append(f"{tag}: {cell['n_realizations']} realizations")
            continue
        net, base = cell["network"], cell["baseline"]
        n_scalars += len(net["scalars"]) + len(base["scalars"])
        for field in ("n_edges", "n_nodes"):
            if net["scalars"][field] != base["scalars"][field]:
                problems.append(f"{tag}: baseline {field} differs from the network")
        if net["scalars"]["n_nodes"]["mean"] < cell["snapshot"]:
            problems.append(f"{tag}: fewer nodes than the snapshot")
        for side, agg in (("network", net), ("baseline", base)):
            for name in ("p_of_j", "P_of_k"):
                total = _distribution_sum(agg["distributions"][name], realizations)
                if abs(total - 1.0) > SUM_TOLERANCE:
                    problems.append(f"{tag}: {side} {name} sums to {total!r}")
    header, rows = _read_csv(out_dir / "cells.csv")
    if header != ["alpha", "snapshot", "side", "field", "mean", "std", "count"]:
        problems.append(f"cells.csv header {header}")
    if len(rows) != n_scalars:
        problems.append(f"cells.csv has {len(rows)} rows, sweep.json {n_scalars} scalars")
    m_rows = {}
    for row in rows:
        if row[3] == "n_edges":
            m_rows.setdefault((row[0], row[1]), {})[row[2]] = row[4:]
    for key, sides in m_rows.items():
        if sides.get("network") != sides.get("baseline"):
            problems.append(f"cells.csv {key}: baseline M differs from the network M")
    return problems


def check_growth(out_dir, alphas=GROWTH_ALPHAS, max_even=GROWTH_MAX_EVEN):
    header, rows = _read_csv(Path(out_dir) / "fig6" / "N_vs_M.csv")
    problems = []
    expected = ["M"]
    for a in alphas:
        expected += [f"N_mean[alpha={a:g}]", f"N_std[alpha={a:g}]"]
    if header != expected:
        return [f"N_vs_M.csv header {header}"]
    n_links = (max_even - 8) // 2 + 1  # one link per even number 8..max_even
    if [int(r[0]) for r in rows] != list(range(1, n_links + 1)):
        problems.append("N_vs_M.csv: M is not 1, 2, ... one row per even number")
    for col in range(1, len(header), 2):
        means = [float(r[col]) for r in rows]
        stds = [float(r[col + 1]) for r in rows]
        if means[:1] != [2.0]:
            problems.append(f"{header[col]}: the first link does not make 2 nodes")
        if any(not 0 <= b - a <= 2 for a, b in zip(means, means[1:])):
            problems.append(f"{header[col]}: one link adds fewer than 0 or more than 2 nodes")
        if any(not s >= 0 for s in stds):
            problems.append(f"{header[col + 1]}: negative or NaN std")
    return problems


def check_build(out_dir, alpha=BUILD_ALPHA, target_nodes=BUILD_TARGET_NODES,
                seed=DEFAULT_SEED):
    out_dir = Path(out_dir)
    lines = (out_dir / "edges" / "graph.txt").read_text(encoding="utf-8").splitlines()
    problems = []
    head = dict(field.split("=", 1) for field in lines[0].split()[2:])
    edges = [tuple(int(x) for x in line.split()) for line in lines[1:]]
    m = len(edges)
    sieve = _sieve(max((n for _, _, n in edges), default=2))
    for p, q, n in edges:
        if p + q != n or not p < q or not (sieve[p] and sieve[q]):
            problems.append(f"edge {p} {q} {n}: not a prime pair p < q with p + q = n")
            break
    if [n for _, _, n in edges] != list(range(8, 8 + 2 * m, 2)):
        problems.append("edges are not one per even number 8, 10, 12, ...")
    nodes = len({x for p, q, _ in edges for x in (p, q)})
    if head != {"alpha": repr(float(alpha)), "seed": str(seed), "M": str(m),
                "N": str(nodes)}:
        problems.append(f"edge list header {lines[0]!r} does not match its edges")
    if not target_nodes <= nodes <= target_nodes + 1:
        problems.append(f"N={nodes} overshoots the target {target_nodes}")
    report = json.loads((out_dir / "report.json").read_text())
    if (report["n_nodes"], report["n_edges"]) != (nodes, m):
        problems.append(f"report N, M = {report['n_nodes']}, {report['n_edges']}; "
                        f"edge list has {nodes}, {m}")
    for name in ("p_of_j", "P_of_k"):
        total = sum(report[name].values())
        _, rows = _read_csv(out_dir / "distributions" / f"{name}.csv")
        csv_total = sum(float(r[1]) for r in rows)
        for where, value in (("report.json", total), (f"{name}.csv", csv_total)):
            if abs(value - 1.0) > SUM_TOLERANCE:
                problems.append(f"{where}: {name} sums to {value!r}")
    return problems


ARTIFACTS = {
    "grid_sweep": ("sweep.json", "cells.csv"),
    "growth": ("fig6/N_vs_M.csv",),
    "build_one": ("edges/graph.txt", "report.json", "distributions/C_by_degree.csv",
                  "distributions/P_of_k.csv", "distributions/p_of_j.csv"),
}


def check_invocation(workload, out_dir, argv, seed, reference=None, **sizes):
    """All problems with one invocation's output; [] when it is correct.

    ``reference`` maps artifact -> pinned digest, by default the pinned
    digests of ``workload``, and applies at the default seed only.
    ``sizes`` override the workload's sizes in its invariant check.
    """
    pinned = None
    if seed == DEFAULT_SEED:
        pinned = reference if reference is not None else reference_digests()[workload]
    try:
        problems = check_manifest(out_dir, argv, seed, ARTIFACTS[workload], pinned)
        if workload == "grid_sweep":
            problems += check_sweep(out_dir, **sizes)
        elif workload == "growth":
            problems += check_growth(out_dir, **sizes)
        else:
            problems += check_build(out_dir, seed=seed, **sizes)
    except (OSError, ValueError, KeyError, IndexError, TypeError,
            AttributeError) as exc:
        problems = [f"unreadable output: {exc!r}"]
    return problems
