"""Command-line front end.

Three subcommands: ``build`` constructs one network and reports its
statistics, ``sweep`` runs a seeded ensemble over an alpha grid, and
``figure`` emits the CSV dataset of one numbered preset. Every run writes
a manifest listing each artifact with its SHA-256 digest; identical
invocations with the same seed produce byte-identical artifacts.

Exit codes: 0 success; 2 for a flag refused before the sieve; 3 for an
unwritable output directory or anything after the sieve (an unreachable
node-count target, or any error in the run, as one "run failed" line).
"""

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np

from .errors import GoldbachNetError
from .ensemble import DEFAULT_MAX_EVEN_CAP, SweepSpec, _sieve_and_pool, run_sweep
from .figures import FIGURE_DEFAULTS, alpha_label, figure_tables
from .metrics import CLUSTERING_CONVENTIONS, DISTRIBUTIONS, compute_report
from .netbuild import _check_even_bound, build, check_run, check_seed


def _parse_alpha(text):
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}")


def _parse_alpha_list(text):
    return tuple(_parse_alpha(part) for part in text.split(",") if part)


def _parse_int_list(text):
    try:
        return tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def write_csv(path, header, rows):
    """Write ``rows`` under ``header``, a cell as its ``str`` and None as
    empty: cells are Python int, float (shortest round-trip repr), str or None."""
    with open(path, "w", encoding="utf-8") as fh:  # streamed: joined text set peak RSS
        fh.write(",".join(str(h) for h in header) + "\n")
        fh.writelines(",".join(["" if c is None else str(c) for c in row]) + "\n"
                      for row in rows)


def _write_json(path, doc):
    # streamed: joining the indented text first set a sweep's peak RSS
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sha256(path):
    import hashlib  # on use, so that importing the CLI loads no OpenSSL
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _manifest_config(args):
    """The parsed flags as the manifest records them, alphas as repr strings
    and without ``--workers``, which changes no output."""
    skip = ("handler", "subcommand", "workers")
    config = {key: value for key, value in vars(args).items() if key not in skip}
    if "alpha" in config:
        config["alpha"] = repr(config["alpha"])
    if config.get("alphas") is not None:
        config["alphas"] = [repr(a) for a in config["alphas"]]
    config["out"] = str(args.out)
    return config


def _check_out(out):
    """Raise unless ``out``'s nearest existing ancestor is a writable directory."""
    base = next(path for path in (out, *out.absolute().parents) if path.exists())
    if not (base.is_dir() and os.access(base, os.W_OK | os.X_OK)):
        raise OSError(f"--out {out}: {base} is not a writable directory")


def _write_manifest(args, argv, artifacts, started):
    doc = {
        "command": ["goldbachnet"] + list(argv),
        "config": _manifest_config(args),
        "master_seed": int(args.seed),
        "artifacts": [
            {
                "path": str(rel),
                "sha256": _sha256(args.out / rel),
                "bytes": (args.out / rel).stat().st_size,
            }
            for rel in sorted(artifacts)
        ],
        "duration_seconds": round(time.time() - started, 3),
        "versions": {"python": platform.python_version(), "numpy": np.__version__},
    }
    _write_json(args.out / "manifest.json", doc)


def _cmd_build(args):
    check_run(args.alpha, (args.max_even, args.target_nodes))  # before the sieve
    if args.max_even is not None and args.max_even_cap != DEFAULT_MAX_EVEN_CAP:
        raise ValueError("build with max_even does not read max_even_cap")
    _check_even_bound(args.max_even_cap, "max_even_cap")
    check_seed(args.seed)
    bound = args.max_even_cap if args.max_even is None else args.max_even
    with _sieve_and_pool(bound, 1) as (table, _):
        graph = build(table, args.alpha, args.seed, max_even=args.max_even,
                      target_nodes=args.target_nodes)
        report = compute_report(graph, args.clustering)

    (args.out / "edges").mkdir(parents=True, exist_ok=True)
    (args.out / "distributions").mkdir(exist_ok=True)
    artifacts = [Path("edges") / "graph.txt", Path("report.json")]
    graph.write_edge_list(args.out / artifacts[0])
    _write_json(args.out / artifacts[1],
                {"alpha": repr(graph.alpha), "seed": graph.seed, **report.to_dict()})
    for name, x_name in DISTRIBUTIONS.items():
        rel = Path("distributions") / f"{name}.csv"
        write_csv(args.out / rel, [x_name, name], sorted(getattr(report, name).items()))
        artifacts.append(rel)

    r_text = "undefined" if report.r is None else f"{report.r:.6g}"
    print(
        f"N={report.n_nodes} M={report.n_edges} d={report.d:.6g} "
        f"C={report.C:.6g} r={r_text}"
    )
    return artifacts


def _cmd_sweep(args):
    spec = SweepSpec(
        alphas=args.alphas,
        snapshot_nodes=args.snapshots,
        realizations=args.realizations,
        master_seed=args.seed,
        max_even_cap=args.max_even_cap,
        clustering=args.clustering,
    )
    result = run_sweep(spec, workers=args.workers)

    args.out.mkdir(parents=True, exist_ok=True)
    artifacts = [Path("sweep.json")]
    _write_json(args.out / "sweep.json", result.to_json_dict())
    if args.format == "csv":
        rows = []
        for cell in result.cells:
            for side in ("network", "baseline"):
                agg = getattr(cell, side)
                if agg is not None:
                    rows += [[alpha_label(cell.alpha), cell.snapshot, side, field,
                              st.mean, st.std, st.count]
                             for field, st in agg.scalars.items()]
        header = ["alpha", "snapshot", "side", "field", "mean", "std", "count"]
        write_csv(args.out / "cells.csv", header, rows)
        artifacts.append(Path("cells.csv"))

    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"cells={len(result.cells)} warnings={len(result.warnings)}")
    return artifacts


def _cmd_figure(args):
    tables = figure_tables(
        args.figure,
        alphas=args.alphas,
        snapshots=args.snapshots,
        realizations=args.realizations,
        master_seed=args.seed,
        max_even=args.max_even,
        max_even_cap=args.max_even_cap,
        clustering=args.clustering,
        workers=args.workers,
    )
    fig_dir = Path(f"fig{args.figure}")
    (args.out / fig_dir).mkdir(parents=True, exist_ok=True)
    artifacts = []
    for stem, table in sorted(tables.items()):
        artifacts.append(fig_dir / f"{stem}.csv")
        write_csv(args.out / artifacts[-1], table.header, table.rows)
    print(f"fig{args.figure}: " + ", ".join(sorted(tables)))
    return artifacts


def _add_common(parser):
    parser.add_argument("--seed", type=int, default=1,
                        help="master seed (default 1)")
    parser.add_argument("--out", type=Path, default="out", help="output directory")
    parser.add_argument("--clustering", choices=CLUSTERING_CONVENTIONS,
                        default="standard",
                        help="neighbor-pair denominator: k(k-1)/2 or k(k+1)/2")
    parser.add_argument("--max-even-cap", type=int, default=DEFAULT_MAX_EVEN_CAP,
                        help="sieve bound: the largest even number a "
                             "node-count build or a sweep consumes")


def make_parser():
    parser = argparse.ArgumentParser(
        prog="goldbachnet",
        description="Prime-pair networks: build, measure, sweep, export.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_build = sub.add_parser("build", help="build one network and report it")
    p_build.add_argument("--alpha", type=_parse_alpha, required=True,
                         help="spread exponent (float, +inf or -inf)")
    p_build.add_argument("--max-even", type=int)
    p_build.add_argument("--target-nodes", type=int)
    _add_common(p_build)
    p_build.set_defaults(handler=_cmd_build)

    p_sweep = sub.add_parser("sweep", help="seeded ensemble over an alpha grid")
    p_sweep.add_argument("--alphas", type=_parse_alpha_list, required=True,
                         help="comma-separated alphas, e.g. 0,-1.8,+inf")
    p_sweep.add_argument("--snapshots", type=_parse_int_list, required=True,
                         help="comma-separated node-count checkpoints")
    p_sweep.add_argument("--realizations", type=int, default=SweepSpec.realizations)
    p_sweep.add_argument("--format", choices=["json", "csv"], default="json")
    p_sweep.add_argument("--workers", type=int, default=1)
    _add_common(p_sweep)
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_fig = sub.add_parser("figure", help="emit the dataset of one preset (1-10)")
    p_fig.add_argument("figure", type=int, choices=FIGURE_DEFAULTS,
                       metavar="figure_id")
    p_fig.add_argument("--alphas", type=_parse_alpha_list)
    p_fig.add_argument("--snapshots", type=_parse_int_list, help="all presets but 6")
    p_fig.add_argument("--realizations", type=int)
    p_fig.add_argument("--max-even", type=int,
                       help="growth preset only: evens consumed per build")
    p_fig.add_argument("--workers", type=int, default=1)
    _add_common(p_fig)
    p_fig.set_defaults(handler=_cmd_figure)
    return parser


_NEGATIVE_VALUE_FLAGS = ("--alpha", "--alphas")


def _merge_negative_values(argv):
    """Rewrite ["--alpha", "-inf"] as ["--alpha=-inf"].

    argparse would otherwise read a leading "-" value as an option name.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if (tok in _NEGATIVE_VALUE_FLAGS and i + 1 < len(argv)
                and argv[i + 1].startswith("-")):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = make_parser()
    args = parser.parse_args(_merge_negative_values(argv))
    started = time.time()
    try:
        _check_out(args.out)  # creates nothing: a failed run leaves no --out
        artifacts = args.handler(args)
        _write_manifest(args, argv, artifacts, started)
        return 0
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (GoldbachNetError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
