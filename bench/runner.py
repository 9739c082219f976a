"""Run one goldbachnet CLI invocation in this process and report its cost.

    python3 bench/runner.py --result R.json [--spans S.json] -- <cli args>

Imports ``goldbachnet`` from the ``src`` directory next to ``bench``, calls
``goldbachnet.cli.main(argv)`` and writes to R.json the exit code, the
wall time of the call, the user plus system CPU time of this process and
its pool children during the call, and the peak RSS of this process or of
its largest child. With ``--spans`` the call runs traced (see spans.py) and
the recorded spans go to S.json.
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def _cpu_seconds():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def invoke(argv, spans_path=None):
    """Call the CLI once; return the cost record, write spans if asked."""
    import goldbachnet
    import goldbachnet.cli

    if Path(goldbachnet.__file__).resolve().parent != SRC / "goldbachnet":
        raise RuntimeError(f"goldbachnet imported from {goldbachnet.__file__}, "
                           f"not from {SRC}")
    patches = []
    recorder = None
    if spans_path is not None:
        import spans

        recorder = spans.Recorder()
        patches = spans.install(recorder)
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        rc = goldbachnet.cli.main(argv)
    except SystemExit as exc:  # argparse rejects a flag
        rc = exc.code
    except Exception:  # a crash is one failed operation; the run goes on
        traceback.print_exc()
        rc = "crashed"
    finally:
        wall = time.perf_counter() - t0
        cpu1 = _cpu_seconds()
        if recorder is not None:
            spans.uninstall(patches)
    peak_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if recorder is not None:
        Path(spans_path).write_text(json.dumps({"spans": recorder.spans}))
    return {
        "rc": rc,
        "wall_s": wall,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": peak_kb / 1024.0,
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    sys.path.insert(0, str(SRC))
    record = invoke(argv, args.spans)
    Path(args.result).write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
