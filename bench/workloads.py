"""The three benchmark workloads: one goldbachnet CLI invocation each.

A workload is a fixed argument list; the benchmark seed is appended as
``--seed`` and the output directory as ``--out``. Sizes are scaled so that
one run of every workload fits the benchmark's time budget on a 2-core
machine; the acceptance-size sweep (20 realizations) would take minutes.
"""

from dataclasses import dataclass

DEFAULT_SEED = 1

# pool size of the grid sweep; the machine the baseline was taken on has 2 cores
SWEEP_WORKERS = 2

SWEEP_ALPHAS = (0.0, -1.0, -1.4, -1.8, -2.1, -2.5)
SWEEP_SNAPSHOTS = (250, 500, 1000, 2000, 4000)
SWEEP_REALIZATIONS = 1

# figure 6 preset defaults, 20 realizations each
GROWTH_ALPHAS = (2.0, 1.0, 0.0, -1.0, -2.0)
GROWTH_MAX_EVEN = 20_000

BUILD_ALPHA = -2.5
BUILD_TARGET_NODES = 5000

# the CLI's --max-even-cap default, which sizes the sieve of sweeps and
# target-node builds
MAX_EVEN_CAP = 1_000_000


def _csv(values):
    return ",".join(f"{v:g}" for v in values)


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple          # CLI arguments without --seed and --out
    traced_argv: tuple   # single-process variant used by the traced run
    sieve_cap: int       # sieve bound the invocation builds, timed in setup_s
    workers: int


_SWEEP = ("sweep", "--alphas", _csv(SWEEP_ALPHAS), "--snapshots", _csv(SWEEP_SNAPSHOTS),
          "--realizations", str(SWEEP_REALIZATIONS), "--format", "csv")
_GROWTH = ("figure", "6")
_BUILD = ("build", "--alpha", f"{BUILD_ALPHA:g}", "--target-nodes", str(BUILD_TARGET_NODES))

WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid_sweep", _SWEEP + ("--workers", str(SWEEP_WORKERS)),
                 _SWEEP + ("--workers", "1"), MAX_EVEN_CAP, SWEEP_WORKERS),
        Workload("growth", _GROWTH, _GROWTH, GROWTH_MAX_EVEN, 1),
        Workload("build_one", _BUILD, _BUILD, MAX_EVEN_CAP, 1),
    )
}


def cli_argv(argv, seed, out_dir):
    """Full CLI argument list for one invocation."""
    return list(argv) + ["--seed", str(int(seed)), "--out", str(out_dir)]
