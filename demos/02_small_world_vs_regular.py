#!/usr/bin/env python3
# Compare the two regimes of the spread exponent alpha.
#
# Large alpha links small primes to large ones (hubs, short distances);
# strongly negative alpha links primes of nearly equal size (local,
# lattice-like structure). The matched G(N, M) sample calibrates what
# "random" would look like at the same size and density.

from goldbachnet import (
    baseline_report,
    build,
    build_table,
    compute_report,
)

table = build_table(200_000)

print(f"{'alpha':>6} {'N':>5} {'M':>6} {'d':>7} {'d_rand':>7} "
      f"{'C':>8} {'C_rand':>8} {'k_max':>5} {'r':>7}")
for alpha in (2.0, 0.0, -2.5, float("-inf")):
    g = build(table, alpha, 7, target_nodes=1_500)
    rep = compute_report(g)
    base = baseline_report(rep.n_nodes, rep.n_edges, seed=7)
    r_text = "n/a" if rep.r is None else f"{rep.r:+.3f}"
    print(f"{alpha:>6} {rep.n_nodes:>5} {rep.n_edges:>6} {rep.d:>7.3f} "
          f"{base.d:>7.3f} {rep.C:>8.5f} {base.C:>8.5f} {rep.k_max:>5} "
          f"{r_text:>7}")

print("\nClustering always beats the matched random graph; distances stay")
print("short until the selection concentrates on nearly-equal pairs.")
