#!/usr/bin/env python3
# Build a small prime-pair network step by step and look inside it.
#
# Every even number n >= 8 contributes exactly one edge: an unordered
# prime pair p + q = n, drawn with probability proportional to the pair
# spread (q - p) ** alpha.

from goldbachnet import build, build_table, decompose

# One sieve serves the whole run; its bound caps the largest even number.
table = build_table(5_000)
print(f"{table!r}")

# How an even number splits: 24 has three pairs with spreads 14, 10, 2.
for n in (8, 10, 24, 100):
    d = decompose(table, n)
    print(f"n={n}: omega={d.omega} pairs={list(zip(d.p.tolist(), d.q.tolist()))}")

# alpha = 0 picks pairs uniformly; the seed fixes every draw.
g = build(table, 0.0, 2024, max_even=2_000)
print(f"\nbuilt {g!r}")

# One link per even number, nodes appear on first use. Edge i joins
# p = edge_p[i] and q = n - p of its source even n = 8 + 2i.
print("first five edges (p, q, source even):",
      list(zip(*(a[:5].tolist() for a in (g.edge_p, g.edge_q, g.edge_even)))))
print("growth after 1, 10, 100, 997 links:",
      [(m, int(g.node_count_history[m - 1])) for m in (1, 10, 100, 997)])

# The same arguments always rebuild the identical network.
again = build(table, 0.0, 2024, max_even=2_000)
assert g.edge_p.tolist() == again.edge_p.tolist()

# Plain-text export: header plus one "p q n" line per edge.
g.write_edge_list("demo_network.txt")
print("\nwrote demo_network.txt; first lines:")
with open("demo_network.txt") as fh:
    for _ in range(4):
        print(" ", fh.readline().rstrip())
