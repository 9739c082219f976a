#!/usr/bin/env python3
# The ten preset datasets behind the figure command, driven as a library.
# Full-size presets default to 20 realizations and up to 5000 nodes; here
# everything is shrunk so the demo runs in seconds.

from pathlib import Path

from goldbachnet.cli import write_csv
from goldbachnet.figures import FIGURE_DEFAULTS, figure_tables

print("available presets:")
for fid, preset in FIGURE_DEFAULTS.items():
    stems = ", ".join(preset.get("tables", ["N_vs_M"]))
    size = (f"N={preset['snapshots']}" if "snapshots" in preset
            else f"max_even={preset['max_even']}")
    print(f"  {fid}: {stems}; {size}; alphas={preset['alphas']}")

out = Path("demo_out")
out.mkdir(exist_ok=True)

# Degree correlation vs alpha (preset 10), shrunk.
tables = figure_tables(10, alphas=(-1.5, -0.5, 0.5, 1.5), snapshots=(400,),
                       realizations=4, master_seed=3, max_even_cap=100_000)
table = tables["r_vs_alpha"]
write_csv(out / "r_vs_alpha.csv", table.header, table.rows)
print("\nr vs alpha (N*=400, 4 runs):")
for row in table.rows:
    print(f"  alpha={row[0]:>5}: r = {row[1]:+.4f} +- {row[2]:.4f}")

# Growth curves (preset 6), shrunk: N(M) for opposite exponents.
tables = figure_tables(6, alphas=(2.0, -2.0), max_even=2_000,
                       realizations=4, master_seed=3)
table = tables["N_vs_M"]
write_csv(out / "N_vs_M.csv", table.header, table.rows)
last = table.rows[-1]
print(f"\ngrowth at M={last[0]}: N(alpha=2) = {last[1]:.1f}, "
      f"N(alpha=-2) = {last[3]:.1f}")
print(f"wrote {out}/r_vs_alpha.csv and {out}/N_vs_M.csv")
