"""Tour of the three one-dimensional maps behind the generator.

Walks the piecewise primary map next to the logistic and sine references:
single steps, the renormalization fold that keeps orbits inside [0, 4), and
bifurcation scans written as CSV (param,x pairs, ready for any plotting
tool).

Run:  python demos/chaotic_maps.py  [output-dir]
"""

import sys
from pathlib import Path

import numpy as np

from sboxkit import (
    BranchMode,
    MapKind,
    MapParams,
    bifurcation_scan,
    iterate,
    map_step,
    renormalize,
)
from sboxkit.reporting import write_param_csv

out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_output")
out_dir.mkdir(parents=True, exist_ok=True)

print("=" * 70)
print("Single steps of the piecewise map (A = 1.0)")
print("=" * 70)
p = MapParams(MapKind.AHYB, 1.0)
for x in (0.5, 1.0, 1.49, 1.5, 2.0, 2.99, 3.0, 3.5, 3.99):
    raw = map_step(p, x)
    print(f"  x = {x:5.2f}  ->  raw {raw:9.4f}   folded {renormalize(raw):.4f}")
print()
print("Branch 3 exists in two published variants; both are available:")
p_alg = MapParams(MapKind.AHYB, 1.0, BranchMode.ALGORITHM1)
print(f"  x = 3.50  closed formula x*(A-x) -> {map_step(p, 3.5):.4f}")
print(f"  x = 3.50  pseudocode     (A-x)   -> {map_step(p_alg, 3.5):.4f}")
print()

print("=" * 70)
print("Orbits stay in [0, 4) thanks to the fold x <- 4*frac(|round15(x)|)")
print("=" * 70)
orbit = iterate(MapParams(MapKind.AHYB, 1.5), 0.3, transient=0, n=12)
print("  first 12 states:", " ".join(f"{v:.4f}" for v in orbit))
long_orbit = iterate(MapParams(MapKind.AHYB, 1.5), 0.3, transient=1000, n=50_000)
print(f"  50k post-transient states: min {long_orbit.min():.6f}, "
      f"max {long_orbit.max():.6f}  (all inside [0, 4))")
print()

print("=" * 70)
print("Bifurcation scans (CSV: param,x)")
print("=" * 70)
scans = [
    ("logistic", MapKind.LOGISTIC, 2.5, 4.0),
    ("sine", MapKind.SINE, 0.1, 1.0),
    ("primary", MapKind.AHYB, 0.05, 1.95),
]
for name, kind, lo, hi in scans:
    pts = bifurcation_scan(kind, lo, hi, steps=400, x0=0.3,
                           transient=300, samples=60)
    path = out_dir / f"bifurcation_{name}.csv"
    write_param_csv(path, "x", pts, 60)
    spread = np.ptp(pts[:, 1])
    print(f"  {name:9s} {len(pts):6d} points over [{lo}, {hi}] -> {path}"
          f"   (state spread {spread:.3f})")

print()
print("The logistic map shows the classic period-doubling cascade; the")
print("primary map fills broad bands of state space across its whole")
print("parameter range, which is what the byte extractor relies on.")
