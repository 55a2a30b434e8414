"""Lyapunov exponents: analytic anchors, then a three-map sweep.

A positive exponent means nearby orbits separate exponentially (chaos).
The logistic map has two textbook anchors that double as calibration
points: LE = ln 2 at b = 4 and LE = ln(1/2) at b = 2.5.

Run:  python demos/lyapunov_sweep.py  [output-dir]
"""

import math
import sys
from pathlib import Path

import numpy as np

from sboxkit import MapKind, MapParams, lyapunov, lyapunov_sweep
from sboxkit.reporting import write_param_csv

out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("demo_output")
out_dir.mkdir(parents=True, exist_ok=True)

print("Calibration against analytic values (n = 100000):")
le4 = lyapunov(MapParams(MapKind.LOGISTIC, 4.0), 0.3, 1000, 100_000)
print(f"  logistic b=4.0:  {le4:+.4f}   (ln 2 = {math.log(2):+.4f})")
le25 = lyapunov(MapParams(MapKind.LOGISTIC, 2.5), 0.2, 1000, 100_000)
print(f"  logistic b=2.5:  {le25:+.4f}   (ln 0.5 = {math.log(0.5):+.4f})")
print()

print("Sweeps (CSV: param,le), 60 points each, n = 20000:")
sweeps = [
    ("logistic", MapKind.LOGISTIC, 2.5, 4.0),
    ("sine", MapKind.SINE, 0.1, 1.0),
    ("primary", MapKind.AHYB, 0.05, 1.95),
]
for name, kind, lo, hi in sweeps:
    params = np.linspace(lo, hi, 60)
    les = lyapunov_sweep(kind, params, 0.3, 300, 20_000)
    path = out_dir / f"lyapunov_{name}.csv"
    write_param_csv(path, "le", np.column_stack((params, les)))
    positive = int((les > 0).sum())
    print(f"  {name:9s} -> {path}   LE range [{les.min():+.3f}, {les.max():+.3f}], "
          f"{positive}/60 positive")

print()
print("The reference maps are chaotic only on part of their parameter range")
print("(the logistic map dips negative in every periodic window).  The")
print("primary map holds a positive exponent across its whole range, so any")
print("admissible key lands in the chaotic regime.")
