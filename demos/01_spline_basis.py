#!/usr/bin/env python3
"""Univariate B-spline bases: knot vectors, evaluation, smoothness.

Walks through the building blocks every other capability rests on: open
knot vectors, the partition of unity, derivative sums, and how interior
knot multiplicity trades smoothness for locality.  Writes a sampled basis
table you can plot with gnuplot:

    plot for [i=2:6] 'demo_out/basis_k2.dat' using 1:i with lines
"""

from pathlib import Path

import numpy as np

from nitsche_iga import eval_basis, parse_knot_vector, uniform_open_knots, validate_knots
from nitsche_iga.splines import continuity_at

OUT = Path(__file__).resolve().parent / "demo_out"


def dense_values(kv, x):
    ev = eval_basis(kv, x)
    row = np.zeros(kv.dimension)
    row[ev.first_index : ev.first_index + kv.degree + 1] = ev.values
    return row


def main():
    print("== Open knot vectors ==")
    kv = validate_knots([0, 0, 0, 0.25, 0.5, 0.5, 0.75, 1, 1, 1], 2)
    print(f"degree {kv.degree}, {kv.dimension} basis functions, "
          f"{kv.num_spans} spans, mesh ratio theta = {kv.theta:g}")
    for n in range(1, kv.num_spans):
        z = kv.mesh.breakpoints[n]
        print(f"  continuity at breakpoint {z:g}: C^{continuity_at(kv, n)}")

    print("\n== Partition of unity / derivative sums ==")
    rng = np.random.default_rng(7)
    worst_pu = worst_ds = 0.0
    for x in rng.random(2000):
        ev = eval_basis(kv, float(x))
        worst_pu = max(worst_pu, abs(ev.values.sum() - 1.0))
        worst_ds = max(worst_ds, abs(ev.first_derivs.sum()))
    print(f"max |sum B_i - 1| over 2000 points: {worst_pu:.2e}")
    print(f"max |sum B_i'|   over 2000 points: {worst_ds:.2e}")

    print("\n== Text form used in geometry files ==")
    kv_parsed = parse_knot_vector("2; 0 0 0 0.5 1 1 1")
    print(f"parsed '2; 0 0 0 0.5 1 1 1' -> {kv_parsed}")

    print("\n== Refinement by span bisection ==")
    coarse = uniform_open_knots(2, 4)
    fine = coarse.bisected()
    print(f"{coarse} -> {fine}; widths {fine.mesh.widths[0]:g}")

    OUT.mkdir(exist_ok=True)
    xs = np.linspace(0.0, 1.0, 401)
    table = np.column_stack([xs] + [np.array([dense_values(kv, x)[i] for x in xs])
                                    for i in range(kv.dimension)])
    path = OUT / "basis_k2.dat"
    np.savetxt(path, table, header="x then one column per basis function")
    print(f"\nwrote sampled basis table to {path}")


if __name__ == "__main__":
    main()
