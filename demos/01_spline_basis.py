#!/usr/bin/env python3
"""Univariate B-spline bases: knot vectors, evaluation, smoothness.

Walks through the building blocks every other capability rests on: open
knot vectors, the partition of unity, derivative sums, and how interior
knot multiplicity trades smoothness for locality.  Every value comes from
one batched call over all its points, the evaluation path the solver runs:
``eval_basis_many`` for the nonzero functions, ``collocation`` for the
whole basis.  Writes a sampled basis table you can plot with gnuplot:

    plot for [i=2:6] 'demo_out/basis_k2.dat' using 1:i with lines
"""

from pathlib import Path

import numpy as np

from nitsche_iga import parse_knot_vector, uniform_open_knots, validate_knots
from nitsche_iga.splines import collocation, eval_basis_many

OUT = Path(__file__).resolve().parent / "demo_out"


def main():
    print("== Open knot vectors ==")
    kv = validate_knots([0, 0, 0, 0.25, 0.5, 0.5, 0.75, 1, 1, 1], 2)
    print(f"degree {kv.degree}, {kv.dimension} basis functions, "
          f"{kv.num_spans} spans, mesh ratio theta = {kv.theta:g}")
    # C^(k - m) across an interior breakpoint of multiplicity m
    continuity = kv.degree - kv.multiplicities[1:-1]
    for z, c in zip(kv.breakpoints[1:-1], continuity):
        print(f"  continuity at breakpoint {z:g}: C^{c}")

    print("\n== Partition of unity / derivative sums ==")
    rng = np.random.default_rng(7)
    _, ders = eval_basis_many(kv, rng.random(2000))
    worst_pu = np.max(np.abs(ders[:, 0].sum(axis=1) - 1.0))
    worst_ds = np.max(np.abs(ders[:, 1].sum(axis=1)))
    print(f"max |sum B_i - 1| over 2000 points: {worst_pu:.2e}")
    print(f"max |sum B_i'|   over 2000 points: {worst_ds:.2e}")

    print("\n== Text form used in geometry files ==")
    kv_parsed = parse_knot_vector("2; 0 0 0 0.5 1 1 1")
    print(f"parsed '2; 0 0 0 0.5 1 1 1' -> {kv_parsed}")

    print("\n== Refinement by span bisection ==")
    coarse, fine = uniform_open_knots(2, 4), uniform_open_knots(2, 8)
    print(f"{coarse} -> {fine}; widths {fine.widths[0]:g}")

    OUT.mkdir(exist_ok=True)
    xs = np.linspace(0.0, 1.0, 401)
    table = np.column_stack([xs, collocation(kv, xs)[0]])
    path = OUT / "basis_k2.dat"
    np.savetxt(path, table, header="x then one column per basis function")
    print(f"\nwrote sampled basis table to {path}")


if __name__ == "__main__":
    main()
