#!/usr/bin/env python3
"""Geometry maps and the meshes they carry: the square and the quarter annulus.

There is no mesh object: a discretization is a spline space over a geometry
map, ``Discretization(space, gm)``, its elements are the spans of the space
mapped by F, and its edge cache holds the boundary edges.  Shows exact conic
representation through rational weights, the edge sizes h_E the boundary
penalty eps/h_E depends on, and outward normals on a curved boundary.  The
map is evaluated as the solver evaluates it, on tensor grids of parametric
coordinates (``GeometryMap.evaluate_grid``).  Writes the mapped mesh
wireframe for plotting.
"""

from pathlib import Path

import numpy as np

from nitsche_iga import (
    Discretization,
    load_geometry,
    uniform_space,
)

OUT = Path(__file__).resolve().parent / "demo_out"


def main():
    print("== Identity square ==")
    gm = load_geometry("square")
    space = uniform_space(1, 4)
    h_E = Discretization(space, gm).boundary.h_E
    ns1, ns2 = space.num_spans
    print(f"{ns1 * ns2} elements, {len(h_E)} boundary edges of length "
          f"h_E = {h_E[0]:g}")

    print("\n== Quarter annulus (exact rational arc) ==")
    ga = load_geometry("quarter_annulus")
    radial = [0.0, 0.5, 1.0]
    xs, _, detjs = ga.evaluate_grid(radial, [0.37])
    for s, x, detj in zip(radial, xs[:, 0], detjs[:, 0]):
        print(f"  radial parameter {s:g}: |F| = {np.hypot(*x):.12f} "
              f"(exact {1 + s:g}), det J = {detj:.4f}")

    space_a = uniform_space(2, 4)
    disc = Discretization(space_a, ga, quadrature_order=6)
    area = disc.elements.w.sum()
    print(f"quadrature area of the annulus quarter: {area:.12f} "
          f"(exact {3 * np.pi / 4:.12f})")

    # the normal the boundary terms use, at a quadrature point of the outer arc
    outer = np.flatnonzero(disc.boundary.side == "x1")[0]
    x, n = disc.boundary.x[outer, 2], disc.boundary.normal[outer, 2]
    print(f"outer-arc normal at {x.round(4)}: {n.round(6)} "
          f"(radial direction {(x / np.linalg.norm(x)).round(6)})")

    # wireframe of the mapped mesh for plotting: the lines through the
    # breakpoints of each direction are two tensor grids
    kv1, kv2 = space_a.kv1, space_a.kv2
    ts = np.linspace(0, 1, 33)
    first, _, _ = ga.evaluate_grid(kv1.mesh.breakpoints, ts)
    second, _, _ = ga.evaluate_grid(ts, kv2.mesh.breakpoints)
    lines = [*first, *second.swapaxes(0, 1)]
    OUT.mkdir(exist_ok=True)
    path = OUT / "annulus_mesh.dat"
    with open(path, "w") as fh:
        for pts in lines:
            np.savetxt(fh, pts)
            fh.write("\n")
    print(f"\nwrote mesh wireframe to {path} (gnuplot: plot '...' with lines)")


if __name__ == "__main__":
    main()
