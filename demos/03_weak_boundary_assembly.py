#!/usr/bin/env python3
"""Anatomy of the penalized stiffness matrix.

Boundary conditions enter the bilinear form through four edge-term
families (flux, its transpose, inflow, penalty) instead of constrained
rows.  This script takes them apart: it shows the penalty identity on
constants, the affine dependence on the penalty parameter, the computed
trace constant behind the admissible-penalty floor, and how the inflow
set follows the advection field around the boundary.
"""

import numpy as np

from nitsche_iga import (
    assemble_stiffness,
    builtin_case,
    inflow_mask,
    penalty_floor,
    trace_constant,
)
from nitsche_iga.assembly import Discretization
from nitsche_iga.geometry import load_geometry, uniform_space


def main():
    case = builtin_case("steady_reaction")
    p = case.problem
    gm = load_geometry("square")
    space = uniform_space(2, 4)
    disc = Discretization(space, gm)

    print("== Trace constant and the penalty floor ==")
    c_star = trace_constant(disc)
    floor = penalty_floor(disc, p)
    print(f"sharp discrete trace constant C = {c_star:.6f}")
    print(f"floor 2 C mu1^2 / alpha = {floor:.6f} (alpha = {p.alpha:g})")

    print("\n== Penalty acts alone on constants ==")
    eps = 1.25 * floor
    A = assemble_stiffness(disc, p, eps, 0.0)
    e = np.ones(disc.dimension)
    quad_form = e @ (A @ e)
    # gradients of the constant vanish; advection and flux integrate to the
    # reaction mass plus the penalty sum eps/h_E * |E| ... on this case the
    # c = 2 volume term remains:
    print(f"e^T A e = {quad_form:.6f}")
    print(f"reaction part 2*|domain| = 2, penalty part eps * 4/h = {eps * 16:.6f}")
    bn_part = quad_form - 2.0 - eps * 16
    print(f"inflow remainder (one-sided, sign-definite): {bn_part:+.6f}")

    print("\n== Affine dependence on eps ==")
    A1 = assemble_stiffness(disc, p, eps, 0.0).toarray()
    A2 = assemble_stiffness(disc, p, 2 * eps, 0.0).toarray()
    A3 = assemble_stiffness(disc, p, 3 * eps, 0.0).toarray()
    drift = np.abs((A3 - A2) - (A2 - A1)).max()
    print(f"second difference of A(eps), A(2 eps), A(3 eps): {drift:.2e}")

    print("\n== Inflow set follows b around the boundary ==")
    mask, bn = inflow_mask(disc, p, 0.0)
    for side in ("x0", "x1", "y0", "y1"):
        frac = mask[disc.boundary.side == side].mean()
        print(f"  side {side}: {100 * frac:5.1f}% of edge quadrature points "
              f"see b.n < 0")
    print("(the field (y - 1/2, x - 2) enters through the top and the upper "
          "half of the left side)")


if __name__ == "__main__":
    main()
