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

# the roundoff bound of the affine check, relative to the largest entry
AFFINE_RTOL = 1e-13


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
    # P = sum_E h_E^-1 int_E N_i N_j, the penalty term over eps
    P = disc.matrix(disc.penalty_unit)
    e = np.ones(disc.dimension)
    quad_form = e @ (A @ e)
    penalty = eps * (e @ (P @ e))
    # gradients of the constant vanish, so the diffusion and flux terms drop
    # out; the c = 2 reaction mass, the penalty and the inflow term remain
    print(f"e^T A e = {quad_form:.6f}")
    print(f"reaction part 2*|domain| = 2, penalty part eps e^T P e = {penalty:.6f}")
    bn_part = quad_form - 2.0 - penalty
    print(f"inflow remainder (one-sided, sign-definite): {bn_part:+.6f}")

    print("\n== Affine dependence on eps ==")
    A1 = A.toarray()
    A2 = assemble_stiffness(disc, p, 2 * eps, 0.0).toarray()
    A3 = assemble_stiffness(disc, p, 3 * eps, 0.0).toarray()
    drift = max(np.abs(A2 - A1 - eps * P).max(), np.abs(A3 - A2 - eps * P).max())
    verdict = "pass" if drift <= AFFINE_RTOL * np.abs(A3).max() else "FAIL"
    print(f"A(2 eps) - A(eps) and A(3 eps) - A(2 eps) equal eps P to "
          f"{AFFINE_RTOL:g} max |A(3 eps)|: {verdict}")

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
