"""Backward-Euler march from the L2-projected initial datum.

Each step solves (M + tau A(t_n)) u^n = M u^{n-1} + tau F(t_n), with the
stiffness and load from one call of ``AssembledForms.at(t_n)``.  It returns
the stiffness as its data on the discretization's CSR pattern, the previous
array object whenever the coefficients it samples at the quadrature points
(mu, b, c in the volume, mu and b on the boundary) are bit-equal to the
last assembled ones.  It keeps a copy of the distinct values of each of
those samples and visits each new sample once: it compares it with its copy
in place, as unsigned integers, and only a changed one is checked and
copied, so a step that reuses the operator checks and copies nothing; the
load samples only f and g and reuses the matrix's Dirichlet edge terms.
The march factors M + tau A again only when that object changes, and makes
one CSR matrix per factorization, that of M + tau A: an autonomous operator
is assembled and factored once, a time-dependent one every step.  A
changed operator starts from eps times the discretization's penalty Gram P,
made once; its volume form and inflow edge term are assembled again, the
volume form from the discretization's unit matrices when mu, b and c are
uniform over the volume points and point by point otherwise; its flux and
transpose edge terms are kept, and made again only when mu at the edge
points changes.  Each part depends on its samples at t_n alone, so the
result is the same, bit for bit, as rebuilding the operator at every step.
M and A share the discretization's CSR pattern, so M + tau A is formed on
its data alone, and every LU, the mass matrix's included, factors the band
of that pattern in its natural order, laid out once in ``disc.band``.
"""

import operator
from dataclasses import dataclass

import numpy as np

from .assembly import assemble_functional
from .errors import ConfigError
from .linalg import SparseFactor


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of N backward-Euler steps on [0, T]."""

    num_steps: int
    T: float

    def __post_init__(self):
        # operator.index admits Python and numpy integers only
        if operator.index(self.num_steps) < 1:
            raise ValueError("need at least one time step")
        if not 0.0 < self.T < np.inf:
            raise ValueError(f"final time must be a positive finite number, got {self.T}")

    @property
    def tau(self):
        return self.T / self.num_steps

    @property
    def nodes(self):
        return np.linspace(0.0, self.T, self.num_steps + 1)


class SolutionTrajectory:
    """Coefficient vectors u^0 .. u^N (``coefs[n]`` at ``grid.nodes[n]``) with
    their grid, their discretization and the LU factorizations the march took.
    """

    def __init__(self, coefs, grid, disc, factorizations=0):
        self.coefs = np.asarray(coefs)
        self.grid = grid
        self.disc = disc
        self.factorizations = factorizations

    @property
    def final(self):
        return self.coefs[-1]


def project_initial(disc, u0):
    """L2 projection of the initial datum: solve M c = (u0, N_i)."""
    M = disc.mass
    rhs = assemble_functional(disc, u0)
    return SparseFactor(M, disc.band).solve(rhs)


def march(forms, grid, u0coef):
    """Run the implicit Euler march and return the trajectory.

    Raises :class:`ConfigError` when the (N + 1, dof) trajectory cannot be
    allocated.
    """
    tau = grid.tau
    disc = forms.disc
    M = disc.mass
    n = M.shape[0]
    try:
        coefs = np.empty((grid.num_steps + 1, n))
    except (ValueError, MemoryError):
        raise ConfigError(
            f"cannot allocate the trajectory of N = {grid.num_steps} steps at {n} dof"
        ) from None
    coefs[0] = u0coef

    A = factor = None
    factorizations = 0
    for step, t in enumerate(grid.nodes[1:], start=1):
        A_t, F = forms.at(t)
        if A_t is not A:
            A = A_t
            factor = SparseFactor(disc.matrix(M.data + tau * A), disc.band)
            factorizations += 1
        rhs = M @ coefs[step - 1] + tau * F
        coefs[step] = factor.solve(rhs)
    return SolutionTrajectory(coefs, grid, disc, factorizations)

