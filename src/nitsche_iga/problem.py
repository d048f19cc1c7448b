"""Continuous problem data and the built-in manufactured cases.

A :class:`Problem` bundles the time-dependent coefficients of

    du/dt - div(mu grad u) + b . grad u + c u = f

with Dirichlet datum g, initial datum u0, and the ellipticity metadata
(mu0, mu1, c0) that the stability theory rests on.  Coefficient closures
are vectorized: they take coordinate arrays ``x, y`` of shape (m,) and a
scalar time ``t`` and return arrays of shape (m,), (m, 2), or (m, 2, 2).

Manufactured cases add the exact solution ``u`` and its spatial gradient
``grad_u``.  These two closures broadcast over (x, y, t): given x and y of
shape (1, m) and t of shape (r, 1) they return arrays that broadcast to
(r, m) and (r, m, 2), and a closure that does not depend on t may return
the (1, m) row.  Each entry equals, bit for bit, the entry of the call with
(m,) arrays and a scalar t.  A consistency self-check differentiates the
stored closed forms numerically and verifies that the forcing term really
matches.
"""

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import UnknownCase


@dataclass(frozen=True)
class Problem:
    """Coefficients, data, and ellipticity metadata of one problem."""

    mu: Callable
    b: Callable
    c: Callable
    f: Callable
    g: Callable
    u0: Callable
    mu0: float
    mu1: float
    c0: float
    T: float

    @property
    def alpha(self):
        """Coercivity constant of the volume form, min of mu0 and c0."""
        return min(self.mu0, self.c0)


@dataclass(frozen=True)
class ManufacturedCase:
    """A problem together with its closed-form exact solution.

    ``u(x, y, t)`` and ``grad_u(x, y, t)`` broadcast over their three
    arguments (see the module docstring); the closures of ``problem`` take
    (m,) arrays and a scalar t.
    """

    name: str
    problem: Problem
    u: Callable
    grad_u: Callable


def consistency_residual(case, x, y, t):
    """Residual du/dt - div(mu grad u) + b . grad u + c u - f at sample points.

    The time derivative and the flux divergence are obtained by
    complex-step differentiation of the stored closed forms (exact to
    machine precision for the analytic closures used here); advection and
    reaction reuse the stored gradient directly.
    """
    p = case.problem
    h = 1e-30

    def flux(xx, yy):
        g = case.grad_u(xx, yy, t)
        m = p.mu(xx, yy, t)
        return np.einsum("mab,mb->ma", m, g)

    du_dt = case.u(x, y, t + 1j * h).imag / h
    div_q = (
        flux(x + 1j * h, y)[:, 0].imag / h
        + flux(x, y + 1j * h)[:, 1].imag / h
    )
    grad = case.grad_u(x, y, t)
    adv = np.sum(p.b(x, y, t) * grad, axis=1)
    return du_dt - div_q + adv + p.c(x, y, t) * case.u(x, y, t) - p.f(x, y, t)


def coefficient_audit(p, seed=0):
    """Sampling-based audit of the ellipticity hypotheses.

    Checks, at times 0, T/2 and T and at 200 random points of the unit
    square drawn from ``seed``, that mu is symmetric and its Rayleigh
    quotients stay inside [mu0, mu1], and, at as many random points on each
    side of the square, that c - div(b)/2 >= c0 (divergence by central
    differences).  Violations are reported with warnings, never
    exceptions: the hypotheses belong to the problem data, not to this
    library.
    """
    n_samples = 200
    rng = np.random.default_rng(seed)
    xs = rng.random(n_samples)
    ys = rng.random(n_samples)
    times = np.array([0.0, 0.5 * p.T, p.T])
    s = rng.random(n_samples)
    boundary_points = np.concatenate(
        [
            np.column_stack([s, np.zeros_like(s)]),
            np.column_stack([s, np.ones_like(s)]),
            np.column_stack([np.zeros_like(s), s]),
            np.column_stack([np.ones_like(s), s]),
        ]
    )
    report = {"mu_symmetric": True, "rayleigh_in_bounds": True, "reaction_bound": True}
    tol = 1e-8
    angles = rng.random(n_samples) * 2 * np.pi
    xi = np.column_stack([np.cos(angles), np.sin(angles)])
    for t in times:
        m = p.mu(xs, ys, t)
        if np.max(np.abs(m - np.transpose(m, (0, 2, 1)))) > tol:
            report["mu_symmetric"] = False
        ray = np.einsum("ma,mab,mb->m", xi, m, xi)
        if ray.min() < p.mu0 - tol or ray.max() > p.mu1 + tol:
            report["rayleigh_in_bounds"] = False
        bx, by = boundary_points[:, 0], boundary_points[:, 1]
        d = 1e-6
        div_b = (
            (p.b(bx + d, by, t)[:, 0] - p.b(bx - d, by, t)[:, 0])
            + (p.b(bx, by + d, t)[:, 1] - p.b(bx, by - d, t)[:, 1])
        ) / (2 * d)
        if np.min(p.c(bx, by, t) - 0.5 * div_b) < p.c0 - 1e-5:
            report["reaction_bound"] = False
    for key, ok in report.items():
        if not ok:
            warnings.warn(f"coefficient audit failed: {key}", stacklevel=2)
    return report


# -- closure helpers ---------------------------------------------------------

def _const_matrix(m11, m12, m22):
    mat = np.array([[m11, m12], [m12, m22]])

    def mu(x, y, t):
        return np.broadcast_to(mat, (len(np.atleast_1d(x)), 2, 2))

    return mu


def _const_vector(b1, b2):
    vec = np.array([b1, b2], dtype=float)

    def b(x, y, t):
        return np.broadcast_to(vec, (len(np.atleast_1d(x)), 2))

    return b


def _const_scalar(v):
    def c(x, y, t):
        return np.full(len(np.atleast_1d(x)), float(v))

    return c


def _zero(x, y, t=None):
    return np.zeros(len(np.atleast_1d(x)))


# -- built-in cases ----------------------------------------------------------

def _case_paper_sec8():
    # Heat-advection-reaction benchmark on the unit square with homogeneous
    # Dirichlet data and a product exact solution that steepens toward the
    # upper-right corner as time advances.
    def u(x, y, t):
        return np.sin(np.pi * x) * np.sin(np.pi * y) * np.exp((x + y - 1) * t)

    def grad_u(x, y, t):
        ex = np.exp((x + y - 1) * t)
        s_x, s_y = np.sin(np.pi * x), np.sin(np.pi * y)
        c_x, c_y = np.cos(np.pi * x), np.cos(np.pi * y)
        gx = (np.pi * c_x * s_y + t * s_x * s_y) * ex
        gy = (np.pi * s_x * c_y + t * s_x * s_y) * ex
        return np.stack([gx, gy], axis=-1)

    def f(x, y, t):
        ex = np.exp((x + y - 1) * t)
        s_x, s_y = np.sin(np.pi * x), np.sin(np.pi * y)
        c_x, c_y = np.cos(np.pi * x), np.cos(np.pi * y)
        return (
            (x + y + 2 * t - 2 * t**2 + 2 * np.pi**2) * s_x * s_y
            + (np.pi - 2 * np.pi * t) * c_x * s_y
            + (np.pi - 2 * np.pi * t) * s_x * c_y
        ) * ex

    prob = Problem(
        mu=_const_matrix(1.0, 0.0, 1.0),
        b=_const_vector(1.0, 1.0),
        c=_const_scalar(1.0),
        f=f,
        g=lambda x, y, t: _zero(x, y),
        u0=lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y),
        mu0=1.0,
        mu1=1.0,
        c0=1.0,
        T=4.0,
    )
    return ManufacturedCase("paper_sec8", prob, u, grad_u)


def _case_zero():
    # Trivial case: everything homogeneous, exact solution identically zero.
    prob = Problem(
        mu=_const_matrix(1.0, 0.0, 1.0),
        b=_const_vector(0.0, 0.0),
        c=_const_scalar(1.0),
        f=lambda x, y, t: _zero(x, y),
        g=lambda x, y, t: _zero(x, y),
        u0=_zero,
        mu0=1.0,
        mu1=1.0,
        c0=1.0,
        T=1.0,
    )
    return ManufacturedCase(
        "zero",
        prob,
        u=lambda x, y, t: np.zeros(np.broadcast(x, y).shape),
        grad_u=lambda x, y, t: np.zeros(np.broadcast(x, y).shape + (2,)),
    )


def _case_steady_reaction():
    # Reaction-dominated steady state with inhomogeneous Dirichlet data.
    # The advection field changes sign along the left boundary, so the
    # inflow split really is pointwise, and the exact solution is a
    # biquadratic polynomial (exactly representable for degree >= 2).
    def phi(x):
        return 1.0 + x + x**2

    def psi(y):
        return 2.0 - y + y**2

    def u(x, y, t):
        return 0.5 * phi(x) * psi(y) + 0.0 * np.asarray(t)

    def grad_u(x, y, t):
        gx = 0.5 * (1.0 + 2.0 * x) * psi(y)
        gy = 0.5 * phi(x) * (2.0 * y - 1.0)
        return np.stack([gx, gy], axis=-1)

    def b(x, y, t):
        x = np.atleast_1d(x)
        return np.stack([y - 0.5 + 0.0 * x, x - 2.0], axis=-1)

    def f(x, y, t):
        lap = psi(y) + phi(x)
        gx = 0.5 * (1.0 + 2.0 * x) * psi(y)
        gy = 0.5 * phi(x) * (2.0 * y - 1.0)
        return -lap + (y - 0.5) * gx + (x - 2.0) * gy + 2.0 * u(x, y, t)

    prob = Problem(
        mu=_const_matrix(1.0, 0.0, 1.0),
        b=b,
        c=_const_scalar(2.0),
        f=f,
        g=lambda x, y, t: u(x, y, t),
        u0=lambda x, y: u(x, y, 0.0),
        mu0=1.0,
        mu1=1.0,
        c0=2.0,
        T=1.0,
    )
    return ManufacturedCase("steady_reaction", prob, u, grad_u)


_REGISTRY = {
    "paper_sec8": _case_paper_sec8,
    "zero": _case_zero,
    "steady_reaction": _case_steady_reaction,
}


def builtin_case(name):
    """Return a registered manufactured case by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise UnknownCase(f"unknown case {name!r}; registered: {known}") from None
    return factory()
