from dataclasses import replace

import numpy as np
import pytest

from nitsche_iga import builtin_case, coefficient_audit, inflow_mask
from nitsche_iga.errors import UnknownCase
from nitsche_iga.problem import _REGISTRY, consistency_residual

from conftest import make_disc


def sec8_forcing_oracle(x, y, t):
    """Forcing rebuilt in the test by differentiating the closed-form
    solution u = sin(pi x) sin(pi y) exp((x+y-1) t) by hand:
    f = u_t - Laplace(u) + (u_x + u_y) + u."""
    sx, sy = np.sin(np.pi * x), np.sin(np.pi * y)
    cx, cy = np.cos(np.pi * x), np.cos(np.pi * y)
    ex = np.exp((x + y - 1) * t)
    u = sx * sy * ex
    u_t = (x + y - 1) * u
    u_x = (np.pi * cx * sy + t * sx * sy) * ex
    u_y = (np.pi * sx * cy + t * sx * sy) * ex
    u_xx = -np.pi**2 * u + 2 * np.pi * t * cx * sy * ex + t**2 * u
    u_yy = -np.pi**2 * u + 2 * np.pi * t * sx * cy * ex + t**2 * u
    return u_t - (u_xx + u_yy) + (u_x + u_y) + u


class TestBuiltinCases:
    def test_registry(self):
        for name in ("paper_sec8", "zero", "steady_reaction"):
            assert builtin_case(name).name == name
        with pytest.raises(UnknownCase):
            builtin_case("nonexistent")

    def test_sec8_basics(self):
        case = builtin_case("paper_sec8")
        p = case.problem
        assert p.T == 4.0
        assert (p.mu0, p.mu1, p.c0) == (1.0, 1.0, 1.0)
        x = np.array([0.5])
        assert case.u(x, x, 0.0)[0] == pytest.approx(1.0)
        assert np.allclose(p.u0(x, x), 1.0)

    def test_sec8_forcing_matches_hand_derivation(self, rng):
        case = builtin_case("paper_sec8")
        x, y = rng.random(200), rng.random(200)
        t = 4.0 * rng.random()
        f_lib = case.problem.f(x, y, t)
        f_ref = sec8_forcing_oracle(x, y, t)
        assert np.max(np.abs(f_lib - f_ref)) < 1e-10 * max(1.0, np.abs(f_ref).max())

    def test_sec8_gradient_matches_differences(self, rng):
        case = builtin_case("paper_sec8")
        x, y = 0.1 + 0.8 * rng.random(100), 0.1 + 0.8 * rng.random(100)
        t = 1.7
        d = 1e-6
        gx = (case.u(x + d, y, t) - case.u(x - d, y, t)) / (2 * d)
        gy = (case.u(x, y + d, t) - case.u(x, y - d, t)) / (2 * d)
        g = case.grad_u(x, y, t)
        assert np.max(np.abs(g[:, 0] - gx)) < 1e-4
        assert np.max(np.abs(g[:, 1] - gy)) < 1e-4

    def test_sec8_boundary_datum_vanishes(self, rng):
        case = builtin_case("paper_sec8")
        s = rng.random(100)
        zeros = np.zeros_like(s)
        ones = np.ones_like(s)
        for t in (0.0, 1.0, 4.0):
            for bx, by in ((s, zeros), (s, ones), (zeros, s), (ones, s)):
                assert np.max(np.abs(case.u(bx, by, t))) < 1e-13
                assert np.max(np.abs(case.problem.g(bx, by, t))) < 1e-13

    @pytest.mark.parametrize("name", ["paper_sec8", "zero", "steady_reaction"])
    def test_consistency_residual(self, name, rng):
        case = builtin_case(name)
        x, y = rng.random(100), rng.random(100)
        for t in rng.random(3) * case.problem.T:
            r = consistency_residual(case, x, y, float(t))
            assert np.max(np.abs(r)) < 1e-8

    @pytest.mark.parametrize("name", sorted(_REGISTRY))
    def test_exact_solution_broadcasts_over_times(self, name, rng):
        # x, y as a (1, m) row and t as a (3, 1) column: once broadcast,
        # row j equals the call with (m,) arrays at the scalar time t_j
        case = builtin_case(name)
        m = 37
        x, y = rng.random(m), rng.random(m)
        ts = np.sort(rng.random(3)) * case.problem.T
        u = np.broadcast_to(case.u(x[None], y[None], ts[:, None]), (3, m))
        g = np.broadcast_to(case.grad_u(x[None], y[None], ts[:, None]), (3, m, 2))
        for j, t in enumerate(ts):
            assert np.array_equal(u[j], case.u(x, y, t))
            assert np.array_equal(g[j], case.grad_u(x, y, t))

    def test_zero_case_trivial(self, rng):
        case = builtin_case("zero")
        x, y = rng.random(10), rng.random(10)
        assert np.all(case.u(x, y, 0.3) == 0)
        assert np.all(case.problem.f(x, y, 0.3) == 0)

    def test_steady_reaction_is_time_independent_biquadratic(self, rng):
        case = builtin_case("steady_reaction")
        x, y = rng.random(50), rng.random(50)
        assert np.allclose(case.u(x, y, 0.0), case.u(x, y, 0.77))
        # u is quadratic in x: the second x-difference is exactly
        # d^2 * (d^2 u / dx^2) = d^2 * (2 - y + y^2)
        d = 0.05
        second = case.u(x + d, y, 0.0) - 2 * case.u(x, y, 0.0) + case.u(x - d, y, 0.0)
        assert np.allclose(second, d * d * (2 - y + y**2))

    def test_steady_reaction_has_nonzero_boundary_data(self):
        case = builtin_case("steady_reaction")
        s = np.linspace(0, 1, 11)
        assert np.min(np.abs(case.problem.g(s, np.zeros_like(s), 0.0))) > 0.1


def inflow_by_side(disc, name, t=0.0):
    """Inflow mask of a built-in case, one (edges, q) block per side."""
    mask, _ = inflow_mask(disc, builtin_case(name).problem, t)
    return {side: mask[disc.boundary.side == side] for side in ("x0", "x1", "y0", "y1")}


class TestInflow:
    """The inflow set b . n < 0 at the edge quadrature points (``inflow_mask``)."""

    def test_spec_examples(self, square_gm):
        disc = make_disc(square_gm, 2, 3)
        sec8 = inflow_by_side(disc, "paper_sec8")  # b = (1, 1)
        assert sec8["x0"].all() and sec8["y0"].all()
        assert not sec8["x1"].any() and not sec8["y1"].any()
        # b = 0: b . n = 0 everywhere, and the inequality is strict
        mask, bn = inflow_mask(disc, builtin_case("zero").problem, 0.0)
        assert np.all(bn == 0.0)
        assert not mask.any()

    def test_vectorized(self, annulus_gm):
        # on the curved quarter annulus, b = (1, 1) enters through the inner
        # arc and both straight sides and leaves through the outer arc
        disc = make_disc(annulus_gm, 2, 3)
        sec8 = inflow_by_side(disc, "paper_sec8")
        assert sec8["x0"].all() and sec8["y0"].all() and sec8["y1"].all()
        assert not sec8["x1"].any()

    def test_sign_change_along_left_boundary(self, square_gm):
        # the steady case's field crosses zero at y = 1/2 on the side x = 0:
        # b . n = -(y - 1/2), negative (inflow) only above the midpoint
        disc = make_disc(square_gm, 2, 5)
        mask, _ = inflow_mask(disc, builtin_case("steady_reaction").problem, 0.0)
        left = disc.boundary.side == "x0"
        y = disc.boundary.x[left][..., 1]
        assert np.array_equal(mask[left], y > 0.5)
        assert mask[left].any() and not mask[left].all()


class TestAudit:
    def test_sec8_audit_clean(self):
        report = coefficient_audit(builtin_case("paper_sec8").problem)
        assert all(report.values())

    def test_steady_reaction_audit_clean(self):
        report = coefficient_audit(builtin_case("steady_reaction").problem)
        assert all(report.values())

    def test_violated_bounds_warn(self):
        p = builtin_case("paper_sec8").problem
        # mu doubled, mu1 = 1 kept: a wrong upper bound
        bad = replace(p, mu=lambda x, y, t: 2.0 * p.mu(x, y, t), mu0=2.0 * p.mu0)
        with pytest.warns(UserWarning, match="rayleigh"):
            coefficient_audit(bad)
