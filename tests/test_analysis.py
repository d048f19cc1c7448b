from dataclasses import replace

import numpy as np
import pytest

from nitsche_iga import (
    AssembledForms,
    ErrorReport,
    LevelRecord,
    TimeGrid,
    boundary_trace_sq,
    builtin_case,
    coercivity_audit,
    fit_slope,
    march,
    project_initial,
    sample_on_grid,
    space_time_errors,
    vh_norm,
)
from nitsche_iga import analysis, assembly
from nitsche_iga.analysis import check_boundary_datum, run_level, steps_for
from nitsche_iga.errors import ConfigError, InsufficientLevels
from nitsche_iga.quadrature import gauss_rule
from nitsche_iga.timestepping import SolutionTrajectory

from conftest import greville_grid, make_disc, reference_space_time_errors


def constant_one_coefficients(disc):
    # partition of unity: the constant 1 has unit coefficients
    return np.ones(disc.dimension)


class TestNorms:
    def test_zero_vector(self, square_gm):
        disc = make_disc(square_gm, 1, 3)
        assert vh_norm(np.zeros(disc.dimension), disc) == 0.0

    @pytest.mark.parametrize("spans", [2, 4, 8])
    def test_constant_on_unit_square(self, square_gm, spans):
        # ||1||_H1 = 1 and every boundary edge contributes h_E^-1 * h_E = 1,
        # so the squared norm is 1 + (number of boundary edges) = 1 + 4/h
        disc = make_disc(square_gm, 1, spans)
        val = vh_norm(constant_one_coefficients(disc), disc)
        assert val == pytest.approx(np.sqrt(1.0 + 4 * spans), rel=1e-12)

    def test_dominates_h1_part(self, square_gm, rng):
        disc = make_disc(square_gm, 2, 3)
        for _ in range(5):
            c = rng.standard_normal(disc.dimension)
            total_sq = vh_norm(c, disc) ** 2
            bdry_sq = boundary_trace_sq(c, disc)
            assert bdry_sq >= 0
            assert total_sq >= bdry_sq - 1e-13


class TestSpaceTimeErrors:
    def test_zero_case(self, square_gm):
        case = builtin_case("zero")
        disc = make_disc(square_gm, 1, 2)
        forms = AssembledForms(disc, case.problem)
        u0 = project_initial(disc, case.problem.u0)
        traj = march(forms, TimeGrid(4, case.problem.T), u0)
        err_h1, err_l2 = space_time_errors(traj, case)
        assert err_h1 < 1e-13
        assert err_l2 < 1e-13

    def test_stationary_member_of_space_has_zero_error(self, square_gm):
        # steady biquadratic exact solution, k = 2: the march reproduces a
        # constant-in-time trajectory and the measured error is roundoff
        case = builtin_case("steady_reaction")
        disc = make_disc(square_gm, 2, 4)
        forms = AssembledForms(disc, case.problem)
        u0 = project_initial(disc, case.problem.u0)
        traj = march(forms, TimeGrid(8, case.problem.T), u0)
        err_h1, _ = space_time_errors(traj, case)
        assert err_h1 < 1e-10

    @staticmethod
    def saturation(case, gm, degree, spans, num_steps):
        """Relative change of err_l2h1 from ``run_level`` at the default
        order, k + 2, to the same sequence over-integrated at order k + 6."""
        rec, _, _ = run_level(case, gm, degree, spans, num_steps, epsilon_factor=1.25)
        p = case.problem
        disc = make_disc(gm, degree, spans, quadrature_order=degree + 6)
        forms = AssembledForms(disc, p, epsilon_factor=1.25)
        traj = march(forms, TimeGrid(num_steps, p.T), project_initial(disc, p.u0))
        err = space_time_errors(traj, case)[0]
        return abs(rec.err_l2h1 - err) / err

    def test_quadrature_saturation(self, square_gm):
        change = self.saturation(builtin_case("paper_sec8"), square_gm, 1, 8, 32)
        assert change < 1e-3

    def test_quadrature_saturation_on_the_annulus(self, annulus_gm):
        change = self.saturation(builtin_case("steady_reaction"), annulus_gm, 2, 8, 1)
        assert change < 1e-3

    @pytest.mark.parametrize("name", ["paper_sec8", "steady_reaction", "zero"])
    @pytest.mark.parametrize("geometry", ["square_gm", "annulus_gm"])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("block", [2560, 320, 7])
    def test_matches_per_time_loop(self, request, monkeypatch, name, geometry, degree, block):
        # random coefficients, so that every case has a nonzero error at
        # every Gauss time; 1, 3, 7, 8 and 13 steps; a budget of ``block``
        # points of a 48-byte gradient.  The default, 2560, makes blocks of
        # up to nq / 2 steps and, but for k = 3 beyond 11 steps, of all 9
        # elements; 320 leaves a shorter last block of elements (k = 1, 2)
        # or of steps (k = 3 at 13 steps: 12 and 1); 7 holds less than one
        # element, so every block is one step and one element
        assert assembly.BLOCK_BYTES == 2560 * 48
        monkeypatch.setattr(assembly, "BLOCK_BYTES", block * 48)
        case = builtin_case(name)
        disc = make_disc(request.getfixturevalue(geometry), degree, 3)
        rng = np.random.default_rng(degree)
        for steps in (1, 3, 7, 8, 13):
            coefs = rng.standard_normal((steps + 1, disc.dimension))
            traj = SolutionTrajectory(coefs, TimeGrid(steps, case.problem.T), disc)
            assert space_time_errors(traj, case) == reference_space_time_errors(traj, case)

    @pytest.mark.parametrize(
        "spans, element_blocks", [(3, [9]), (16, [20] * 12 + [16])], ids=["spans3", "spans16"]
    )
    def test_exact_solution_called_once_per_block_pair(self, square_gm, spans, element_blocks):
        # k = 2 has 16 points per element, so a step block has 16 / 2 = 8
        # steps, and an element block the 20 elements whose gradient at 24
        # times fits the budget; 10 steps make a block of 8 and one of 2
        case = builtin_case("paper_sec8")
        calls = {"u": [], "grad_u": []}

        def counted(key):
            fn = getattr(case, key)

            def wrapper(x, y, t):
                calls[key].append((x.copy(), y.copy(), t.copy()))
                return fn(x, y, t)

            return wrapper

        counted_case = replace(case, u=counted("u"), grad_u=counted("grad_u"))
        disc = make_disc(square_gm, 2, spans)
        grid = TimeGrid(10, case.problem.T)
        coefs = np.zeros((11, disc.dimension))
        space_time_errors(SolutionTrajectory(coefs, grid, disc), counted_case)

        x = disc.elements.x
        times, _ = gauss_rule(3).mapped(grid.nodes[:-1, None], grid.nodes[1:, None])
        bounds = np.cumsum([0] + element_blocks)
        want = [
            (x[a:b, :, 0].reshape(1, -1), x[a:b, :, 1].reshape(1, -1), times[steps].reshape(-1, 1))
            for steps in (slice(0, 8), slice(8, 10))
            for a, b in zip(bounds[:-1], bounds[1:])
        ]
        for key, got in calls.items():
            assert len(got) == len(want), key
            for call, expected in zip(got, want):
                assert all(np.array_equal(a, b) for a, b in zip(call, expected)), key

    @pytest.mark.parametrize("key, bad", [
        ("u", lambda u: u[:1, :1, None]),  # extra axis: (1, 1, 1)
        ("grad_u", lambda g: g[:-1]),  # one time short: (3k - 1, b, 2)
    ])
    def test_closure_malformed_in_a_later_step_block_raises(self, square_gm, key, bad):
        # 10 steps make blocks of 8 and 2 steps; the closure is well formed
        # at the times of the first block and malformed at those of the
        # second, which all lie beyond 0.8 T
        case = builtin_case("paper_sec8")
        T = case.problem.T
        fn = getattr(case, key)
        seen = []

        def late_broken(x, y, t):
            value = fn(x, y, t)
            seen.append(t.min() > 0.8 * T)
            return bad(value) if seen[-1] else value

        broken = replace(case, **{key: late_broken})
        disc = make_disc(square_gm, 2, 3)
        traj = SolutionTrajectory(np.zeros((11, disc.dimension)), TimeGrid(10, T), disc)
        with pytest.raises(ValueError, match=rf"paper_sec8: {key} returned shape"):
            space_time_errors(traj, broken)
        assert seen == [False, True]

    @pytest.mark.parametrize(
        "key, bad",
        [
            ("grad_u", lambda g: g[..., 0]),  # trailing axis dropped: (3, b)
            ("grad_u", lambda g: g[0]),  # no time axis: (b, 2)
            ("u", lambda u: u[0]),  # no time axis: (b,)
            ("u", lambda u: u[..., None]),  # extra axis: (3, b, 1)
            ("grad_u", lambda g: g[:2]),  # two times of three: (2, b, 2)
        ],
    )
    def test_malformed_closure_shape_raises(self, square_gm, key, bad):
        case = builtin_case("paper_sec8")
        fn = getattr(case, key)
        broken = replace(case, **{key: lambda x, y, t: bad(fn(x, y, t))})
        disc = make_disc(square_gm, 2, 3)
        traj = SolutionTrajectory(np.zeros((3, disc.dimension)), TimeGrid(2, case.problem.T), disc)
        with pytest.raises(ValueError, match=rf"paper_sec8: {key} returned shape"):
            space_time_errors(traj, broken)

    @pytest.mark.parametrize("name", ["zero", "steady_reaction"])
    def test_time_independent_rows_pass_the_shape_check(self, square_gm, name):
        case = builtin_case(name)
        x = np.zeros((1, 5))
        t = np.zeros((3, 1))
        assert np.shape(case.grad_u(x, x, t)) == (1, 5, 2)
        disc = make_disc(square_gm, 2, 3)
        traj = SolutionTrajectory(np.zeros((3, disc.dimension)), TimeGrid(2, case.problem.T), disc)
        assert space_time_errors(traj, case) == reference_space_time_errors(traj, case)


class TestBoundaryDatum:
    @pytest.mark.parametrize("name", ["paper_sec8", "steady_reaction", "zero"])
    def test_consistent_on_the_square(self, square_gm, name):
        check_boundary_datum(builtin_case(name), make_disc(square_gm, 2, 4))

    @pytest.mark.parametrize("name", ["steady_reaction", "zero"])
    def test_consistent_on_the_annulus(self, annulus_gm, name):
        check_boundary_datum(builtin_case(name), make_disc(annulus_gm, 2, 4))

    def test_run_level_refuses_g_off_the_geometry(self, annulus_gm):
        # g = 0 is the trace of paper_sec8's u only on the unit square;
        # on the annulus |g - u| reaches 1.36e3
        with pytest.raises(ConfigError, match="Dirichlet datum"):
            run_level(builtin_case("paper_sec8"), annulus_gm, 2, 4, 1)

    def test_bound_is_relative_to_u(self, annulus_gm):
        # paper_sec8 with g taken from u: max |u| on the annulus boundary is
        # 1.36e3, so a relative error of 1e-10 in g (above 1e-8 in absolute
        # terms) is accepted and one of 1e-6 is refused
        case = builtin_case("paper_sec8")
        disc = make_disc(annulus_gm, 2, 4)
        check_boundary_datum(_with_g(case, lambda x, y, t: case.u(x, y, t) * (1 + 1e-10)), disc)
        with pytest.raises(ConfigError):
            check_boundary_datum(
                _with_g(case, lambda x, y, t: case.u(x, y, t) * (1 + 1e-6)), disc
            )

    def test_floor_for_zero_solution(self, annulus_gm):
        case = builtin_case("zero")
        disc = make_disc(annulus_gm, 2, 4)
        check_boundary_datum(_with_g(case, lambda x, y, t: np.full(len(x), 1e-12)), disc)
        with pytest.raises(ConfigError):
            check_boundary_datum(_with_g(case, lambda x, y, t: np.full(len(x), 1e-6)), disc)


def _with_g(case, g):
    return replace(case, problem=replace(case.problem, g=g))


class TestAudits:
    def test_alpha_hat_stable_in_time(self, square_gm):
        case = builtin_case("paper_sec8")
        disc = make_disc(square_gm, 1, 4)
        forms = AssembledForms(disc, case.problem, epsilon_factor=1.25)
        alphas = [
            coercivity_audit(disc, case.problem, forms.eps, t)[0] for t in (0.0, 2.0, 4.0)
        ]
        assert min(alphas) > 0
        assert max(alphas) <= 1.5 * min(alphas)

    def test_no_penalty_recorded_without_requirement(self, square_gm):
        # eps below the floor: the audit reports whatever it measures
        case = builtin_case("paper_sec8")
        disc = make_disc(square_gm, 1, 4)
        alpha_hat, ok = coercivity_audit(disc, case.problem, 1e-6, 0.0)
        assert isinstance(ok, bool)
        assert np.isfinite(alpha_hat)


class TestLevelSizes:
    @pytest.mark.parametrize("target", [-0.1, 0.0])
    def test_steps_for_refuses_a_target_that_is_not_positive(self, target):
        with pytest.raises(ConfigError, match="target time step must be positive"):
            steps_for(target, 1.0)

    @pytest.mark.parametrize("spans", [0, -1])
    def test_run_level_refuses_a_level_with_no_spans(self, square_gm, spans):
        with pytest.raises(ValueError, match="at least one span"):
            run_level(builtin_case("paper_sec8"), square_gm, 2, spans, 2)


class TestRates:
    def test_first_order_triplet(self):
        report = ErrorReport(
            [
                LevelRecord(4, 1 / 4, 0.1, 25, 0.4, 0.1, 1.0),
                LevelRecord(8, 1 / 8, 0.05, 81, 0.2, 0.05, 0.5),
                LevelRecord(16, 1 / 16, 0.025, 289, 0.1, 0.025, 0.25),
            ]
        )
        assert report.slope_l2h1() == pytest.approx(1.0)
        assert report.rates_l2h1() == pytest.approx([1.0, 1.0])

    def test_second_order_triplet(self):
        report = ErrorReport(
            [
                LevelRecord(4, 1 / 4, 0.1, 25, 0.4, 0.1, 1.0),
                LevelRecord(8, 1 / 8, 0.05, 81, 0.1, 0.05, 0.5),
                LevelRecord(16, 1 / 16, 0.025, 289, 0.025, 0.025, 0.25),
            ]
        )
        assert report.slope_l2h1() == pytest.approx(2.0)

    def test_insufficient_levels(self):
        report = ErrorReport([LevelRecord(4, 0.25, 0.1, 25, 0.4, 0.1, 1.0)])
        with pytest.raises(InsufficientLevels):
            report.slope_l2h1()
        with pytest.raises(InsufficientLevels):
            fit_slope([0.25], [0.4])


class TestSampling:
    def test_linear_field_reproduced(self, square_gm):
        # coefficients at Greville abscissae reproduce the coordinate field
        disc = make_disc(square_gm, 2, 3)
        coef = greville_grid(disc.space)[:, 0]
        x, y, vals = sample_on_grid(disc, coef)
        assert np.max(np.abs(vals - x)) < 1e-13

    def test_grid_covers_domain(self, square_gm):
        disc = make_disc(square_gm, 1, 2)
        x, y, vals = sample_on_grid(disc, np.zeros(disc.dimension))
        assert len(x) == 4096
        assert x.min() == 0.0 and x.max() == 1.0
        assert y.min() == 0.0 and y.max() == 1.0


class TestExports:
    def test_every_exported_name_resolves(self):
        missing = [name for name in analysis.__all__ if not hasattr(analysis, name)]
        assert missing == []
