from dataclasses import replace

import numpy as np
import pytest

from nitsche_iga import (
    AssembledForms,
    TimeGrid,
    builtin_case,
    march,
    project_initial,
)
from nitsche_iga import assembly
from nitsche_iga.analysis import boundary_trace_sq
from nitsche_iga.assembly import assemble_functional, assemble_stiffness
from nitsche_iga.errors import ConfigError
from nitsche_iga.linalg import SparseFactor
from nitsche_iga.splines import collocation

from conftest import greville_grid, make_disc, reference_load


def step_residuals(forms, traj):
    """Max-norm residual of each discrete step equation (a wiring check)."""
    grid = traj.grid
    M = forms.disc.mass
    out = np.empty(grid.num_steps)
    for step in range(1, grid.num_steps + 1):
        t = grid.nodes[step]
        A, F = forms.at(t)
        lhs = (M + grid.tau * A) @ traj.coefs[step]
        rhs = M @ traj.coefs[step - 1] + grid.tau * F
        out[step - 1] = np.abs(lhs - rhs).max()
    return out


def rebuilt_march(forms, grid, u0):
    """Reference march that assembles the operator and the load at every step,
    each from its own sampling, adds the operator to the mass matrix as
    sparse matrices and factors the sum in the band of the discretization."""
    disc, p, eps = forms.disc, forms.problem, forms.eps
    M = disc.mass
    coefs = [u0]
    for t in grid.nodes[1:]:
        factor = SparseFactor(M + grid.tau * assemble_stiffness(disc, p, eps, t), disc.band)
        coefs.append(factor.solve(M @ coefs[-1] + grid.tau * reference_load(disc, p, eps, t)))
    return np.array(coefs)


class TestTimeGrid:
    def test_nodes_end_at_T(self):
        grid = TimeGrid(7, 4.0)
        assert grid.tau == pytest.approx(4.0 / 7)
        assert abs(grid.nodes[-1] - 4.0) < 1e-12
        assert len(grid.nodes) == 8

    def test_invalid(self):
        with pytest.raises(ValueError):
            TimeGrid(0, 1.0)
        with pytest.raises(ValueError):
            TimeGrid(4, 0.0)
        for T in (np.nan, np.inf):
            with pytest.raises(ValueError, match=f"final time .* got {T}"):
                TimeGrid(4, T)

    def test_step_count_must_be_an_integer(self):
        for n in (2.5, 3.0, "3"):
            with pytest.raises(TypeError):
                TimeGrid(n, 1.0)
        grid = TimeGrid(np.int64(4), 1.0)
        assert grid.tau == 0.25
        assert len(grid.nodes) == 5


class TestProjection:
    def test_mass_assembled_once_per_discretization(self, square_gm, monkeypatch):
        # the projection and the march share the matrix cached on the
        # discretization
        calls = []
        original = assembly.assemble_mass
        monkeypatch.setattr(
            assembly, "assemble_mass", lambda disc: calls.append(disc) or original(disc)
        )
        case = builtin_case("paper_sec8")
        disc = make_disc(square_gm, 1, 3)
        u0 = project_initial(disc, case.problem.u0)
        march(AssembledForms(disc, case.problem), TimeGrid(2, case.problem.T), u0)
        assert calls == [disc]
        assert disc.mass is disc.mass

    def test_zero_datum(self, square_gm):
        disc = make_disc(square_gm, 1, 3)
        c = project_initial(disc, lambda x, y: np.zeros_like(x))
        assert np.max(np.abs(c)) < 1e-14

    def test_reproduces_members_of_the_space(self, square_gm):
        # projecting a single basis function returns its unit coefficient
        disc = make_disc(square_gm, 2, 3)
        space = disc.space
        i1, i2 = 2, 1
        j = i1 + space.shape[0] * i2  # direction 1 fastest

        def basis_j(x, y):
            return collocation(space.kv1, x)[0, :, i1] * collocation(space.kv2, y)[0, :, i2]

        c = project_initial(disc, basis_j)
        expected = np.zeros(space.dimension)
        expected[j] = 1.0
        assert np.max(np.abs(c - expected)) < 1e-12

    def test_beats_greville_interpolation(self, square_gm):
        # L2 projection is L2-optimal; the collocation interpolant is not
        case = builtin_case("paper_sec8")
        disc = make_disc(square_gm, 2, 8)
        space = disc.space
        u0 = case.problem.u0

        c_proj = project_initial(disc, u0)

        grev = greville_grid(space)
        n = space.dimension
        B = np.zeros((n, n))
        C1 = collocation(space.kv1, grev[:, 0])[0]
        C2 = collocation(space.kv2, grev[:, 1])[0]
        for r in range(n):
            B[r] = np.kron(C2[r], C1[r])  # g = i1 + n1 * i2
        c_interp = np.linalg.solve(B, u0(grev[:, 0], grev[:, 1]))

        def l2_error(coef):
            ec = disc.elements
            vals = ec.field(coef)[..., 0]
            exact = u0(ec.x[..., 0].ravel(), ec.x[..., 1].ravel()).reshape(vals.shape)
            return np.sqrt(np.sum(ec.w * (exact - vals) ** 2))

        assert l2_error(c_proj) < l2_error(c_interp)


class TestMarch:
    def test_zero_case_stays_zero(self, square_gm):
        case = builtin_case("zero")
        disc = make_disc(square_gm, 1, 3)
        forms = AssembledForms(disc, case.problem)
        u0 = project_initial(disc, case.problem.u0)
        traj = march(forms, TimeGrid(5, case.problem.T), u0)
        assert np.max(np.abs(traj.coefs)) < 1e-14

    def test_step_residuals_small(self, square_gm):
        case = builtin_case("paper_sec8")
        disc = make_disc(square_gm, 1, 4)
        forms = AssembledForms(disc, case.problem)
        u0 = project_initial(disc, case.problem.u0)
        traj = march(forms, TimeGrid(8, case.problem.T), u0)
        assert np.max(step_residuals(forms, traj)) < 1e-9

    def test_frozen_operator_matches_rebuilt_for_autonomous_case(self, square_gm):
        case = builtin_case("paper_sec8")  # time-independent coefficients
        disc = make_disc(square_gm, 1, 3)
        forms = AssembledForms(disc, case.problem)
        u0 = project_initial(disc, case.problem.u0)
        grid = TimeGrid(6, case.problem.T)
        traj = march(forms, grid, u0)
        assert traj.factorizations == 1  # the operator was reused, not rebuilt
        assert np.max(np.abs(traj.coefs - rebuilt_march(forms, grid, u0))) < 1e-12

    def test_converges_to_stationary_solution(self, square_gm):
        # autonomous data: backward Euler contracts toward A u = F;
        # run on a horizon longer than the case T to watch the contraction
        from nitsche_iga.linalg import SparseFactor

        case = builtin_case("steady_reaction")
        disc = make_disc(square_gm, 1, 4)
        forms = AssembledForms(disc, case.problem)
        A, F = forms.at(0.0)
        u_inf = SparseFactor(A, disc.band).solve(F)

        grid = TimeGrid(40, 8.0)
        M = forms.disc.mass
        factor = SparseFactor(M + grid.tau * A, disc.band)
        u = np.zeros(disc.dimension)  # start far from the steady state
        resids = []
        for _ in range(grid.num_steps):
            u = factor.solve(M @ u + grid.tau * F)
            resids.append(np.linalg.norm(A @ u - F))
        resids = np.array(resids)
        assert np.all(np.diff(resids) < 1e-12)  # monotone decrease
        assert resids[-1] < 1e-6 * resids[0]
        assert np.max(np.abs(u - u_inf)) < 1e-7

    @pytest.mark.parametrize("tau", [4.0, 0.4, 0.004])
    def test_unconditional_solvability(self, square_gm, tau):
        # any step size must factor and produce bounded coefficients once
        # the penalty sits above the floor
        case = builtin_case("paper_sec8")
        disc = make_disc(square_gm, 1, 4)
        forms = AssembledForms(disc, case.problem, epsilon_factor=1.0)
        u0 = project_initial(disc, case.problem.u0)
        n = max(1, round(case.problem.T / tau))
        traj = march(forms, TimeGrid(n, case.problem.T), u0)
        assert np.isfinite(traj.coefs).all()
        assert np.max(np.abs(traj.coefs)) < 1e6

    def test_boundary_weakness_shrinks_under_refinement(self, square_gm):
        case = builtin_case("paper_sec8")
        values = []
        for spans in (4, 8, 16):
            disc = make_disc(square_gm, 1, spans)
            forms = AssembledForms(disc, case.problem, epsilon_factor=1.25)
            u0 = project_initial(disc, case.problem.u0)
            n = 16 * spans // 4
            traj = march(forms, TimeGrid(n, case.problem.T), u0)
            values.append(boundary_trace_sq(traj.final, disc))
        assert values[0] > values[1] > values[2]
        assert values[0] / values[2] >= 4.0


def _inside(x, y):
    return (x > 0) & (x < 1) & (y > 0) & (y < 1)


# name: (coefficient of paper_sec8, pointwise factor (x, y, t) -> (m,)).
# Gauss points of the volume never sit on the boundary, so a factor gated on
# x == 0 or x == 1 changes a coefficient at edge quadrature points only.
VARIANTS = {
    "b_grows": ("b", lambda x, y, t: np.full(len(x), 1.0 + t)),  # same inflow mask
    "c_grows": ("c", lambda x, y, t: np.full(len(x), 1.0 + t)),
    "b_changes_inside_only": ("b", lambda x, y, t: 1.0 + 0.1 * t * _inside(x, y)),
    "mu_changes_inside_only": ("mu", lambda x, y, t: 1.0 + 0.1 * t * _inside(x, y)),
    "mu_jumps_after_half": ("mu", lambda x, y, t: np.full(len(x), 2.0 if t > 2.0 else 1.0)),
    "mu_changes_on_edge_x1": ("mu", lambda x, y, t: 1.0 + 0.1 * t * (x == 1.0)),
    "b_changes_on_inflow_edge_x0": ("b", lambda x, y, t: 1.0 + 0.1 * t * (x == 0.0)),
}


def _sec8_variant(name):
    """``paper_sec8`` (T = 4) with one coefficient scaled by a factor of VARIANTS."""
    p = builtin_case("paper_sec8").problem
    if name == "autonomous":
        return p
    key, factor = VARIANTS[name]
    base = getattr(p, key)

    def scaled(x, y, t):
        v = base(x, y, t)
        return factor(x, y, t).reshape((-1,) + (1,) * (v.ndim - 1)) * v

    return replace(p, **{key: scaled}, mu1=2.0 if key == "mu" else p.mu1)


class TestOperatorReuse:
    STEPS = 6

    @pytest.mark.parametrize(
        "name, factorizations",
        [
            ("autonomous", 1),
            ("b_grows", STEPS),
            ("c_grows", STEPS),
            ("b_changes_inside_only", STEPS),
            ("mu_changes_inside_only", STEPS),
            ("mu_jumps_after_half", 2),
            ("mu_changes_on_edge_x1", STEPS),
            ("b_changes_on_inflow_edge_x0", STEPS),
        ],
    )
    def test_factorizations_and_bit_equal_trajectory(self, square_gm, name, factorizations):
        p = _sec8_variant(name)
        disc = make_disc(square_gm, 1, 3)
        forms = AssembledForms(disc, p)
        u0 = project_initial(disc, p.u0)
        grid = TimeGrid(self.STEPS, p.T)
        traj = march(forms, grid, u0)
        assert traj.factorizations == factorizations
        assert np.array_equal(traj.coefs, rebuilt_march(forms, grid, u0))

    def test_edge_gates_miss_the_volume_points(self, square_gm):
        disc = make_disc(square_gm, 1, 3)
        xe, xv = disc.boundary.x[..., 0], disc.elements.x[..., 0]
        for edge in (0.0, 1.0):
            assert (xe == edge).any()
            assert not (xv == edge).any()

    def test_stiffness_object_reused_only_while_inputs_match(self, square_gm):
        disc = make_disc(square_gm, 1, 3)
        forms = AssembledForms(disc, _sec8_variant("autonomous"))
        assert forms.at(0.0)[0] is forms.at(4.0)[0]
        forms = AssembledForms(disc, _sec8_variant("b_grows"))
        A0 = forms.at(0.0)[0]
        assert forms.at(1.0)[0] is not A0
        assert forms.at(1.0)[0] is forms.at(1.0)[0]


def _after_first_step(first, after):
    """Coefficient closure that returns ``first(x)`` at t = 0 and ``after(x)`` later."""
    return lambda x, y, t: first(x) if t == 0.0 else after(x)


def _c_with_one_point(value):
    def c(x):
        v = np.ones(len(x))
        v[0] = value
        return v

    return c


def _b_with_second_component(value):
    def b(x):
        v = np.ones((len(x), 2))
        v[0, 1] = value
        return v

    return b


class TestReuseCheck:
    """``AssembledForms.at`` against its kept copies: any change of a
    sampled coefficient's bits, shape or dtype gives a new matrix object."""

    def _forms(self, square_gm, **coefficients):
        p = replace(builtin_case("paper_sec8").problem, **coefficients)
        return AssembledForms(make_disc(square_gm, 1, 3), p)

    def _b_gated_on_first_edge_point(self, square_gm):
        disc = make_disc(square_gm, 1, 3)
        xq, yq = disc.boundary.x[0, 0]

        def b(x, y, t):
            at = (x == xq) & (y == yq) & (t > 0.0)
            return np.ones((len(x), 2)) * (1.0 + at)[:, None]

        return b

    @pytest.mark.parametrize(
        "key, same, changed",
        [
            # one volume point, one ulp
            ("c", _c_with_one_point(1.0), _c_with_one_point(np.nextafter(1.0, 2.0))),
            # one point, sign of zero only
            ("b", _b_with_second_component(0.0), _b_with_second_component(-0.0)),
            # equal values, float32 instead of float64
            ("c", lambda x: np.ones(len(x)), lambda x: np.ones(len(x), dtype=np.float32)),
        ],
        ids=["c_one_ulp", "b_signed_zero", "c_float32"],
    )
    def test_change_gives_new_matrix(self, square_gm, key, same, changed):
        forms = self._forms(square_gm, **{key: _after_first_step(same, changed)})
        A0 = forms.at(0.0)[0]
        assert forms.at(0.0)[0] is A0
        A1 = forms.at(1.0)[0]
        assert A1 is not A0
        assert forms.at(2.0)[0] is A1

    def test_bn_change_at_one_edge_point_gives_new_matrix(self, square_gm):
        forms = self._forms(square_gm, b=self._b_gated_on_first_edge_point(square_gm))
        disc = forms.disc
        before = assembly._operator_coefficients(disc, forms.problem, 0.0)
        after = assembly._operator_coefficients(disc, forms.problem, 1.0)
        differ = [not np.array_equal(a, b) for a, b in zip(before, after)]
        assert differ == [False, False, False, False, True]  # b . n alone
        assert np.count_nonzero(before[4] != after[4]) == 1
        A0 = forms.at(0.0)[0]
        assert forms.at(1.0)[0] is not A0

    def test_kept_arrays_are_copies(self, square_gm):
        # the closure overwrites one buffer in place and returns it each call
        buf = []

        def c(x, y, t):
            if not buf:
                buf.append(np.ones(len(x)))
            buf[0][0] = 1.0 + t
            return buf[0]

        forms = self._forms(square_gm, c=c)
        A0 = forms.at(0.0)[0]
        A1 = forms.at(1.0)[0]
        assert A1 is not A0
        assert forms.at(1.0)[0] is A1

    def test_stride_zero_sample_is_compared_and_reused(self, square_gm):
        def c(x, y, t):
            return np.broadcast_to(2.0 if t < 2.0 else 3.0, x.shape)

        forms = self._forms(square_gm, c=c)
        cv = assembly._operator_coefficients(forms.disc, forms.problem, 0.0)[2]
        assert cv.strides[-1] == 0
        A0 = forms.at(0.0)[0]
        assert forms.at(1.0)[0] is A0
        assert forms.at(3.0)[0] is not A0

    def test_equal_values_in_another_layout_are_reused(self, square_gm):
        # a repeated value at t = 0, the same values in a fresh array after
        forms = self._forms(
            square_gm,
            c=_after_first_step(lambda x: np.broadcast_to(2.0, x.shape), lambda x: np.full(x.shape, 2.0)),
        )
        A0 = forms.at(0.0)[0]
        assert forms.at(1.0)[0] is A0

    @pytest.mark.parametrize(
        "a, b, equal",
        [
            (np.float64(np.nan), np.float64(np.nan), True),
            (np.float64(np.nan), -np.float64(np.nan), False),
            (np.uint64(0x7FF8000000000001).view(np.float64), np.float64(np.nan), False),
            (0.0, -0.0, False),
            (np.float32(1.0), np.float64(1.0), False),
        ],
    )
    def test_same_bits_compares_bits(self, a, b, equal):
        a = np.broadcast_to(np.asarray(a), (4, 3))
        b = np.asarray(b)
        assert assembly._same_bits(a, assembly._kept(np.full((4, 3), b))) is equal
        assert assembly._same_bits(a, assembly._kept(np.broadcast_to(b, (4, 3)))) is equal


def _from_second_step(at):
    """Mask (x, y, t) -> (m,) of the points ``at(x, y)`` from t = 2 on: the
    second step of a march of paper_sec8 in four."""
    return lambda x, y, t: at(x, y) & (t >= 2.0)


def _first(x, y):
    return np.arange(len(x)) == 0


# name: (closure of paper_sec8, mask, value at the masked points); the first
# sampled point of a volume closure is a volume point, and x == 0 or 1 is
# met at edge points alone
NON_FINITE = {
    "c_nan_at_one_point": ("c", _from_second_step(_first), np.nan),
    "c_nan_everywhere": ("c", _from_second_step(lambda x, y: x == x), np.nan),
    "f_inf_at_one_point": ("f", _from_second_step(_first), np.inf),
    "mu_nan_on_edge_x1": ("mu", _from_second_step(lambda x, y: x == 1.0), np.nan),
    "b_inf_on_edge_x0": ("b", _from_second_step(lambda x, y: x == 0.0), np.inf),
    "g_nan_everywhere": ("g", _from_second_step(lambda x, y: x == x), np.nan),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE))
def test_non_finite_coefficient_names_the_closure_and_time(square_gm, name):
    # at the parent a NaN in c surfaced as a singular factorization, and a
    # non-finite f or g as a non-finite solution
    key, mask, value = NON_FINITE[name]
    p = builtin_case("paper_sec8").problem
    base = getattr(p, key)

    def spoiled(x, y, t):
        v = np.asarray(base(x, y, t))
        return np.where(mask(x, y, t).reshape((-1,) + (1,) * (v.ndim - 1)), value, v)

    p = replace(p, **{key: spoiled})
    disc = make_disc(square_gm, 2, 3)
    forms = AssembledForms(disc, p, epsilon=10.0)
    named = rf"coefficient {key}\(x, y, t\) is not finite at t = 2: it takes the value {value}"
    with pytest.raises(ConfigError, match=named):
        march(forms, TimeGrid(4, p.T), project_initial(disc, p.u0))
