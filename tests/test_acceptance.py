"""End-to-end acceptance criteria.

Each test prints one PASS/FAIL line (run with ``pytest -s`` or ``-rA`` to
see them all).  Tolerances are fixed here, not tuned elsewhere.
"""

import time

import numpy as np
import pytest

from nitsche_iga import (
    AssembledForms,
    TimeGrid,
    assemble_mass,
    assemble_stiffness,
    assembly,
    builtin_case,
    coercivity_audit,
    fit_slope,
    load_geometry,
    march,
    penalty_floor,
    project_initial,
    timestepping,
    uniform_open_knots,
    validate_knots,
    vh_norm,
)
from nitsche_iga.analysis import boundary_trace_sq, run_level, steps_for
from nitsche_iga.assembly import assemble_functional
from nitsche_iga.linalg import SparseFactor
from nitsche_iga.splines import collocation, eval_basis_many

from conftest import make_disc
from test_assembly import dense_oracle, reference_trace_constant
from test_splines import SHIPPED, cox_de_boor_table


def report(num, text, ok):
    print(f"\nACCEPTANCE {num}: {text} ... {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} failed: {text}"


@pytest.fixture(scope="module")
def square_gm():
    return load_geometry("square")


def _study(case, gm, degree, spans_list, tau_of_h):
    records = []
    for spans in spans_list:
        n = steps_for(tau_of_h(1.0 / spans), case.problem.T)
        rec, _, _ = run_level(case, gm, degree, spans, n, epsilon_factor=1.25)
        records.append(rec)
    return records


@pytest.fixture(scope="module")
def study_k1(square_gm):
    case = builtin_case("paper_sec8")
    t0 = time.perf_counter()
    records = _study(case, square_gm, 1, [8, 16, 32], lambda h: h / 4)
    return records, time.perf_counter() - t0


@pytest.fixture(scope="module")
def study_k2(square_gm):
    case = builtin_case("paper_sec8")
    t0 = time.perf_counter()
    records = _study(case, square_gm, 2, [4, 8, 16], lambda h: h * h)
    return records, time.perf_counter() - t0


def test_criterion_1_convergence_order_k1(study_k1):
    records, elapsed = study_k1
    slope = fit_slope([r.h for r in records], [r.err_l2h1 for r in records])
    ok = 0.85 <= slope <= 1.15 and elapsed < 60.0
    report(
        1,
        f"bilinear convergence slope {slope:.3f} in [0.85, 1.15] "
        f"({elapsed:.1f} s < 60 s)",
        ok,
    )


def test_criterion_2_convergence_order_k2(study_k2):
    records, elapsed = study_k2
    slope = fit_slope([r.h for r in records], [r.err_l2h1 for r in records])
    ok = 1.8 <= slope <= 2.2 and elapsed < 120.0
    report(
        2,
        f"biquadratic convergence slope {slope:.3f} in [1.8, 2.2] "
        f"({elapsed:.1f} s < 120 s)",
        ok,
    )


def test_criterion_3_coercivity(square_gm):
    case = builtin_case("paper_sec8")
    worst = np.inf
    for degree in (1, 2):
        for spans in (4, 8):
            disc = make_disc(square_gm, degree, spans)
            floor = penalty_floor(disc, case.problem)
            for eps in (floor, 1.25 * floor):
                for t in (0.0, 2.0, 4.0):
                    alpha_hat, _ = coercivity_audit(disc, case.problem, eps, t)
                    worst = min(worst, alpha_hat)
    report(
        3,
        f"smallest stability eigenvalue over k, mesh, t, eps >= floor: "
        f"{worst:.3e} > 0",
        worst > 0,
    )


# criterion 3 on the curved domain: steady_reaction on the quarter annulus
# at eps = floor, k = 2 and 3, 8 and 16 spans (at most 361 dof)
ANNULUS_COERCIVITY_RUNS = ((2, 8), (2, 16), (3, 8), (3, 16))


def annulus_coercivity():
    """Criterion 3's alpha_hat on the annulus at t = 0 (the case is
    autonomous), one per run of ``ANNULUS_COERCIVITY_RUNS``."""
    case, gm = builtin_case("steady_reaction"), load_geometry("quarter_annulus")
    alphas = []
    for degree, spans in ANNULUS_COERCIVITY_RUNS:
        disc = make_disc(gm, degree, spans)
        eps = penalty_floor(disc, case.problem)
        alphas.append(coercivity_audit(disc, case.problem, eps, 0.0)[0])
    return alphas


def test_criterion_3_coercivity_on_the_annulus():
    # measured 0.57 / 0.57 / 0.63 / 0.63; the edges' trace constants differ
    # on the curved domain, so the floor must take their max
    alphas = annulus_coercivity()
    runs = ", ".join(f"k={k} {s} spans: {a:.3f}" for (k, s), a in
                     zip(ANNULUS_COERCIVITY_RUNS, alphas))
    report(3, f"stability eigenvalue at eps = floor on the quarter annulus ({runs}) > 0",
           min(alphas) > 0)


def test_criterion_3_fails_with_the_min_trace_constant(monkeypatch):
    # the floor from the smallest edge's trace constant, not the largest:
    # on the square all edges agree and criterion 3 passes, here the runs
    # read -1.36 to -1.60
    monkeypatch.setattr(assembly, "trace_constant", lambda disc: reference_trace_constant(disc, min))
    alphas = annulus_coercivity()
    assert max(alphas) < 0, alphas


def test_criterion_4_consistency(square_gm):
    # the steady case's exact solution is biquadratic, hence a member of
    # every degree-2 space; the stationary discrete solution must reproduce
    # it up to solver roundoff
    case = builtin_case("steady_reaction")
    disc = make_disc(square_gm, 2, 4)
    forms = AssembledForms(disc, case.problem, epsilon_factor=1.25)
    A, F = forms.at(0.0)
    uh = SparseFactor(disc.matrix(A), disc.band).solve(F)
    M = assemble_mass(disc)
    rhs = assemble_functional(disc, lambda x, y: case.u(x, y, 0.0))
    exact_coef = SparseFactor(M, disc.band).solve(rhs)
    err = vh_norm(uh - exact_coef, disc)
    report(4, f"stationary biquadratic reproduced, V_h error {err:.3e} <= 1e-9",
           err <= 1e-9)


def test_criterion_5_weak_boundary_convergence(study_k1):
    records, _ = study_k1
    vals = [r.err_bdry for r in records]
    monotone = all(b < a for a, b in zip(vals, vals[1:]))
    ratio = vals[0] / vals[-1]
    report(
        5,
        f"boundary trace sum {vals[0]:.3e} -> {vals[-1]:.3e} "
        f"monotone={monotone}, total factor {ratio:.1f} >= 4",
        monotone and ratio >= 4.0,
    )


@pytest.mark.filterwarnings("ignore:penalty eps")
def test_criterion_6_oracle_equivalence(square_gm):
    worst = 0.0
    for degree in (1, 2):
        for name, t in (("paper_sec8", 1.0), ("steady_reaction", 0.5)):
            case = builtin_case(name)
            disc = make_disc(square_gm, degree, 2, quadrature_order=8)
            A = assemble_stiffness(disc, case.problem, 3.0, t).toarray()
            F = AssembledForms(disc, case.problem, epsilon=3.0).at(t)[1]
            A_ref, F_ref = dense_oracle(disc.space, case.problem, 3.0, t, q=12)
            worst = max(
                worst,
                np.abs(A - A_ref).max() / np.abs(A_ref).max(),
                np.abs(F - F_ref).max() / max(1.0, np.abs(F_ref).max()),
            )
    report(6, f"sparse vs dense brute-force assembly, worst deviation {worst:.2e} "
              f"< 1e-10", worst < 1e-10)


def test_criterion_7_spline_kernel():
    rng = np.random.default_rng(202406)
    worst_pu = 0.0
    worst_ds = 0.0
    worst_tab = 0.0
    for knots, k in SHIPPED:
        kv = validate_knots(knots, k)
        xs = rng.random(1000)
        _, ders = eval_basis_many(kv, xs)
        worst_pu = max(worst_pu, np.max(np.abs(ders[:, 0].sum(axis=1) - 1.0)))
        worst_ds = max(worst_ds, np.max(np.abs(ders[:, 1].sum(axis=1))))
        for x, dense in zip(xs[:100], collocation(kv, xs[:100])[0]):
            table = cox_de_boor_table(knots, k, float(x))
            worst_tab = max(worst_tab, np.abs(dense - table).max())
    ok = worst_pu < 1e-13 and worst_ds < 1e-13 and worst_tab < 1e-14
    report(
        7,
        f"partition of unity {worst_pu:.1e}, derivative sums {worst_ds:.1e} "
        f"< 1e-13; full-table deviation {worst_tab:.1e} < 1e-14",
        ok,
    )


def test_criterion_8_unconditional_steps(square_gm):
    case = builtin_case("paper_sec8")
    disc = make_disc(square_gm, 1, 8)
    forms = AssembledForms(disc, case.problem, epsilon_factor=1.25)
    u0 = project_initial(disc, case.problem.u0)
    worst = 0.0
    for tau in (4.0, 0.4, 0.004):
        n = max(1, round(case.problem.T / tau))
        traj = march(forms, TimeGrid(n, case.problem.T), u0)
        worst = max(worst, np.abs(traj.coefs).max())
    report(8, f"march succeeded for tau in {{4, 0.4, 0.004}}, max coefficient "
              f"{worst:.3e} < 1e6", np.isfinite(worst) and worst < 1e6)


def test_criterion_9_curved_domain_convergence(annulus_gm):
    # the quarter annulus is an exact NURBS map; steady_reaction's g is the
    # trace of its exact solution there, so the rate is the space's own
    case = builtin_case("steady_reaction")
    t0 = time.perf_counter()
    records = _study(case, annulus_gm, 2, [4, 8, 16], lambda h: h)
    elapsed = time.perf_counter() - t0
    slope = fit_slope([r.h for r in records], [r.err_l2h1 for r in records])
    report(
        9,
        f"biquadratic convergence slope on the quarter annulus {slope:.3f} >= 1.8 "
        f"({elapsed:.1f} s < 60 s)",
        slope >= 1.8 and elapsed < 60.0,
    )


COMPLEX_STEP = 1e-30


def consistency_residual_norm(case, disc, eps, t):
    """||r||_{V_h'} = (r^T G^-1 r)^(1/2), G = ``disc.vh_gram``, of the residual
    r_i = (du/dt, N_i) + a_h(t; u, N_i) - l_h(t; N_i) of the exact solution u
    in the discrete forms at penalty ``eps``.

    Every term is taken at the discretization's own quadrature points, so r
    is its quadrature error alone: with exact integrals the flux term of
    a_h cancels the boundary term of the volume form integrated by parts,
    and the PDE leaves the rest zero.  du/dt is a complex step in t.
    """
    p = case.problem
    ec, bc = disc.elements, disc.boundary

    def at(points, func, time=t):
        flat = points.reshape(-1, 2)
        values = np.asarray(func(flat[:, 0], flat[:, 1], time))
        return values.reshape(points.shape[:-1] + values.shape[1:])

    # (du/dt + b . grad u + c u - f, N_i) + (mu grad u, grad N_i) per element
    grad = at(ec.x, case.grad_u)
    du_dt = at(ec.x, case.u, t + 1j * COMPLEX_STEP).imag / COMPLEX_STEP
    b, c, f = (at(ec.x, fn) for fn in (p.b, p.c, p.f))
    strong = du_dt + np.sum(b * grad, axis=-1) + c * at(ec.x, case.u) - f
    flux = (at(ec.x, p.mu) @ grad[..., None])[..., 0]
    volume = np.einsum("eq,eql->el", ec.w * strong, ec.B)
    volume += np.einsum("eq,eqa,eqla->el", ec.w, flux, ec.G)

    # the Nitsche terms with the trial function u and the load's g:
    # sigma (u - g) N_i - N_i n . mu grad u - (n . mu grad N_i) (u - g)
    n, mu = bc.normal, at(bc.x, p.mu)
    jump = at(bc.x, case.u) - at(bc.x, p.g)
    flux_u = np.einsum("fqa,fqab,fqb->fq", n, mu, at(bc.x, case.grad_u))
    flux_test = np.einsum("fqa,fqab,fqlb->fql", n, mu, bc.G)
    sigma = (eps / bc.h_E)[:, None] - np.minimum(np.sum(at(bc.x, p.b) * n, axis=-1), 0.0)
    edges = np.einsum("fq,fql->fl", bc.w * (sigma * jump - flux_u), bc.B)
    edges -= np.einsum("fq,fql->fl", bc.w * jump, flux_test)

    # summed at the global indices of the elements and then of the edges
    local, gidx = np.concatenate([volume, edges]), np.concatenate([ec.gidx, bc.gidx])
    r = np.bincount(gidx.ravel(), weights=local.ravel(), minlength=disc.dimension)
    return float(np.sqrt(r @ SparseFactor(disc.vh_gram, disc.band).solve(r)))


# criterion 12: the cases, degrees and spans, and the times of each case
CONSISTENCY_RUNS = (("paper_sec8", "square", (0.0, 2.0, 4.0)),
                    ("steady_reaction", "quarter_annulus", (0.0,)))
CONSISTENCY_SPANS = (8, 16)
CONSISTENCY_BOUND = 1e-6
CONSISTENCY_FALL = 16.0


def consistency_study():
    """Criterion 12's verdict and text: ||r||_{V_h'} (worst over the times)
    at the default penalty, at most ``CONSISTENCY_BOUND`` at 8 and 16 spans
    and falling by ``CONSISTENCY_FALL`` or more between them, for each case
    at k = 2 and 3."""
    ok, rows = True, []
    for name, geometry, times in CONSISTENCY_RUNS:
        case, gm = builtin_case(name), load_geometry(geometry)
        for degree in (2, 3):
            norms = []
            for spans in CONSISTENCY_SPANS:
                disc = make_disc(gm, degree, spans)
                eps = AssembledForms(disc, case.problem).eps
                norms.append(max(consistency_residual_norm(case, disc, eps, t) for t in times))
            ok &= max(norms) <= CONSISTENCY_BOUND and norms[0] >= CONSISTENCY_FALL * norms[1]
            rows.append(f"{name}/{geometry} k={degree}: {norms[0]:.2e} -> {norms[1]:.2e}")
    return ok, "; ".join(rows)


def test_criterion_12_consistency_residual():
    t0 = time.perf_counter()
    ok, text = consistency_study()
    elapsed = time.perf_counter() - t0
    report(
        12,
        f"exact solution in the discrete forms at 8 -> 16 spans, ||r||_(V_h') "
        f"<= {CONSISTENCY_BOUND:g} and falling {CONSISTENCY_FALL:g}x: {text} "
        f"({elapsed:.2f} s < 5 s)",
        ok and elapsed < 5.0,
    )


def unnormalized_normals(along_dir2, J, w, normal):
    """The normals scaled back to their length before normalization: |n|
    falls to about 0.36 on the annulus, and criterion 9's slope passes."""
    inv_jac = np.linalg.inv(J)
    row = np.where(along_dir2[..., None], inv_jac[..., 0, :], inv_jac[..., 1, :])
    return w, normal * np.linalg.norm(row, axis=-1)[..., None]


def no_arc_length(along_dir2, J, w, normal):
    """Edge weights without the tangent length, so h_E is the span width."""
    tangent = np.where(along_dir2[..., None], J[..., 1], J[..., 0])
    return w / np.linalg.norm(tangent, axis=-1), normal


@pytest.mark.parametrize("fault", [unnormalized_normals, no_arc_length],
                         ids=["normals", "arc_length"])
def test_criterion_12_fails_under_an_edge_fault(monkeypatch, fault):
    # the square's edges are straight and unit-speed, so only the annulus
    # rows see the fault: near 0.5 (normals) or 3 (arc length) at both spans
    edge_geometry = assembly.edge_geometry

    def faulty(gm, space, rule):
        x, J, w, normal = edge_geometry(gm, space, rule)
        # in SIDES order, x0 and x1 (along direction 2) come first
        along_dir2 = (np.arange(len(w)) < 2 * space.num_spans[1])[:, None]
        return (x, J, *fault(along_dir2, J, w, normal))

    monkeypatch.setattr(assembly, "edge_geometry", faulty)
    ok, text = consistency_study()
    assert not ok, text


# criterion 14: paper_sec8 on the square at k = 2, its spans and steps, and
# the bound c on each step's residual
DISCRETE_SYSTEM_LEVELS = ((4, 8), (8, 16), (16, 32))
DISCRETE_SYSTEM_BOUND = 1e-12


def discrete_system_study():
    """Criterion 14's verdict and text: whether the marched u^n solve the
    fully discrete system, M (u^n - u^(n-1)) + tau (A(t_n) u^n - F(t_n)) = 0,
    with A(t_n) and F(t_n) from a second ``AssembledForms`` that the march
    does not call.  The residual of each step, over
    ||M u^(n-1)|| + tau ||F(t_n)||, must be at most ``DISCRETE_SYSTEM_BOUND``
    at every step of every level.

    The bound: the ratio read 4.5e-16, 1.1e-15 and 4.4e-15 at 4, 8 and 16
    spans, so 1e-12 leaves a margin of over 200 at the finest level, and lies
    far below the 0.086 to 0.30 of a march that samples its forms at
    t_(n-1), whose load moves with t.
    """
    p = builtin_case("paper_sec8").problem
    gm = load_geometry("square")
    worst = []
    for spans, steps in DISCRETE_SYSTEM_LEVELS:
        disc = make_disc(gm, 2, spans)
        grid = TimeGrid(steps, p.T)
        traj = timestepping.march(AssembledForms(disc, p), grid, project_initial(disc, p.u0))
        forms, M, tau = AssembledForms(disc, p), disc.mass, grid.tau
        ratios = []
        for u_prev, u, t in zip(traj.coefs[:-1], traj.coefs[1:], grid.nodes[1:]):
            A, F = forms.at(t)
            r = M @ (u - u_prev) + tau * (disc.matrix(A) @ u - F)
            scale = np.linalg.norm(M @ u_prev) + tau * np.linalg.norm(F)
            ratios.append(np.linalg.norm(r) / scale)
        worst.append(max(ratios))
    rows = [f"{s} spans/{n} steps {w:.1e}" for (s, n), w in zip(DISCRETE_SYSTEM_LEVELS, worst)]
    return max(worst) <= DISCRETE_SYSTEM_BOUND, "; ".join(rows)


def test_criterion_14_march_solves_the_discrete_system():
    ok, text = discrete_system_study()
    report(14, f"backward-Euler residual of the march over ||M u^(n-1)|| + tau ||F|| "
               f"<= {DISCRETE_SYSTEM_BOUND:g}: {text}", ok)


def test_criterion_14_fails_when_the_march_samples_at_the_previous_time(monkeypatch):
    # the march's own forms sampled at t_(n-1); the second forms are not
    march = timestepping.march

    def lagged(forms, grid, u0):
        at = forms.at
        monkeypatch.setattr(forms, "at", lambda t: at(t - grid.tau))
        return march(forms, grid, u0)

    monkeypatch.setattr(timestepping, "march", lagged)
    ok, text = discrete_system_study()
    assert not ok, text
