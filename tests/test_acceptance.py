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
    uniform_open_knots,
    validate_knots,
    vh_norm,
)
from nitsche_iga.analysis import boundary_trace_sq, run_level, steps_for
from nitsche_iga.assembly import assemble_functional
from nitsche_iga.linalg import SparseFactor
from nitsche_iga.splines import collocation, eval_basis_many

from conftest import make_disc
from test_assembly import dense_oracle
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


def test_criterion_4_consistency(square_gm):
    # the steady case's exact solution is biquadratic, hence a member of
    # every degree-2 space; the stationary discrete solution must reproduce
    # it up to solver roundoff
    case = builtin_case("steady_reaction")
    disc = make_disc(square_gm, 2, 4)
    forms = AssembledForms(disc, case.problem, epsilon_factor=1.25)
    A, F = forms.at(0.0)
    uh = SparseFactor(A, disc.band).solve(F)
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

    local = np.concatenate([volume, edges])
    r = np.bincount(disc._gidx.ravel(), weights=local.ravel(), minlength=disc.dimension)
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

    def faulty(gm, side, lo, hi, rule):
        x_hat, x, J, w, normal = edge_geometry(gm, side, lo, hi, rule)
        along_dir2 = np.isin(side, ("x0", "x1"))[:, None]
        return (x_hat, x, J, *fault(along_dir2, J, w, normal))

    monkeypatch.setattr(assembly, "edge_geometry", faulty)
    ok, text = consistency_study()
    assert not ok, text
