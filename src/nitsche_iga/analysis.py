"""Error norms, spectral stability audits, and convergence-rate extraction.

The space-time error treats the discrete trajectory as the
piecewise-constant-in-time extension (u(t) = u^{n+1} on (t_n, t_{n+1}]);
per step interval the exact solution is resolved with a 3-point Gauss rule
in time, and space integrals use the element quadrature of the
discretization.  Spectral audits (coercivity, continuity) convert the
assembled matrices to dense form and are meant for coarse meshes only.
"""

import csv
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .assembly import (
    AssembledForms,
    Discretization,
    assemble_stiffness,
    assemble_vh_gram,
)
from .errors import InsufficientLevels
from .geometry import build_mesh, uniform_space
from .linalg import generalized_symmetric_eig
from .quadrature import gauss_rule
from .splines import eval_basis_many
from .timestepping import TimeGrid, march, project_initial

TIME_QUAD_POINTS = 3


# -- norms of discrete fields -------------------------------------------------

def vh_norm(coef, disc, gram=None):
    """Stability norm: sqrt of H1 norm squared plus the h_E^-1 boundary mass."""
    G = assemble_vh_gram(disc) if gram is None else gram
    return float(np.sqrt(coef @ (G @ coef)))


def boundary_trace_sq(coef, disc):
    """Weighted boundary mass sum_E h_E^-1 ||v_h||^2_{L2(E)}."""
    bc = disc.boundary
    vals = bc.field_values(coef)
    per_edge = np.einsum("fq,fq->f", bc.w, vals**2)
    return float(np.sum(per_edge / bc.h_E))


def v_norm(coef, disc):
    """Diagnostic graph norm: V_h norm plus the h_K-scaled broken H2 terms."""
    ec = disc.elements
    hess = disc.elements.second_derivatives()
    Hf = np.einsum("eqlab,el->eqab", hess, coef[ec.gidx])
    h2 = np.einsum("eq,eqab->e", ec.w, Hf**2)
    h2_scaled = float(np.sum(disc.mesh.h_K**2 * h2))
    return float(np.sqrt(vh_norm(coef, disc) ** 2 + h2_scaled))


# -- space-time errors --------------------------------------------------------

def space_time_errors(traj, case, override=None):
    """(L2(J;H1), L2(J;L2)) errors of the piecewise-constant extension.

    ``override``, if given, is a callable t -> (values, grads) on the
    element quadrature points and replaces the discrete trajectory (used
    by self-consistency checks).
    """
    disc = traj.disc
    ec = disc.elements
    grid = traj.grid
    tau = grid.tau
    rule = gauss_rule(TIME_QUAD_POINTS)
    X = ec.x[..., 0]
    Y = ec.x[..., 1]

    acc_h1 = 0.0
    acc_l2 = 0.0
    for n in range(1, grid.num_steps + 1):
        if override is None:
            uh = traj.coefs[n]
            vals = ec.field_values(uh)
            grads = ec.field_grads(uh)
        times, wts = rule.mapped(grid.nodes[n - 1], grid.nodes[n])
        for tj, wj in zip(times, wts):
            if override is not None:
                vals, grads = override(tj)
            due = case.u(X.ravel(), Y.ravel(), tj).reshape(X.shape) - vals
            dge = (
                case.grad_u(X.ravel(), Y.ravel(), tj).reshape(X.shape + (2,))
                - grads
            )
            l2_part = np.sum(ec.w * due**2)
            h1_part = l2_part + np.sum(ec.w * np.sum(dge**2, axis=-1))
            acc_l2 += wj * l2_part
            acc_h1 += wj * h1_part
    return float(np.sqrt(acc_h1)), float(np.sqrt(acc_l2))


def error_L2J_H1(traj, case):
    """L2-in-time, H1-in-space error against the exact solution."""
    return space_time_errors(traj, case)[0]


# -- spectral audits ----------------------------------------------------------

def coercivity_audit(disc, p, eps, t, gram=None):
    """Smallest generalized eigenvalue of (sym A(t), stability Gram).

    Returns ``(alpha_hat, alpha_hat > 0)``.  The matrices are densified;
    keep the mesh coarse.
    """
    A = assemble_stiffness(disc, p, eps, t).toarray()
    G = (assemble_vh_gram(disc) if gram is None else gram).toarray()
    vals = generalized_symmetric_eig((A + A.T) / 2, (G + G.T) / 2)
    alpha_hat = float(vals[0])
    return alpha_hat, alpha_hat > 0.0


def continuity_audit(disc, p, eps, t, gram=None):
    """Largest singular value of G^{-1/2} A(t) G^{-1/2} (norm bound of the form)."""
    A = assemble_stiffness(disc, p, eps, t).toarray()
    G = (assemble_vh_gram(disc) if gram is None else gram).toarray()
    s, V = np.linalg.eigh((G + G.T) / 2)
    G_mh = (V / np.sqrt(s)) @ V.T
    return float(np.linalg.norm(G_mh @ A @ G_mh, 2))


# -- convergence studies ------------------------------------------------------

@dataclass
class LevelRecord:
    spans: int
    h: float
    tau: float
    dof: int
    err_l2h1: float
    err_l2l2: float
    err_bdry: float
    assembly_time: float = 0.0
    solve_time: float = 0.0


@dataclass
class ErrorReport:
    levels: list = field(default_factory=list)

    def rates_l2h1(self):
        """Pairwise log2 error ratios between consecutive levels."""
        out = []
        for a, b in zip(self.levels[:-1], self.levels[1:]):
            out.append(np.log(a.err_l2h1 / b.err_l2h1) / np.log(a.h / b.h))
        return out

    def slope_l2h1(self):
        return fit_slope(
            [rec.h for rec in self.levels], [rec.err_l2h1 for rec in self.levels]
        )


def rate_table(report):
    """Pairwise rates plus the least-squares slope of log err vs log h."""
    if len(report.levels) < 2:
        raise InsufficientLevels("need at least two levels to fit a rate")
    return {"pairwise": report.rates_l2h1(), "slope": report.slope_l2h1()}


def fit_slope(hs, errors):
    if len(hs) < 2:
        raise InsufficientLevels("need at least two levels to fit a rate")
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


def steps_for(tau_target, T):
    """Step count whose uniform tau best honors a target step size."""
    return max(1, int(np.ceil(T / tau_target - 1e-12)))


def run_level(
    case,
    gm,
    degree,
    spans,
    num_steps,
    epsilon=None,
    epsilon_factor=None,
    qvol=None,
    qedge=None,
    solver_tol=1e-12,
):
    """Solve one refinement level end to end.

    Returns ``(record, trajectory, forms)``.
    """
    p = case.problem
    t0 = time.perf_counter()
    space = uniform_space(degree, spans)
    mesh = build_mesh(gm, space)
    disc = Discretization(space, mesh, qvol=qvol, qedge=qedge)
    forms = AssembledForms(disc, p, epsilon=epsilon, epsilon_factor=epsilon_factor)
    u0 = project_initial(disc, p.u0)
    t1 = time.perf_counter()

    grid = TimeGrid(num_steps, p.T)
    traj = march(forms, grid, u0, solver_tol=solver_tol)
    t2 = time.perf_counter()

    err_h1, err_l2 = space_time_errors(traj, case)
    record = LevelRecord(
        spans=spans,
        h=space.max_span_width,
        tau=grid.tau,
        dof=space.dimension,
        err_l2h1=err_h1,
        err_l2l2=err_l2,
        err_bdry=boundary_trace_sq(traj.final, disc),
        assembly_time=t1 - t0,
        solve_time=t2 - t1,
    )
    return record, traj, forms


def convergence_study(
    case,
    gm,
    degree,
    spans_list,
    steps_for_level,
    threads=1,
    **level_kwargs,
):
    """Run all levels (optionally in parallel) and collect the report.

    ``steps_for_level(spans, T)`` gives the number of time steps of the
    level with ``spans`` spans per direction on [0, T].
    """
    if len(spans_list) < 2:
        raise InsufficientLevels("a convergence study needs at least two levels")

    def one(spans):
        n = steps_for_level(spans, case.problem.T)
        record, _, _ = run_level(case, gm, degree, spans, n, **level_kwargs)
        return record

    report = ErrorReport()
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            report.levels = list(pool.map(one, spans_list))
    else:
        report.levels = [one(s) for s in spans_list]
    return report


# -- output helpers -----------------------------------------------------------

def write_report_csv(report, path):
    """CSV with one row per level and the trailing pairwise rate column."""
    rates = [""] + [f"{r:.6f}" for r in report.rates_l2h1()]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["level", "h", "tau", "dof", "err_l2h1", "err_l2l2", "err_bdry", "rate_l2h1"]
        )
        for i, rec in enumerate(report.levels):
            writer.writerow(
                [
                    i,
                    f"{rec.h:.10g}",
                    f"{rec.tau:.10g}",
                    rec.dof,
                    f"{rec.err_l2h1:.12e}",
                    f"{rec.err_l2l2:.12e}",
                    f"{rec.err_bdry:.12e}",
                    rates[i],
                ]
            )


def write_loglog_data(report, path):
    """Two-column h / error file ready for a log-log plot."""
    with open(path, "w") as fh:
        fh.write("# h  err_l2h1\n")
        for rec in report.levels:
            fh.write(f"{rec.h:.10g} {rec.err_l2h1:.12e}\n")


def sample_on_grid(disc, coef, n=64):
    """Evaluate a coefficient field on a uniform n x n parametric grid.

    Returns ``(x, y, values)`` flattened with the first parametric
    coordinate varying fastest; points are mapped to the physical domain.
    """
    space = disc.space
    n1, n2 = space.shape
    ts = np.linspace(0.0, 1.0, n)
    C1 = _collocation_matrix(space.kv1, ts)
    C2 = _collocation_matrix(space.kv2, ts)
    cmat = coef.reshape(n2, n1).T
    vals = C1 @ cmat @ C2.T  # vals[a, b] at (ts[a], ts[b])

    g1, g2 = np.meshgrid(ts, ts, indexing="ij")
    pts = np.column_stack([g1.ravel(order="F"), g2.ravel(order="F")])
    x, _, _ = disc.mesh.geometry.evaluate_many(pts)
    return x[:, 0], x[:, 1], vals.ravel(order="F")


def _collocation_matrix(kv, ts):
    first, ders = eval_basis_many(kv, ts, 0)
    C = np.zeros((len(ts), kv.dimension))
    cols = first[:, None] + np.arange(kv.degree + 1)
    C[np.arange(len(ts))[:, None], cols] = ders[:, 0]
    return C


__all__ = [
    "vh_norm",
    "v_norm",
    "boundary_trace_sq",
    "space_time_errors",
    "error_L2J_H1",
    "coercivity_audit",
    "continuity_audit",
    "LevelRecord",
    "ErrorReport",
    "rate_table",
    "fit_slope",
    "run_level",
    "convergence_study",
    "write_report_csv",
    "write_loglog_data",
    "sample_on_grid",
]
