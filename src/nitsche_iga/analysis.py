"""Error norms, spectral stability audits, and convergence-rate extraction.

The space-time error treats the discrete trajectory as the
piecewise-constant-in-time extension (u(t) = u^{n+1} on (t_n, t_{n+1}]);
per step interval the exact solution is resolved with a 3-point Gauss rule
in time, and space integrals use the element quadrature of the
discretization.  The steps run in blocks of s and the elements in blocks of
whole elements (:func:`~nitsche_iga.assembly.block_slices`), and each pair
of blocks makes one call of u and one of grad u, at the 3s Gauss times of
its steps and all points of its elements: the factors of u that do not
depend on t are formed once per step block, not once per step.
s is half the number of quadrature points of an element, nq / 2, so that
the two (3s, ne) arrays of per-element sums hold as many numbers as one
(3, m) array over all m points; it is at most the number of steps, and
smaller if the budget cannot hold one element's gradient at 3s times.  An
element block has as many elements as let the largest temporary, the
(3s, P, 2) gradient that the closure returns, fit the assembly's one budget
``BLOCK_BYTES``, so it stays below glibc's 128 KiB mmap threshold.  Where
that threshold stays fixed (by ``mallopt`` or ``MALLOC_MMAP_THRESHOLD_``,
as in the benchmark), every larger temporary is mapped afresh and
page-faulted in.
Each Gauss time's weighted |e|^2 and |grad e|^2 are summed over the points
of each element first and kept per element; each row is then summed over
the elements.  That order depends on neither the budget nor s, so the
errors are bit-identical for any of them.  The error in u and the two
components of the error in grad u are held as separate arrays, so that no
numpy operation runs over an axis of length 2; |grad e|^2 is the one
addition dx^2 + dy^2, which is bit for bit what a sum over the component
axis gives.
The coercivity audit converts the assembled matrices to dense form and is
meant for coarse meshes only.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from . import assembly
from .assembly import AssembledForms, Discretization, assemble_stiffness, block_slices
from .errors import ConfigError, InsufficientLevels
from .geometry import uniform_space
from .linalg import generalized_symmetric_eig
from .problem import coefficient_audit
from .quadrature import gauss_rule
from .splines import collocation
from .timestepping import TimeGrid, march, project_initial

TIME_QUAD_POINTS = 3

# sampled times and relative bound of check_boundary_datum
BOUNDARY_CHECK_TIMES = 5
BOUNDARY_RTOL = 1e-8

# points per direction of the parametric grid of sample_on_grid
SNAPSHOT_GRID = 64


# -- norms of discrete fields -------------------------------------------------

def vh_norm(coef, disc):
    """Stability norm: sqrt of H1 norm squared plus the h_E^-1 boundary mass."""
    return float(np.sqrt(coef @ (disc.vh_gram @ coef)))


def boundary_trace_sq(coef, disc):
    """Weighted boundary mass sum_E h_E^-1 ||v_h||^2_{L2(E)}."""
    bc = disc.boundary
    vals = bc.field_values(coef)
    per_edge = np.einsum("fq,fq->f", bc.w, vals**2)
    return float(np.sum(per_edge / bc.h_E))


# -- space-time errors --------------------------------------------------------

def _checked(case, key, value, shape):
    """``value`` of ``case.<key>`` if it has the axes of ``shape`` and
    broadcasts to it (a length-1 axis stands for any length)."""
    got = np.shape(value)
    if len(got) != len(shape) or any(g not in (1, s) for g, s in zip(got, shape)):
        raise ValueError(
            f"{case.name}: {key} returned shape {got} for x, y of shape (1, {shape[1]}) "
            f"and t of shape ({shape[0]}, 1); expected {shape} or a shape that "
            f"broadcasts to it with the same number of axes"
        )
    return value


def _by_step(value, steps):
    """A closure's result with its time axis split into (steps, 3), or
    as it is if that axis has length 1."""
    if len(value) == 1:
        return value
    return value.reshape((steps, -1) + value.shape[1:])


def _add_element_sums(ec, elements, coefs, u, g, l2_out, grad_out):
    """Write the per-element sums of w |u - u_h|^2 and w |g - grad u_h|^2
    over the slice ``elements`` of the elements to the (3k, E) views
    ``l2_out`` and ``grad_out``: one row per Gauss time of the k steps whose
    coefficients are the rows of ``coefs``, at which ``u`` and ``g`` are
    the exact solution and its gradient as (3k, P) and (3k, P, 2) or
    shapes that broadcast to them."""
    k = len(coefs)
    w = ec.w[elements]
    E, nq = w.shape
    P = E * nq
    w = w.reshape(P)
    uh = ec.field(coefs, elements).reshape(k, 1, P, 3)

    g = _by_step(g, k)
    dx = np.subtract(g[..., 0], uh[..., 1], out=np.empty((k, 3, P)))
    dy = np.subtract(g[..., 1], uh[..., 2], out=np.empty((k, 3, P)))
    grad_sq = np.add(np.square(dx, out=dx), np.square(dy, out=dy), out=dx)
    np.multiply(w, grad_sq, out=grad_sq)
    np.sum(grad_sq.reshape(3 * k, E, nq), axis=2, out=grad_out)
    del dx, dy

    du = np.subtract(_by_step(u, k), uh[..., 0], out=np.empty((k, 3, P)))
    np.multiply(w, np.square(du, out=du), out=du)
    np.sum(du.reshape(3 * k, E, nq), axis=2, out=l2_out)


def space_time_errors(traj, case):
    """(L2(J;H1), L2(J;L2)) errors of the piecewise-constant extension.

    Steps run in blocks of s and elements in blocks of whole elements (see
    the module docstring).  ``case.u`` and ``case.grad_u`` are called once
    per pair of blocks, with x and y as the (1, P) row of the element
    block's points and t as the (3k, 1) column of the Gauss times of the k
    steps of the step block (k = s, but the last block may be shorter).
    Their results must broadcast to (3k, P) and (3k, P, 2) with all their
    axes, so a closure that does not depend on t may return the row; any
    other shape raises ``ValueError``.  u_h comes from
    ``ElementCache.field`` over the element block, one matrix-vector
    product per step and element.  The per-element sums of the k steps'
    Gauss times fill the first 3k rows of two (3s, ne) arrays; each row is
    summed over the elements, and the rows are accumulated in the order of
    a per-time loop.
    """
    ec = traj.disc.elements
    ne, nq = ec.w.shape
    num_steps = traj.grid.num_steps
    nodes = traj.grid.nodes
    times, wts = gauss_rule(TIME_QUAD_POINTS).mapped(nodes[:-1, None], nodes[1:, None])
    # bytes of the gradient over one element at the Gauss times of one step
    element_step_bytes = TIME_QUAD_POINTS * nq * 2 * 8
    s = max(1, min(nq // 2, assembly.BLOCK_BYTES // element_step_bytes, num_steps))
    element_blocks = block_slices(ne, s * element_step_bytes)

    sums_l2 = np.empty((TIME_QUAD_POINTS * s, ne))
    sums_grad = np.empty((TIME_QUAD_POINTS * s, ne))
    acc_h1 = 0.0
    acc_l2 = 0.0
    for first in range(0, num_steps, s):
        coefs = traj.coefs[first + 1:first + s + 1]
        rows = TIME_QUAD_POINTS * len(coefs)
        t = times[first:first + s].reshape(rows, 1)
        l2, grad = sums_l2[:rows], sums_grad[:rows]
        for b in element_blocks:
            xb, yb = ec.x[b].reshape(1, -1, 2).transpose(2, 0, 1)
            shape = (rows, xb.shape[1])
            # u is dropped at once, g only when the next block's gradient
            # replaces it: dropped first, it left the top of glibc's heap
            # free, which glibc trims under a fixed mmap threshold, and every
            # block faulted those pages in again (6300 faults per call on
            # the square at 24 spans and k = 2, against 170)
            g = _checked(case, "grad_u", case.grad_u(xb, yb, t), shape + (2,))
            u = _checked(case, "u", case.u(xb, yb, t), shape)
            _add_element_sums(ec, b, coefs, u, g, l2[:, b], grad[:, b])
            del u
        l2_parts = l2.sum(axis=1)
        h1_parts = l2_parts + grad.sum(axis=1)
        for wj, l2_part, h1_part in zip(wts[first:first + s].ravel(), l2_parts, h1_parts):
            acc_l2 += wj * l2_part
            acc_h1 += wj * h1_part
    return float(np.sqrt(acc_h1)), float(np.sqrt(acc_l2))


# -- spectral audits ----------------------------------------------------------

def coercivity_audit(disc, p, eps, t):
    """Smallest generalized eigenvalue of (sym A(t), ``disc.vh_gram``).

    Returns ``(alpha_hat, alpha_hat > 0)``.  The matrices are densified;
    keep the mesh coarse.
    """
    A = assemble_stiffness(disc, p, eps, t).toarray()
    G = disc.vh_gram.toarray()
    vals = generalized_symmetric_eig((A + A.T) / 2, (G + G.T) / 2)
    alpha_hat = float(vals[0])
    return alpha_hat, alpha_hat > 0.0


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


@dataclass
class ErrorReport:
    levels: list = field(default_factory=list)

    def _errors_l2h1(self):
        """err_l2h1 per level; a :class:`ConfigError` names one that is 0."""
        for i, rec in enumerate(self.levels):
            if not rec.err_l2h1 > 0:
                raise ConfigError(f"level {i} ({rec.spans} spans) has err_l2h1 = "
                                  f"{rec.err_l2h1:g}: no convergence rate is defined")
        return [rec.err_l2h1 for rec in self.levels]

    def rates_l2h1(self):
        """Observed orders between consecutive levels,
        log(e_i / e_{i+1}) / log(h_i / h_{i+1})."""
        e, h = self._errors_l2h1(), [rec.h for rec in self.levels]
        return [np.log(e[i] / e[i + 1]) / np.log(h[i] / h[i + 1]) for i in range(len(e) - 1)]

    def slope_l2h1(self):
        return fit_slope([rec.h for rec in self.levels], self._errors_l2h1())


def fit_slope(hs, errors):
    if len(hs) < 2:
        raise InsufficientLevels("need at least two levels to fit a rate")
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


def steps_for(tau_target, T):
    """Step count whose uniform tau best honors a target step size; a target
    that is not positive, or for which T / tau is not finite (subnormal), is
    a :class:`ConfigError`."""
    if not tau_target > 0:
        raise ConfigError(f"target time step must be positive, got {tau_target!r}")
    ratio = T / tau_target
    if not np.isfinite(ratio):
        raise ConfigError(f"target time step {tau_target!r} gives no finite step count")
    return max(1, int(np.ceil(ratio - 1e-12)))


def check_boundary_datum(case, disc):
    """Refuse a case whose Dirichlet datum g is not the trace of its exact
    solution u on the boundary of the discretized geometry.

    g and u are compared at the edge quadrature points at
    ``BOUNDARY_CHECK_TIMES`` equally spaced times on [0, T].  The bound is
    ``BOUNDARY_RTOL`` times max |u| at those points, but never below
    ``BOUNDARY_RTOL``, so u = 0 on the boundary is judged absolutely.
    Raises :class:`ConfigError`.
    """
    p = case.problem
    pts = disc.boundary.x.reshape(-1, 2)
    x, y = pts[:, 0], pts[:, 1]
    worst = scale = 0.0
    for t in np.linspace(0.0, p.T, BOUNDARY_CHECK_TIMES):
        u = case.u(x, y, t)
        worst = max(worst, float(np.abs(p.g(x, y, t) - u).max()))
        scale = max(scale, float(np.abs(u).max()))
    if not worst <= BOUNDARY_RTOL * max(scale, 1.0):
        raise ConfigError(
            f"case {case.name!r}: the Dirichlet datum g differs from the exact "
            f"solution by up to {worst:.3e} on the boundary of this geometry "
            f"(max |u| there {scale:.3e})"
        )


def run_level(case, gm, degree, spans, num_steps, epsilon=None, epsilon_factor=None):
    """Solve one refinement level end to end, at the discretization's own
    quadrature order (the largest degree plus two).

    Refuses, by :func:`check_boundary_datum`, a case whose g is not the
    trace of u on this geometry, and warns, by
    :func:`~nitsche_iga.problem.coefficient_audit` at the discretization's
    points, when the coefficients break the ellipticity hypotheses.
    Returns ``(record, trajectory, forms)``.
    """
    p = case.problem
    space = uniform_space(degree, spans)
    disc = Discretization(space, gm)
    check_boundary_datum(case, disc)
    coefficient_audit(p, disc)
    forms = AssembledForms(disc, p, epsilon=epsilon, epsilon_factor=epsilon_factor)
    u0 = project_initial(disc, p.u0)

    grid = TimeGrid(num_steps, p.T)
    traj = march(forms, grid, u0)

    err_h1, err_l2 = space_time_errors(traj, case)
    record = LevelRecord(
        spans=spans,
        h=space.max_span_width,
        tau=grid.tau,
        dof=space.dimension,
        err_l2h1=err_h1,
        err_l2l2=err_l2,
        err_bdry=boundary_trace_sq(traj.final, disc),
    )
    return record, traj, forms


def convergence_study(case, gm, degree, spans_list, steps_for_level, **level_kwargs):
    """Run all levels in order and collect the report.

    ``steps_for_level(spans, T)`` gives the number of time steps of the
    level with ``spans`` spans per direction on [0, T].
    """
    if len(spans_list) < 2:
        raise InsufficientLevels("a convergence study needs at least two levels")
    report = ErrorReport()
    for spans in spans_list:
        n = steps_for_level(spans, case.problem.T)
        record, _, _ = run_level(case, gm, degree, spans, n, **level_kwargs)
        report.levels.append(record)
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


def sample_on_grid(disc, coef):
    """Evaluate a coefficient field on a uniform parametric grid of
    ``SNAPSHOT_GRID`` points per direction.

    Returns ``(x, y, values)`` flattened with the first parametric
    coordinate varying fastest; points are mapped to the physical domain.
    """
    space = disc.space
    n1, n2 = space.shape
    ts = np.linspace(0.0, 1.0, SNAPSHOT_GRID)
    C1 = collocation(space.kv1, ts)[0]
    C2 = collocation(space.kv2, ts)[0]
    cmat = coef.reshape(n2, n1).T
    vals = C1 @ cmat @ C2.T  # vals[a, b] at (ts[a], ts[b])

    x, _, _ = disc.geometry.evaluate_grid(ts, ts)
    return x[..., 0].ravel(order="F"), x[..., 1].ravel(order="F"), vals.ravel(order="F")


__all__ = [
    "vh_norm",
    "boundary_trace_sq",
    "space_time_errors",
    "coercivity_audit",
    "LevelRecord",
    "ErrorReport",
    "fit_slope",
    "check_boundary_datum",
    "run_level",
    "convergence_study",
    "write_report_csv",
    "write_loglog_data",
    "sample_on_grid",
]
