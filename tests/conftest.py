import numpy as np
import pytest

from nitsche_iga import (
    Discretization,
    inflow_mask,
    load_geometry,
    uniform_space,
)
from nitsche_iga.assembly import _by_direction, _coefficients_at, _scatter, _span_table
from nitsche_iga.geometry import invert_2x2
from nitsche_iga.quadrature import gauss_rule
from nitsche_iga.splines import eval_basis_many


@pytest.fixture(scope="session")
def square_gm():
    return load_geometry("square")


@pytest.fixture(scope="session")
def annulus_gm():
    return load_geometry("quarter_annulus")


def greville(kv):
    """Greville abscissae of a knot vector: averages of k consecutive interior knots."""
    k = kv.degree
    return np.array([kv.knots[i + 1:i + k + 1].mean() for i in range(kv.dimension)])


def greville_grid(space):
    """Parametric Greville points of a tensor space, (dimension, 2), global order."""
    p1, p2 = np.meshgrid(greville(space.kv1), greville(space.kv2), indexing="ij")
    return np.column_stack([p1.ravel(order="F"), p2.ravel(order="F")])


def reference_evaluate(gm, x_hat):
    """The geometry map point by point: ``(x, J, detJ)`` at an (m, 2) array.

    Each point gathers its own local weights and control points and forms
    its own NURBS basis; the reference for ``GeometryMap.evaluate_grid``.
    No det J floor is checked.
    """
    x_hat = np.asarray(x_hat, dtype=float)
    m = len(x_hat)
    first1, d1 = eval_basis_many(gm.space.kv1, x_hat[:, 0])
    first2, d2 = eval_basis_many(gm.space.kv2, x_hat[:, 1])
    gidx = gm.space.local_to_global(first1, first2)
    wloc = gm.weights[gidx]
    Ploc = gm.control_points[gidx]

    B, Ba, Bb = tensor_product(d1, d2, ((0, 0), (1, 0), (0, 1)))
    W = np.einsum("ml,ml->m", wloc, B)
    Wa = np.einsum("ml,ml->m", wloc, Ba)
    Wb = np.einsum("ml,ml->m", wloc, Bb)
    Wc = W[:, None]
    N = wloc * B / Wc
    Na = wloc * (Ba * Wc - B * Wa[:, None]) / Wc**2
    Nb = wloc * (Bb * Wc - B * Wb[:, None]) / Wc**2
    x = np.einsum("ml,mlc->mc", N, Ploc)
    J = np.empty((m, 2, 2))
    J[:, :, 0] = np.einsum("ml,mlc->mc", Na, Ploc)
    J[:, :, 1] = np.einsum("ml,mlc->mc", Nb, Ploc)
    detj = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    return x, J, detj


def tensor_product(d1, d2, orders):
    """Bivariate tables from two 1-D derivative tables, (l1, l2) local order.

    ``d1`` (..., r1, k1+1) and ``d2`` (..., r2, k2+1) hold the derivatives
    of orders 0 .. r-1 of each 1-D basis; their leading axes broadcast.
    Returns, for each (a, b) in ``orders`` (a < r1, b < r2), the table
    (..., nloc) of the derivative of order a in direction 1 and b in
    direction 2, as the outer product of the two 1-D rows.
    """
    lead = np.broadcast_shapes(d1.shape[:-2], d2.shape[:-2])
    shape = lead + (d1.shape[-1] * d2.shape[-1],)
    return [
        (d1[..., a, :, None] * d2[..., b, None, :]).reshape(shape) for a, b in orders
    ]


def reference_basis_table(d1, d2, jac):
    """The basis table (n, q, 3, nloc) from outer products of the 1-D tables
    and an einsum with J^-1 of the Jacobians ``jac``; the reference for
    ``assembly._basis_table``."""
    inv_jac = invert_2x2(jac)
    hat = np.stack(tensor_product(d1, d2, ((0, 0), (1, 0), (0, 1))), axis=-2)
    table = hat.reshape(inv_jac.shape[:2] + hat.shape[-2:])
    table[:, :, 1:] = np.einsum("xqbl,xqba->xqal", table[:, :, 1:], inv_jac)
    return table


def reference_pattern(gidx, dim):
    """CSR pattern of element blocks with global indices ``gidx`` (ne, nloc):
    ``(indptr, indices, slots)`` from ``np.unique`` over all (row, column)
    keys; the reference for ``assembly._tensor_pattern``."""
    pairs, slots = np.unique(gidx[:, :, None] * dim + gidx[:, None, :], return_inverse=True)
    indptr = np.searchsorted(pairs, np.arange(dim + 1) * dim)
    return indptr, pairs % dim, slots.reshape(gidx.shape + gidx.shape[-1:]).astype(np.int32)


def reference_param_point(edges, f, s):
    """Parametric point of boundary edge ``f`` of ``edges`` (a
    ``Discretization``'s ``boundary``) for the edge parameter s in [0, 1];
    an array of parameters gives one point per parameter along the last
    axis.  The side's fixed coordinate is 0 on x0 and y0 and 1 on x1 and
    y1."""
    side, a, b = edges.side[f], edges.lo[f], edges.hi[f]
    t = a + (b - a) * np.asarray(s, dtype=float)
    fixed = np.full_like(t, 0.0 if side in ("x0", "y0") else 1.0)
    if side in ("x0", "x1"):
        return np.stack([fixed, t], axis=-1)
    return np.stack([t, fixed], axis=-1)


def reference_space_time_errors(traj, case):
    """(L2(J;H1), L2(J;L2)) errors with one call of ``case.u`` and
    ``case.grad_u`` per Gauss time, each on (m,) arrays and a scalar t, and
    the weighted squares summed over the points of each element first, then
    over the elements; the reference for ``analysis.space_time_errors``."""
    ec = traj.disc.elements
    grid = traj.grid
    rule = gauss_rule(3)
    X = ec.x[..., 0]
    Y = ec.x[..., 1]
    acc_h1 = 0.0
    acc_l2 = 0.0
    for n in range(1, grid.num_steps + 1):
        field = ec.field(traj.coefs[n])
        vals, grads = field[..., 0], field[..., 1:]
        times, wts = rule.mapped(grid.nodes[n - 1], grid.nodes[n])
        for tj, wj in zip(times, wts):
            due = case.u(X.ravel(), Y.ravel(), tj).reshape(X.shape) - vals
            dge = (
                case.grad_u(X.ravel(), Y.ravel(), tj).reshape(X.shape + (2,))
                - grads
            )
            l2_part = np.sum(np.sum(ec.w * due**2, axis=1))
            h1_part = l2_part + np.sum(np.sum(ec.w * np.sum(dge**2, axis=-1), axis=1))
            acc_l2 += wj * l2_part
            acc_h1 += wj * h1_part
    return float(np.sqrt(acc_h1)), float(np.sqrt(acc_l2))


def reference_load(disc, p, eps, t):
    """Load vector F_i = (f, N_i) plus the g-weighted boundary families, with
    its own sampling of f, g, mu and b . n and its own Dirichlet terms
    sigma N - n . mu grad N; the reference for ``AssembledForms.at(t)[1]``."""
    ec, bc = disc.elements, disc.boundary
    fv = _coefficients_at(ec.x, p, "f", t)
    gv, mu_e = (_coefficients_at(bc.x, p, name, t) for name in ("g", "mu"))
    _, bn = inflow_mask(disc, p, t)
    flux = ((bc.normal[:, :, None, :] @ mu_e) @ bc.table[:, :, 1:])[:, :, 0]
    sigma = (eps / bc.h_E)[:, None] - np.minimum(bn, 0.0)
    dirichlet = sigma[..., None] * bc.B - flux
    values = np.empty(disc._gidx.shape)
    np.einsum("eq,eql->el", ec.w * fv, ec.B, out=values[: len(fv)])
    np.einsum("fq,fql->fl", bc.w * gv, dirichlet, out=values[len(fv) :])
    return _scatter(disc._gidx, disc.dimension, values)


def relative_error(a, ref):
    """Largest entry of |a - ref| over the largest of |ref|."""
    return np.abs(a - ref).max() / np.abs(ref).max()


def span_tables(space, q):
    """The per-span 1-D tables of both directions at ``q`` Gauss points, as a
    discretization makes them for its element and edge caches."""
    return _by_direction(space, _span_table, gauss_rule(q))


def make_disc(gm, degree, spans, quadrature_order=None):
    return Discretization(uniform_space(degree, spans), gm, quadrature_order)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
