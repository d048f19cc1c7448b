import numpy as np
import pytest

from nitsche_iga import (
    Discretization,
    build_mesh,
    load_geometry,
    uniform_space,
)
from nitsche_iga.assembly import tensor_product
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
    first1, d1 = eval_basis_many(gm.space.kv1, x_hat[:, 0], 1)
    first2, d2 = eval_basis_many(gm.space.kv2, x_hat[:, 1], 1)
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


def relative_error(a, ref):
    """Largest entry of |a - ref| over the largest of |ref|."""
    return np.abs(a - ref).max() / np.abs(ref).max()


def make_disc(gm, degree, spans, quadrature_order=None):
    space = uniform_space(degree, spans)
    mesh = build_mesh(gm, space)
    return Discretization(space, mesh, quadrature_order)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
