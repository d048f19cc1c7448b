import numpy as np
import pytest

from nitsche_iga import (
    Discretization,
    build_mesh,
    load_geometry,
    uniform_space,
)


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


def make_disc(gm, degree, spans, quadrature_order=None):
    space = uniform_space(degree, spans)
    mesh = build_mesh(gm, space)
    return Discretization(space, mesh, quadrature_order)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
