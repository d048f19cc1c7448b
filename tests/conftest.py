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


def make_disc(gm, degree, spans, quadrature_order=None):
    space = uniform_space(degree, spans)
    mesh = build_mesh(gm, space)
    return Discretization(space, mesh, quadrature_order)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
