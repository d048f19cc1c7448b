import numpy as np
import pytest

from nitsche_iga import build_mesh, gauss_rule, uniform_space
from nitsche_iga.errors import UnsupportedOrder
from nitsche_iga.quadrature import element_rule

from conftest import make_disc


def test_midpoint_rule():
    r = gauss_rule(1)
    assert r.points == pytest.approx([0.5])
    assert r.weights == pytest.approx([1.0])


def test_two_point_cubic_exactness():
    r = gauss_rule(2)
    assert abs(np.sum(r.weights * r.points**3) - 0.25) <= 1e-16


def test_five_point_degree_nine():
    r = gauss_rule(5)
    assert abs(np.sum(r.weights * r.points**9) - 0.1) < 1e-15


@pytest.mark.parametrize("q", range(1, 17))
def test_exactness_table(q):
    r = gauss_rule(q)
    assert np.all(r.weights > 0)
    assert abs(r.weights.sum() - 1.0) < 1e-15
    for d in range(2 * q):
        exact = 1.0 / (d + 1)
        assert abs(np.sum(r.weights * r.points**d) - exact) < 5e-15 * exact + 1e-16


def test_unsupported_orders():
    with pytest.raises(UnsupportedOrder):
        gauss_rule(0)
    with pytest.raises(UnsupportedOrder):
        gauss_rule(17)


def test_nodes_match_numpy_leggauss():
    for q in (3, 7, 12, 16):
        r = gauss_rule(q)
        x_ref, w_ref = np.polynomial.legendre.leggauss(q)
        assert np.max(np.abs(r.points - (x_ref + 1) / 2)) < 1e-15
        assert np.max(np.abs(r.weights - w_ref / 2)) < 1e-15


class TestElementRule:
    def test_unit_square_single_element(self, square_gm):
        space = uniform_space(1, 1)
        mesh = build_mesh(square_gm, space)
        for q in (1, 3, 6):
            _, w = element_rule(mesh, 0, q)
            assert abs(w.sum() - 1.0) < 1e-15

    def test_unit_square_four_elements(self, square_gm):
        space = uniform_space(1, 2)
        mesh = build_mesh(square_gm, space)
        for e in range(4):
            _, w = element_rule(mesh, e, 3)
            assert abs(w.sum() - 0.25) < 1e-15

    def test_quarter_annulus_area(self, annulus_gm):
        space = uniform_space(2, 2)
        mesh = build_mesh(annulus_gm, space)
        total = sum(element_rule(mesh, e, 6)[1].sum() for e in range(mesh.num_elements))
        assert abs(total - 3 * np.pi / 4) < 1e-8


class TestEdgeWeights:
    def test_straight_edge_weights_sum_to_h_E(self, square_gm):
        disc = make_disc(square_gm, 2, 3)
        bc = disc.boundary
        for f in range(len(bc.h_E)):
            assert abs(bc.w[f].sum() - bc.h_E[f]) < 1e-12

    def test_curved_edge_weights_sum_to_h_E(self, annulus_gm):
        # arc lengths come from a different rule than the edge cache; they
        # agree to quadrature accuracy on the rational speed function
        disc = make_disc(annulus_gm, 2, 2, quadrature_order=8)
        bc = disc.boundary
        for f in range(len(bc.h_E)):
            assert abs(bc.w[f].sum() - bc.h_E[f]) < 1e-9 * max(1.0, bc.h_E[f])
