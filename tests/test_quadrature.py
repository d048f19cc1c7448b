import numpy as np
import pytest

from nitsche_iga import gauss_rule, uniform_space
from nitsche_iga.assembly import ElementCache
from nitsche_iga.errors import UnsupportedOrder

from conftest import make_disc, span_tables


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
    # on every call: a memoized rule is kept only for a supported order
    for q in (0, 17, 0, 17):
        with pytest.raises(UnsupportedOrder):
            gauss_rule(q)


class TestMemo:
    """Each rule is computed once and shared, so no caller may change it."""

    @pytest.mark.parametrize("q", [1, 5, 16])
    def test_same_object_on_each_call(self, q):
        r = gauss_rule(q)
        assert gauss_rule(q) is r
        assert gauss_rule(q).points is r.points

    @pytest.mark.parametrize("name", ["points", "weights"])
    def test_arrays_are_read_only(self, name):
        a = getattr(gauss_rule(4), name)
        before = a.copy()
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            a *= 2.0
        assert np.array_equal(getattr(gauss_rule(4), name), before)


class TestElementRule:
    """The volume weights of the discretization integrate 1 to the area."""

    def test_unit_square_single_element(self, square_gm):
        # the element cache takes any order, the midpoint rule too, where a
        # discretization refuses one below the largest degree plus two
        for q in (1, 3, 6):
            space = uniform_space(1, 1)
            w = ElementCache(space, square_gm, span_tables(space, q)).w
            assert abs(w.sum() - 1.0) < 1e-15

    def test_unit_square_four_elements(self, square_gm):
        w = make_disc(square_gm, 1, 2, quadrature_order=3).elements.w
        assert len(w) == 4
        for e in range(4):
            assert abs(w[e].sum() - 0.25) < 1e-15

    def test_quarter_annulus_area(self, annulus_gm):
        w = make_disc(annulus_gm, 2, 2, quadrature_order=6).elements.w
        assert abs(w.sum() - 3 * np.pi / 4) < 1e-8


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
