import numpy as np
import pytest

from nitsche_iga import (
    GeometryMap,
    TensorSpace,
    build_mesh,
    build_tensor_space,
    eval_geometry,
    load_geometry,
    outward_normal,
    parse_geometry,
    uniform_space,
    validate_knots,
)
from nitsche_iga import quadrature
from nitsche_iga.errors import DegenerateJacobian, IndexOutOfRange, UnknownCase
from nitsche_iga.geometry import EDGE_LENGTH_POINTS
from nitsche_iga.splines import eval_basis, uniform_open_knots


class TestTensorSpace:
    def test_dimensions(self):
        kv = validate_knots([0, 0, 1, 1], 1)
        assert build_tensor_space(kv, kv).dimension == 4
        kv2 = validate_knots([0, 0, 0, 1, 1, 1], 2)
        assert build_tensor_space(kv2, kv2).dimension == 9
        for n in (2, 5, 9):
            s = uniform_space(1, n)
            assert s.dimension == (n + 1) ** 2

    def test_index_bijection(self):
        space = uniform_space(2, 3)
        for g in range(space.dimension):
            i1, i2 = space.multi_index(g)
            assert space.global_index(i1, i2) == g
        with pytest.raises(IndexOutOfRange):
            space.multi_index(space.dimension)
        with pytest.raises(IndexOutOfRange):
            space.global_index(space.shape[0], 0)

    def test_direction_one_fastest(self):
        space = uniform_space(1, 2)
        assert space.multi_index(1) == (1, 0)


class TestGeometryMap:
    def test_identity_square(self, square_gm, rng):
        for _ in range(20):
            x_hat = rng.random(2)
            x, J, detj = eval_geometry(square_gm, x_hat)
            assert np.allclose(x, x_hat, atol=1e-15)
            assert np.allclose(J, np.eye(2), atol=1e-15)
            assert detj == pytest.approx(1.0)

    @pytest.mark.parametrize("degree,spans", [(1, 1), (1, 3), (2, 2), (3, 2)])
    def test_affine_reproduction(self, degree, spans, rng):
        # control points on the Greville grid of an affine image, weights 1
        A = np.array([[1.3, 0.4], [-0.2, 0.9]])
        shift = np.array([0.7, -0.3])
        space = uniform_space(degree, spans)
        grev = space.greville_grid()
        P = grev @ A.T + shift
        gm = GeometryMap(space, P, np.ones(space.dimension))
        for _ in range(20):
            x_hat = rng.random(2)
            x, J, detj = eval_geometry(gm, x_hat)
            assert np.allclose(x, A @ x_hat + shift, atol=1e-14)
            assert np.allclose(J, A, atol=1e-13)
            assert detj == pytest.approx(np.linalg.det(A))

    def test_unit_weights_match_bspline_sum(self, rng):
        # with W identically 1 the rational combination equals the plain
        # B-spline combination computed directly from univariate tables
        space = TensorSpace(uniform_open_knots(2, 2), uniform_open_knots(1, 3))
        P = rng.random((space.dimension, 2))
        gm = GeometryMap(space, P, np.ones(space.dimension))
        n1 = space.shape[0]
        for _ in range(20):
            x_hat = rng.random(2)
            x, _, _ = eval_geometry(gm, x_hat)
            e1 = eval_basis(space.kv1, x_hat[0], 0)
            e2 = eval_basis(space.kv2, x_hat[1], 0)
            direct = np.zeros(2)
            for l1 in range(space.kv1.degree + 1):
                for l2 in range(space.kv2.degree + 1):
                    g = (e1.first_index + l1) + n1 * (e2.first_index + l2)
                    direct += e1.values[l1] * e2.values[l2] * P[g]
            assert np.max(np.abs(x - direct)) < 1e-15

    def test_quarter_annulus_radii(self, annulus_gm, rng):
        # |F| depends only on the radial parameter: exact conic arc
        for s in rng.random(10):
            for t in rng.random(10):
                x, _, _ = eval_geometry(annulus_gm, np.array([s, t]))
                assert abs(np.hypot(*x) - (1.0 + s)) < 1e-12

    def test_positive_weights_required(self):
        space = uniform_space(1, 1)
        with pytest.raises(ValueError):
            GeometryMap(space, np.zeros((4, 2)), np.array([1.0, 1.0, 0.0, 1.0]))

    def test_degenerate_geometry_raises(self):
        space = uniform_space(1, 1)
        P = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])  # collapsed
        gm = GeometryMap(space, P, np.ones(4))
        with pytest.raises(DegenerateJacobian):
            gm.evaluate(np.array([0.5, 0.5]))


class TestPhysicalMesh:
    def test_two_by_two_square(self, square_gm):
        space = uniform_space(1, 2)
        mesh = build_mesh(square_gm, space)
        assert mesh.num_elements == 4
        assert np.allclose(mesh.h_K, np.sqrt(2) / 2)
        assert len(mesh.edges) == 8
        assert all(e.h_E == pytest.approx(0.5, abs=1e-14) for e in mesh.edges)

    def test_single_element_owners_unique(self, square_gm):
        mesh = build_mesh(square_gm, uniform_space(1, 1))
        assert len(mesh.edges) == 4
        assert all(e.owner == 0 for e in mesh.edges)

    def test_owner_unique_and_on_boundary(self, square_gm):
        space = uniform_space(2, 4)
        mesh = build_mesh(square_gm, space)
        ns1, ns2 = space.num_spans
        for e in mesh.edges:
            s1, s2 = mesh.element_span_indices(e.owner)
            if e.side == "x0":
                assert s1 == 0
            elif e.side == "x1":
                assert s1 == ns1 - 1
            elif e.side == "y0":
                assert s2 == 0
            else:
                assert s2 == ns2 - 1

    def test_edge_size_constant_recorded(self, square_gm, annulus_gm):
        for gm in (square_gm, annulus_gm):
            mesh = build_mesh(gm, uniform_space(2, 3))
            assert np.isfinite(mesh.edge_size_constant)
            assert mesh.edge_size_constant > 0

    def test_refinement_halves_h(self, square_gm):
        space = uniform_space(1, 4)
        coarse = build_mesh(square_gm, space)
        fine = build_mesh(square_gm, space.bisected())
        assert fine.h == pytest.approx(coarse.h / 2, rel=0.05)

    def test_detj_sign_positive(self, square_gm, annulus_gm):
        for gm in (square_gm, annulus_gm):
            mesh = build_mesh(gm, uniform_space(1, 2))
            assert mesh.detj_sign == 1.0


def reference_h_K(gm, space, sample_q):
    """h_K element by element: one geometry evaluation per element."""
    pts, _ = quadrature.tensor_rule(sample_q)
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    samples = np.vstack([pts, corners])
    ns1, ns2 = space.num_spans
    h_K = []
    for s2 in range(1, ns2 + 1):
        for s1 in range(1, ns1 + 1):
            a1, b1 = space.kv1.mesh.span_interval(s1)
            a2, b2 = space.kv2.mesh.span_interval(s2)
            x_hat = np.column_stack(
                [a1 + (b1 - a1) * samples[:, 0], a2 + (b2 - a2) * samples[:, 1]]
            )
            _, J, _ = gm.evaluate_many(x_hat)
            grad_norm = np.linalg.norm(J, ord=2, axis=(1, 2)).max()
            h_K.append(grad_norm * np.hypot(b1 - a1, b2 - a2))
    return np.array(h_K)


def reference_h_E(gm, edge):
    """Arc length of one edge: one geometry evaluation for that edge."""
    a, b = edge.interval
    ts, ws = quadrature.gauss_rule(EDGE_LENGTH_POINTS).mapped(a, b)
    x_hat = np.array([edge.param_point((t - a) / (b - a)) for t in ts])
    _, J, _ = gm.evaluate_many(x_hat)
    tang = J[:, :, 1] if edge.side in ("x0", "x1") else J[:, :, 0]
    return float(np.sum(ws * np.linalg.norm(tang, axis=1)))


class TestBatchedMesh:
    @pytest.mark.parametrize("degree,spans", [(2, 5), (3, 4)])
    def test_matches_element_and_edge_loop(self, annulus_gm, degree, spans):
        space = uniform_space(degree, spans)
        mesh = build_mesh(annulus_gm, space)
        assert np.array_equal(mesh.h_K, reference_h_K(annulus_gm, space, degree + 2))
        assert len(mesh.edges) == 4 * spans
        for edge in mesh.edges:
            assert edge.h_E == reference_h_E(annulus_gm, edge)

    def test_param_point_batch_matches_scalar(self, annulus_gm):
        mesh = build_mesh(annulus_gm, uniform_space(2, 3))
        s = np.array([0.0, 0.3, 1.0])
        for edge in mesh.edges:
            batch = edge.param_point(s)
            assert batch.shape == (3, 2)
            for row, si in zip(batch, s):
                assert np.array_equal(row, edge.param_point(si))

    def test_folded_geometry_raises(self):
        # x(u) = 2u(1-u) + 0.2u^2 turns back at u = 5/9: det J changes sign
        # inside the domain, away from the first element
        space = TensorSpace(uniform_open_knots(2, 1), uniform_open_knots(1, 1))
        P = np.array([[0.0, 0.0], [1.0, 0.0], [0.2, 0.0],
                      [0.0, 1.0], [1.0, 1.0], [0.2, 1.0]])
        gm = GeometryMap(space, P, np.ones(6))
        with pytest.raises(DegenerateJacobian, match="changes sign"):
            build_mesh(gm, uniform_space(1, 4))


class TestNormals:
    def test_square_sides(self, square_gm):
        mesh = build_mesh(square_gm, uniform_space(1, 1))
        by_side = {e.side: e for e in mesh.edges}
        assert np.allclose(outward_normal(mesh, by_side["x0"], 0.5), [-1, 0])
        assert np.allclose(outward_normal(mesh, by_side["x1"], 0.2), [1, 0])
        assert np.allclose(outward_normal(mesh, by_side["y0"], 0.8), [0, -1])
        assert np.allclose(outward_normal(mesh, by_side["y1"], 0.5), [0, 1])

    def test_unit_length(self, annulus_gm, rng):
        mesh = build_mesh(annulus_gm, uniform_space(2, 2))
        for e in mesh.edges:
            for s in rng.random(5):
                n = outward_normal(mesh, e, float(s))
                assert abs(np.linalg.norm(n) - 1.0) < 1e-14

    def test_annulus_outer_arc_is_radial(self, annulus_gm, rng):
        mesh = build_mesh(annulus_gm, uniform_space(2, 2))
        for e in mesh.edges:
            if e.side != "x1":
                continue
            for s in rng.random(10):
                n = outward_normal(mesh, e, float(s))
                x, _, _ = eval_geometry(annulus_gm, e.param_point(float(s)))
                radial = x / np.linalg.norm(x)
                assert np.max(np.abs(n - radial)) < 1e-10


class TestGeometryIO:
    def test_roundtrip_parse(self, square_gm):
        text = """
        # comment
        degrees: 1 1
        knots1: 1; 0 0 1 1
        knots2: 1; 0 0 1 1
        0 0 1
        1 0 1
        0 1 1
        1 1 1
        """
        gm = parse_geometry(text)
        assert np.allclose(gm.control_points, square_gm.control_points)

    def test_missing_header(self):
        with pytest.raises(ValueError, match="degrees"):
            parse_geometry("knots1: 1; 0 0 1 1\nknots2: 1; 0 0 1 1\n")

    def test_wrong_point_count(self):
        with pytest.raises(ValueError, match="rows"):
            parse_geometry(
                "degrees: 1 1\nknots1: 1; 0 0 1 1\nknots2: 1; 0 0 1 1\n0 0 1\n"
            )

    def test_unknown_name(self):
        with pytest.raises(UnknownCase):
            load_geometry("moebius_strip")

    def test_load_from_path(self, tmp_path, square_gm):
        p = tmp_path / "geo.txt"
        p.write_text(
            "degrees: 1 1\nknots1: 1; 0 0 1 1\nknots2: 1; 0 0 1 1\n"
            "0 0 1\n2 0 1\n0 2 1\n2 2 1\n"
        )
        gm = load_geometry(str(p))
        x, _, _ = eval_geometry(gm, np.array([0.5, 0.5]))
        assert np.allclose(x, [1.0, 1.0])
