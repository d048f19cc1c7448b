import numpy as np
import pytest

from nitsche_iga import (
    Discretization,
    GeometryMap,
    TensorSpace,
    build_mesh,
    load_geometry,
    parse_geometry,
    uniform_space,
    validate_knots,
)
from nitsche_iga import quadrature
from nitsche_iga.errors import DegenerateJacobian, UnknownCase
from nitsche_iga.geometry import EDGE_LENGTH_POINTS, SIDES, edge_geometry
from nitsche_iga.splines import eval_basis_many, uniform_open_knots

from conftest import (
    greville_grid,
    make_disc,
    reference_evaluate,
    reference_param_point,
    relative_error,
)


class TestTensorSpace:
    def test_dimensions(self):
        kv = validate_knots([0, 0, 1, 1], 1)
        assert TensorSpace(kv, kv).dimension == 4
        kv2 = validate_knots([0, 0, 0, 1, 1, 1], 2)
        assert TensorSpace(kv2, kv2).dimension == 9
        for n in (2, 5, 9):
            s = uniform_space(1, n)
            assert s.dimension == (n + 1) ** 2

    def test_index_bijection(self):
        # over all spans, each multi-index (i1, i2) = (first1 + l1, first2 + l2)
        # gets one global index, and together they cover 0 .. dimension - 1
        space = uniform_space(2, 3)
        (n1, n2), (k1, k2) = space.shape, space.degrees
        first1, first2 = np.meshgrid(np.arange(n1 - k1), np.arange(n2 - k2))
        first1, first2 = first1.ravel(), first2.ravel()
        gidx = space.local_to_global(first1, first2)
        l1 = np.repeat(np.arange(k1 + 1), k2 + 1)  # (l1, l2), l2 fastest
        l2 = np.tile(np.arange(k2 + 1), k1 + 1)
        seen = {}
        for a, b, row in zip(first1, first2, gidx):
            for i1, i2, g in zip(a + l1, b + l2, row):
                assert seen.setdefault((i1, i2), g) == g
        assert sorted(seen.values()) == list(range(space.dimension))

    def test_direction_one_fastest(self):
        # n1 = 3: the span whose first functions are (1, 0) holds (i1, i2) =
        # (1, 0), (1, 1), (2, 0), (2, 1), so g = i1 + 3 * i2
        space = uniform_space(1, 2)
        assert space.local_to_global(np.array(1), np.array(0)).tolist() == [1, 4, 2, 5]


class TestGeometryMap:
    def test_identity_square(self, square_gm, rng):
        t1, t2 = rng.random(5), rng.random(4)
        x, J, detj = square_gm.evaluate_grid(t1, t2)
        g1, g2 = np.meshgrid(t1, t2, indexing="ij")
        assert np.allclose(x, np.stack([g1, g2], axis=-1), atol=1e-15)
        assert np.allclose(J, np.eye(2), atol=1e-15)
        assert detj == pytest.approx(1.0)

    @pytest.mark.parametrize("degree,spans", [(1, 1), (1, 3), (2, 2), (3, 2)])
    def test_affine_reproduction(self, degree, spans, rng):
        # control points on the Greville grid of an affine image, weights 1
        A = np.array([[1.3, 0.4], [-0.2, 0.9]])
        shift = np.array([0.7, -0.3])
        space = uniform_space(degree, spans)
        grev = greville_grid(space)
        P = grev @ A.T + shift
        gm = GeometryMap(space, P, np.ones(space.dimension))
        t1, t2 = rng.random(5), rng.random(4)
        x, J, detj = gm.evaluate_grid(t1, t2)
        x_hat = np.stack(np.meshgrid(t1, t2, indexing="ij"), axis=-1)
        assert np.allclose(x, x_hat @ A.T + shift, atol=1e-14)
        assert np.allclose(J, A, atol=1e-13)
        assert detj == pytest.approx(np.linalg.det(A))

    def test_unit_weights_match_bspline_sum(self, rng):
        # with W identically 1 the rational combination equals the plain
        # B-spline combination computed directly from univariate tables
        space = TensorSpace(uniform_open_knots(2, 2), uniform_open_knots(1, 3))
        P = rng.random((space.dimension, 2))
        gm = GeometryMap(space, P, np.ones(space.dimension))
        n1 = space.shape[0]
        t1, t2 = rng.random(5), rng.random(4)
        x, _, _ = gm.evaluate_grid(t1, t2)
        first1, d1 = eval_basis_many(space.kv1, t1)
        first2, d2 = eval_basis_many(space.kv2, t2)
        for a in range(len(t1)):
            for b in range(len(t2)):
                direct = np.zeros(2)
                for l1 in range(space.kv1.degree + 1):
                    for l2 in range(space.kv2.degree + 1):
                        g = (first1[a] + l1) + n1 * (first2[b] + l2)
                        direct += d1[a, 0, l1] * d2[b, 0, l2] * P[g]
                assert np.max(np.abs(x[a, b] - direct)) < 1e-15

    def test_quarter_annulus_radii(self, annulus_gm, rng):
        # |F| depends only on the radial parameter: exact conic arc
        s, t = rng.random(10), rng.random(10)
        x, _, _ = annulus_gm.evaluate_grid(s, t)
        assert np.max(np.abs(np.hypot(x[..., 0], x[..., 1]) - (1.0 + s[:, None]))) < 1e-12

    def test_positive_weights_required(self):
        space = uniform_space(1, 1)
        with pytest.raises(ValueError):
            GeometryMap(space, np.zeros((4, 2)), np.array([1.0, 1.0, 0.0, 1.0]))

    @pytest.mark.parametrize(
        "coord, weight", [(np.nan, 1.0), (np.inf, 1.0), (1.0, np.nan), (1.0, np.inf)]
    )
    def test_finite_input_required(self, coord, weight):
        space = uniform_space(1, 1)
        P = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, coord]])
        with pytest.raises(ValueError, match="finite"):
            GeometryMap(space, P, np.array([1.0, 1.0, 1.0, weight]))

    def test_degenerate_geometry_raises(self):
        space = uniform_space(1, 1)
        P = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])  # collapsed
        gm = GeometryMap(space, P, np.ones(4))
        with pytest.raises(DegenerateJacobian):
            gm.evaluate_grid([0.5], [0.5])


def two_span_geometry(rng):
    """A NURBS map with interior knots in both directions and non-uniform
    weights: a sheared grid of control points, slightly perturbed."""
    kv1 = validate_knots([0, 0, 0, 0.4, 1, 1, 1], 2)
    kv2 = validate_knots([0, 0, 0, 0, 0.3, 0.7, 1, 1, 1, 1], 3)
    space = TensorSpace(kv1, kv2)
    A = np.array([[2.0, 0.3], [-0.4, 1.5]])
    P = greville_grid(space) @ A.T + 0.03 * rng.standard_normal((space.dimension, 2))
    return GeometryMap(space, P, rng.uniform(0.5, 2.0, space.dimension))


class TestEvaluateGrid:
    @pytest.mark.parametrize("name", ["square", "quarter_annulus", "two_span"])
    def test_matches_per_point_reference(self, name, rng):
        gm = two_span_geometry(rng) if name == "two_span" else load_geometry(name)
        # the breakpoints include 0 and 1
        t1 = np.concatenate([gm.space.kv1.mesh.breakpoints, rng.random(12)])
        t2 = np.concatenate([rng.random(9), gm.space.kv2.mesh.breakpoints])
        x, J, detj = gm.evaluate_grid(t1, t2)
        assert x.shape == (len(t1), len(t2), 2)
        assert J.shape == (len(t1), len(t2), 2, 2)
        assert detj.shape == (len(t1), len(t2))
        g1, g2 = np.meshgrid(t1, t2, indexing="ij")
        ref = reference_evaluate(gm, np.column_stack([g1.ravel(), g2.ravel()]))
        for got, want in zip((x, J, detj), ref):
            assert relative_error(got.reshape(want.shape), want) <= 1e-14

    def test_one_point_is_the_one_by_one_grid(self, annulus_gm):
        grid = annulus_gm.evaluate_grid([0.3], [0.8])
        ref = reference_evaluate(annulus_gm, [[0.3, 0.8]])
        for got, want in zip(grid, ref):
            assert got.shape == (1, 1) + want.shape[1:]
            assert relative_error(got[0, 0], want[0]) <= 1e-14

    def test_degenerate_grid_raises(self):
        space = uniform_space(1, 1)
        P = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [1.0, 0.0]])  # collapsed
        gm = GeometryMap(space, P, np.ones(4))
        with pytest.raises(DegenerateJacobian, match="below floor"):
            gm.evaluate_grid([0.0, 0.3, 1.0], [0.5, 0.7])


class TestPhysicalMesh:
    def test_two_by_two_square(self, square_gm):
        space = uniform_space(1, 2)
        mesh = build_mesh(square_gm, space)
        for a in (mesh.side, mesh.lo, mesh.hi, mesh.owner, mesh.h_E):
            assert len(a) == 8
        assert all(h == pytest.approx(0.5, abs=1e-14) for h in mesh.h_E)

    def test_single_element_owners_unique(self, square_gm):
        mesh = build_mesh(square_gm, uniform_space(1, 1))
        assert list(mesh.owner) == [0, 0, 0, 0]

    def test_owner_unique_and_on_boundary(self, square_gm):
        space = uniform_space(2, 4)
        mesh = build_mesh(square_gm, space)
        ns1, ns2 = space.num_spans
        for side, owner in zip(mesh.side, mesh.owner):
            s1, s2 = owner % ns1, owner // ns1  # elements run direction 1 fastest
            if side == "x0":
                assert s1 == 0
            elif side == "x1":
                assert s1 == ns1 - 1
            elif side == "y0":
                assert s2 == 0
            else:
                assert s2 == ns2 - 1

    def test_refinement_halves_h(self, square_gm, annulus_gm):
        # every edge splits into two that add up to its arc length, each half
        # of it: exactly on the square, within 3% on the annulus arcs, whose
        # rational parametrization is not by arc length
        for gm in (square_gm, annulus_gm):
            coarse = build_mesh(gm, uniform_space(2, 4))
            fine = build_mesh(gm, uniform_space(2, 8))
            assert len(fine.h_E) == 2 * len(coarse.h_E)
            for side, lo, hi, h in zip(coarse.side, coarse.lo, coarse.hi, coarse.h_E):
                halves = [fine.h_E[f] for f in range(len(fine.h_E))
                          if fine.side[f] == side and lo <= fine.lo[f] < hi]
                assert len(halves) == 2
                assert sum(halves) == pytest.approx(h, rel=1e-12)
                assert halves == pytest.approx([h / 2] * 2, rel=0.05)

    @pytest.mark.parametrize("degree,spans", [(1, 1), (2, 3)])
    def test_edges_side_by_side_in_order(self, square_gm, degree, spans):
        # sides in SIDES order, spans in order along each side
        mesh = build_mesh(square_gm, uniform_space(degree, spans))
        bps = np.linspace(0.0, 1.0, spans + 1)
        assert list(mesh.side) == [side for side in SIDES for _ in range(spans)]
        assert np.array_equal(mesh.lo, np.tile(bps[:-1], 4))
        assert np.array_equal(mesh.hi, np.tile(bps[1:], 4))

    def test_detj_sign_positive(self, square_gm, annulus_gm, rng):
        for gm in (square_gm, annulus_gm):
            _, _, detj = gm.evaluate_grid(rng.random(20), rng.random(10))
            assert detj.shape == (20, 10)
            assert np.all(detj > 0)


def reference_h_E(gm, mesh, f):
    """Arc length of boundary edge ``f``: one geometry evaluation for that edge."""
    a, b = mesh.lo[f], mesh.hi[f]
    ts, ws = quadrature.gauss_rule(EDGE_LENGTH_POINTS).mapped(a, b)
    x_hat = np.array([reference_param_point(mesh, f, (t - a) / (b - a)) for t in ts])
    _, J, _ = reference_evaluate(gm, x_hat)
    tang = J[:, :, 1] if mesh.side[f] in ("x0", "x1") else J[:, :, 0]
    return float(np.sum(ws * np.linalg.norm(tang, axis=1)))


class TestBatchedMesh:
    @pytest.mark.parametrize("degree,spans", [(2, 5), (3, 4)])
    def test_matches_element_and_edge_loop(self, annulus_gm, degree, spans):
        space = uniform_space(degree, spans)
        mesh = build_mesh(annulus_gm, space)
        assert len(mesh.h_E) == 4 * spans
        for f, h in enumerate(mesh.h_E):
            assert h == pytest.approx(reference_h_E(annulus_gm, mesh, f), rel=1e-14, abs=0)

    @pytest.mark.parametrize("geometry", ["square", "quarter_annulus"])
    @pytest.mark.parametrize("degree,spans", [(1, 1), (2, 3), (4, 5)])
    def test_edge_points_match_param_point(self, geometry, degree, spans):
        # the points of all edges formed at once equal the edge-by-edge
        # reference bit for bit
        mesh = build_mesh(load_geometry(geometry), uniform_space(degree, spans))
        rule = quadrature.gauss_rule(degree + 2)
        x_hat = edge_geometry(mesh.geometry, mesh.side, mesh.lo, mesh.hi, rule)[0]
        ref = np.stack([reference_param_point(mesh, f, rule.points) for f in range(len(mesh.side))])
        assert x_hat.shape == ref.shape
        assert np.array_equal(x_hat, ref)

    @pytest.mark.parametrize("q", [1, None, 8], ids=["q1", "default", "q8"])
    def test_sign_change_at_a_corner_raises(self, q):
        # bilinear map with P11 = (0.47, 0.47): det J = 1 - 0.53 (u + v) is
        # positive at every Gauss point and negative only near the corner (1, 1)
        space = uniform_space(1, 1)
        P = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.47, 0.47]])
        gm = GeometryMap(space, P, np.ones(4))
        gauss = quadrature.gauss_rule(3).points
        assert np.all(gm.evaluate_grid(gauss, gauss)[2] > 0)
        assert gm.evaluate_grid([1.0], [1.0])[2][0, 0] < 0
        with pytest.raises(DegenerateJacobian, match="changes sign"):
            Discretization(space, build_mesh(gm, space), q)

    @pytest.mark.parametrize("q", [1, None, 8], ids=["q1", "default", "q8"])
    def test_folded_geometry_raises(self, q):
        # x(u) = 2u(1-u) + 0.2u^2 turns back at u = 5/9: det J changes sign
        # inside the domain, away from the first element
        space = TensorSpace(uniform_open_knots(2, 1), uniform_open_knots(1, 1))
        P = np.array([[0.0, 0.0], [1.0, 0.0], [0.2, 0.0],
                      [0.0, 1.0], [1.0, 1.0], [0.2, 1.0]])
        gm = GeometryMap(space, P, np.ones(6))
        solution_space = uniform_space(1, 4)
        with pytest.raises(DegenerateJacobian, match="changes sign"):
            Discretization(solution_space, build_mesh(gm, solution_space), q)

    @pytest.mark.parametrize("q", [2, None, 8], ids=["q2", "default", "q8"])
    def test_one_evaluation_inside_the_elements(self, annulus_gm, monkeypatch, q):
        # build_mesh evaluates the four sides only; the element cache its
        # Gauss grid, the corners and, below the default order (5 at k = 3),
        # the default Gauss grid
        grids = []
        evaluate_grid = GeometryMap.evaluate_grid

        def counted(gm, t1, t2):
            grids.append((len(t1), len(t2)))
            return evaluate_grid(gm, t1, t2)

        monkeypatch.setattr(GeometryMap, "evaluate_grid", counted)
        space = uniform_space(3, 4)
        mesh = build_mesh(annulus_gm, space)
        assert sorted(grids) == [(1, 20), (1, 20), (20, 1), (20, 1)]
        grids.clear()
        Discretization(space, mesh, q)
        n = 4 * (q or 5)
        element_grids = [(n, n), (5, 5)] + ([(20, 20)] if q == 2 else [])
        assert grids[: len(element_grids)] == element_grids
        assert len(grids) == len(element_grids) + 4  # the sides at order q


class TestNormals:
    """The outward normals the boundary terms use, ``disc.boundary.normal``."""

    def test_square_sides(self, square_gm):
        disc = make_disc(square_gm, 1, 2)
        expected = {"x0": [-1, 0], "x1": [1, 0], "y0": [0, -1], "y1": [0, 1]}
        for side, n in zip(disc.mesh.side, disc.boundary.normal):
            assert np.array_equal(n, np.broadcast_to(expected[side], n.shape))

    def test_unit_length(self, annulus_gm):
        n = make_disc(annulus_gm, 2, 2).boundary.normal
        assert np.max(np.abs(np.linalg.norm(n, axis=2) - 1.0)) < 1e-14

    def test_annulus_outer_arc_is_radial(self, annulus_gm):
        # on both arcs the outward normal is radial: away from the origin on
        # the outer arc (x1), toward it on the inner arc (x0)
        disc = make_disc(annulus_gm, 2, 2)
        bc = disc.boundary
        for side, x, n in zip(disc.mesh.side, bc.x, bc.normal):
            radial = x / np.linalg.norm(x, axis=1)[:, None]
            if side == "x1":
                assert np.max(np.abs(n - radial)) < 1e-10
            elif side == "x0":
                assert np.max(np.abs(n + radial)) < 1e-10


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

    @pytest.mark.parametrize(
        "header, named",
        [
            ("degrees: 1 1\nknots1: 1; 0 0 1 1\nknots1: 1; 0 0 0.5 1 1\nknots2: 1; 0 0 1 1\n",
             ["line 3", "'knots1'", "line 2"]),
            ("degrees: 1 1\ncolour: red\nknots1: 1; 0 0 1 1\nknots2: 1; 0 0 1 1\n",
             ["line 2", "unknown", "'colour'"]),
        ],
        ids=["repeated", "unknown"],
    )
    def test_header_key_repeated_or_unknown(self, header, named):
        with pytest.raises(ValueError) as info:
            parse_geometry(header + "0 0 1\n1 0 1\n0 1 1\n1 1 1\n")
        for word in named:
            assert word in str(info.value)

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
        x, _, _ = gm.evaluate_grid([0.5], [0.5])
        assert np.allclose(x[0, 0], [1.0, 1.0])
