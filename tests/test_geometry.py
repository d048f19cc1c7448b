import ast
from pathlib import Path

import numpy as np
import pytest

from nitsche_iga import (
    Discretization,
    GeometryMap,
    TensorSpace,
    load_geometry,
    parse_geometry,
    uniform_space,
    validate_knots,
)
from nitsche_iga import quadrature
from nitsche_iga.errors import DegenerateJacobian, UnknownCase
from nitsche_iga.assembly import EDGE_LENGTH_POINTS
from nitsche_iga.geometry import SIDES, build_mesh, edge_geometry
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

    @pytest.mark.parametrize("scale", [1e-6, 1e3])
    def test_floor_scales_with_the_control_net(self, scale):
        # the floor is relative to the net's size: a scaled unit square maps,
        # with area scale^2, and a scaled collapsed map is still refused
        space = uniform_space(1, 1)
        corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        square = GeometryMap(space, scale * corners, np.ones(4))
        w = make_disc(square, 2, 4).elements.w
        assert w.sum() == pytest.approx(scale**2, rel=1e-14, abs=0)
        collapsed = scale * corners[[0, 1, 0, 1]]
        with pytest.raises(DegenerateJacobian, match="below floor"):
            GeometryMap(space, collapsed, np.ones(4)).evaluate_grid([0.0, 0.3, 1.0], [0.5, 0.7])

    def test_control_points_must_not_coincide(self):
        with pytest.raises(ValueError, match="coincide"):
            GeometryMap(uniform_space(1, 1), np.ones((4, 2)), np.ones(4))


class TestPhysicalMesh:
    """The mesh of the space's spans mapped by F: its boundary edges, held by
    ``disc.boundary`` as ``side``, ``lo``, ``hi`` and ``owner``."""

    def test_two_by_two_square(self, square_gm):
        bc = make_disc(square_gm, 1, 2).boundary
        for a in (bc.side, bc.lo, bc.hi, bc.owner, bc.h_E):
            assert len(a) == 8
        assert all(h == pytest.approx(0.5, abs=1e-14) for h in bc.h_E)

    def test_single_element_owners_unique(self, square_gm):
        bc = make_disc(square_gm, 1, 1).boundary
        assert list(bc.owner) == [0, 0, 0, 0]

    def test_owner_unique_and_on_boundary(self, square_gm):
        disc = make_disc(square_gm, 2, 4)
        bc = disc.boundary
        ns1, ns2 = disc.space.num_spans
        for side, owner in zip(bc.side, bc.owner):
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
            coarse, fine = make_disc(gm, 2, 4), make_disc(gm, 2, 8)
            fine_h = fine.boundary.h_E
            assert len(fine_h) == 2 * len(coarse.boundary.h_E)
            cb, fb = coarse.boundary, fine.boundary
            for side, lo, hi, h in zip(cb.side, cb.lo, cb.hi, cb.h_E):
                halves = [fine_h[f] for f in range(len(fine_h))
                          if fb.side[f] == side and lo <= fb.lo[f] < hi]
                assert len(halves) == 2
                assert sum(halves) == pytest.approx(h, rel=1e-12)
                assert halves == pytest.approx([h / 2] * 2, rel=0.05)

    @pytest.mark.parametrize("degree,spans", [(1, 1), (2, 3)])
    def test_edges_side_by_side_in_order(self, square_gm, degree, spans):
        # sides in SIDES order, spans in order along each side
        bc = make_disc(square_gm, degree, spans).boundary
        bps = np.linspace(0.0, 1.0, spans + 1)
        assert list(bc.side) == [side for side in SIDES for _ in range(spans)]
        assert np.array_equal(bc.lo, np.tile(bps[:-1], 4))
        assert np.array_equal(bc.hi, np.tile(bps[1:], 4))

    def test_detj_sign_positive(self, square_gm, annulus_gm, rng):
        for gm in (square_gm, annulus_gm):
            _, _, detj = gm.evaluate_grid(rng.random(20), rng.random(10))
            assert detj.shape == (20, 10)
            assert np.all(detj > 0)


def referenced_names(path):
    """The names a Python file imports, reads as attributes or refers to."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Name):
            yield node.id


class TestBuildMeshShim:
    """``build_mesh`` is kept for the benchmark's workloads alone."""

    def test_returns_the_map(self, square_gm):
        assert build_mesh(square_gm, uniform_space(2, 3)) is square_gm

    def test_no_module_or_demo_uses_it(self):
        root = Path(__file__).resolve().parents[1]
        files = [*(root / "src" / "nitsche_iga").glob("*.py"), *(root / "demos").glob("*.py")]
        assert len(files) > 10
        assert [f.name for f in files if "build_mesh" in set(referenced_names(f))] == []


def reference_h_E(gm, edges, f):
    """Arc length of boundary edge ``f`` of ``edges`` (a ``Discretization``'s
    ``boundary``) over the map ``gm``: one geometry evaluation for that edge."""
    a, b = edges.lo[f], edges.hi[f]
    ts, ws = quadrature.gauss_rule(EDGE_LENGTH_POINTS).mapped(a, b)
    x_hat = np.array([reference_param_point(edges, f, (t - a) / (b - a)) for t in ts])
    _, J, _ = reference_evaluate(gm, x_hat)
    tang = J[:, :, 1] if edges.side[f] in ("x0", "x1") else J[:, :, 0]
    return float(np.sum(ws * np.linalg.norm(tang, axis=1)))


class TestBatchedMesh:
    @pytest.mark.parametrize("degree,spans", [(2, 5), (3, 4)])
    def test_matches_element_and_edge_loop(self, annulus_gm, degree, spans):
        disc = make_disc(annulus_gm, degree, spans)
        bc = disc.boundary
        assert len(bc.h_E) == 4 * spans
        for f, h in enumerate(bc.h_E):
            assert h == pytest.approx(reference_h_E(disc.geometry, bc, f), rel=1e-14, abs=0)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_h_E_does_not_depend_on_the_quadrature_order(self, annulus_gm, degree):
        # h_E comes from the fixed 5-point rule at every order, from the edge
        # points themselves at q = 5
        space = uniform_space(degree, 3)
        bc = Discretization(space, annulus_gm, EDGE_LENGTH_POINTS).boundary
        for f, h in enumerate(bc.h_E):
            assert h == pytest.approx(reference_h_E(annulus_gm, bc, f), rel=1e-14, abs=0)
        for q in range(2, 9):
            assert np.array_equal(Discretization(space, annulus_gm, q).boundary.h_E, bc.h_E), q

    @pytest.mark.parametrize("geometry", ["square", "quarter_annulus"])
    @pytest.mark.parametrize("degree,spans", [(1, 1), (2, 3), (4, 5)])
    def test_edge_points_match_param_point(self, geometry, degree, spans):
        # the points of all edges formed at once equal the edge-by-edge
        # reference bit for bit
        disc = make_disc(load_geometry(geometry), degree, spans)
        bc = disc.boundary
        rule = quadrature.gauss_rule(degree + 2)
        x_hat = edge_geometry(disc.geometry, bc.side, bc.lo, bc.hi, rule)[0]
        ref = np.stack([reference_param_point(bc, f, rule.points) for f in range(len(bc.side))])
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
            Discretization(space, gm, q)

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
            Discretization(solution_space, gm, q)

    @pytest.mark.parametrize("q", [2, None, 8], ids=["q2", "default", "q8"])
    def test_one_evaluation_inside_the_elements(self, annulus_gm, monkeypatch, q):
        # the element cache evaluates its Gauss grid, the
        # corners and, below the default order (5 at k = 3), the default
        # Gauss grid; the edge cache the four sides at order q and, unless q
        # is the 5 points of h_E, once more at 5 points
        grids = []
        evaluate_grid = GeometryMap.evaluate_grid

        def counted(gm, t1, t2):
            grids.append((len(t1), len(t2)))
            return evaluate_grid(gm, t1, t2)

        monkeypatch.setattr(GeometryMap, "evaluate_grid", counted)
        Discretization(uniform_space(3, 4), annulus_gm, q)
        n = 4 * (q or 5)
        element_grids = [(n, n), (5, 5)] + ([(20, 20)] if q == 2 else [])
        assert grids[: len(element_grids)] == element_grids
        sides = [(1, n), (1, n), (n, 1), (n, 1)]
        if q is not None:
            sides += [(1, 20), (1, 20), (20, 1), (20, 1)]
        assert sorted(grids[len(element_grids):]) == sorted(sides)


class TestNormals:
    """The outward normals the boundary terms use, ``disc.boundary.normal``."""

    def test_square_sides(self, square_gm):
        disc = make_disc(square_gm, 1, 2)
        expected = {"x0": [-1, 0], "x1": [1, 0], "y0": [0, -1], "y1": [0, 1]}
        for side, n in zip(disc.boundary.side, disc.boundary.normal):
            assert np.array_equal(n, np.broadcast_to(expected[side], n.shape))

    def test_unit_length(self, annulus_gm):
        n = make_disc(annulus_gm, 2, 2).boundary.normal
        assert np.max(np.abs(np.linalg.norm(n, axis=2) - 1.0)) < 1e-14

    def test_annulus_outer_arc_is_radial(self, annulus_gm):
        # on both arcs the outward normal is radial: away from the origin on
        # the outer arc (x1), toward it on the inner arc (x0)
        disc = make_disc(annulus_gm, 2, 2)
        bc = disc.boundary
        for side, x, n in zip(bc.side, bc.x, bc.normal):
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
