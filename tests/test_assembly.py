import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from nitsche_iga import (
    AssembledForms,
    Discretization,
    TensorSpace,
    TimeGrid,
    assemble_mass,
    assemble_stiffness,
    assembly,
    builtin_case,
    coercivity_audit,
    gauss_rule,
    inflow_mask,
    load_geometry,
    march,
    penalty_floor,
    project_initial,
    trace_constant,
)
from nitsche_iga.errors import ConfigError, ConvergenceFailure, SingularGram
from nitsche_iga.linalg import BandLayout
from nitsche_iga.geometry import invert_2x2 as _invert_2x2
from nitsche_iga.problem import Problem, _const_matrix, _const_scalar, _const_vector
from nitsche_iga.splines import collocation, eval_basis_many, uniform_open_knots, validate_knots

from conftest import (
    make_disc,
    reference_basis_table,
    reference_evaluate,
    reference_load,
    reference_pattern,
    relative_error,
    span_tables,
)


def pure_heat_problem(c=0.0):
    """mu = I, b = 0, raw reaction coefficient; assembly-only data."""
    return Problem(
        mu=_const_matrix(1.0, 0.0, 1.0),
        b=_const_vector(0.0, 0.0),
        c=_const_scalar(c),
        f=_const_scalar(0.0),
        g=_const_scalar(0.0),
        u0=lambda x, y: np.zeros(len(np.atleast_1d(x))),
        mu0=1.0,
        mu1=1.0,
        c0=max(c, 1e-12),
        T=1.0,
    )


# -- independent dense brute-force assembly on the identity unit square ------

def dense_basis_row(space, x, y):
    """All basis values and gradients at one physical point (identity map)."""
    first1, d1 = eval_basis_many(space.kv1, [x])
    first2, d2 = eval_basis_many(space.kv2, [y])
    (v1, dv1), (v2, dv2) = d1[0], d2[0]
    n1 = space.shape[0]
    vals = np.zeros(space.dimension)
    grad = np.zeros((2, space.dimension))
    for l1 in range(space.kv1.degree + 1):
        for l2 in range(space.kv2.degree + 1):
            g = (first1[0] + l1) + n1 * (first2[0] + l2)
            vals[g] = v1[l1] * v2[l2]
            grad[0, g] = dv1[l1] * v2[l2]
            grad[1, g] = v1[l1] * dv2[l2]
    return vals, grad


def dense_oracle(space, p, eps, t, q=8):
    """Dense stiffness and load by direct quadrature of every basis pair.

    Valid on the identity square only: edges are straight with hardcoded
    normals and h_E equal to the span width.  Row index is the test
    function, column the trial function.
    """
    dim = space.dimension
    rule = gauss_rule(q)
    A = np.zeros((dim, dim))
    F = np.zeros(dim)

    def spans(kv):
        bps = kv.breakpoints
        return list(zip(bps[:-1], bps[1:]))

    for a1, b1 in spans(space.kv1):
        xs, wxs = rule.mapped(a1, b1)
        for a2, b2 in spans(space.kv2):
            ys, wys = rule.mapped(a2, b2)
            for x, wx in zip(xs, wxs):
                for y, wy in zip(ys, wys):
                    w = wx * wy
                    vals, grad = dense_basis_row(space, x, y)
                    xa, ya = np.array([x]), np.array([y])
                    mu = p.mu(xa, ya, t)[0]
                    bb = p.b(xa, ya, t)[0]
                    cc = p.c(xa, ya, t)[0]
                    A += w * (grad.T @ (mu @ grad))
                    A += w * np.outer(vals, bb @ grad)
                    A += w * cc * np.outer(vals, vals)
                    F += w * p.f(xa, ya, t)[0] * vals

    sides = [
        ("x", 0.0, np.array([-1.0, 0.0])),
        ("x", 1.0, np.array([1.0, 0.0])),
        ("y", 0.0, np.array([0.0, -1.0])),
        ("y", 1.0, np.array([0.0, 1.0])),
    ]
    for axis, fixed, n in sides:
        tang_kv = space.kv2 if axis == "x" else space.kv1
        for a, b in spans(tang_kv):
            h_E = b - a
            ts, ws = rule.mapped(a, b)
            for s, w in zip(ts, ws):
                x, y = (fixed, s) if axis == "x" else (s, fixed)
                vals, grad = dense_basis_row(space, x, y)
                xa, ya = np.array([x]), np.array([y])
                mu = p.mu(xa, ya, t)[0]
                flux = n @ (mu @ grad)
                A -= w * np.outer(vals, flux)
                A -= w * np.outer(flux, vals)
                bn = p.b(xa, ya, t)[0] @ n
                if bn < 0:
                    A -= w * bn * np.outer(vals, vals)
                A += w * (eps / h_E) * np.outer(vals, vals)
                gv = p.g(xa, ya, t)[0]
                F -= w * gv * flux
                if bn < 0:
                    F -= w * bn * gv * vals
                F += w * (eps / h_E) * gv * vals
    return A, F


def _point_data(space, gm, x_hat):
    """Geometry and basis data at an (m, 2) array of parametric points, one
    point at a time: ``(x, J, detJ, J^-1, B, G, gidx)`` with the global
    indices of the local basis of the first point."""
    k1, k2 = space.degrees
    m, n1 = len(x_hat), space.shape[0]
    x, J, detj = reference_evaluate(gm, x_hat)
    f1, d1 = eval_basis_many(space.kv1, x_hat[:, 0])
    f2, d2 = eval_basis_many(space.kv2, x_hat[:, 1])
    Ghat = np.empty((m, (k1 + 1) * (k2 + 1), 2))
    Ghat[..., 0] = (d1[:, 1, :, None] * d2[:, 0, None, :]).reshape(m, -1)
    Ghat[..., 1] = (d1[:, 0, :, None] * d2[:, 1, None, :]).reshape(m, -1)
    invJ = _invert_2x2(J)
    B = (d1[:, 0, :, None] * d2[:, 0, None, :]).reshape(m, -1)
    G = np.einsum("qlb,qba->qla", Ghat, invJ)
    l1 = np.repeat(np.arange(k1 + 1), k2 + 1)
    l2 = np.tile(np.arange(k2 + 1), k1 + 1)
    return x, J, detj, invJ, B, G, (f1[0] + l1) + n1 * (f2[0] + l2)


def reference_element_data(space, gm, q):
    """ElementCache arrays element by element: one basis and geometry
    evaluation per element, points with direction 2 fastest."""
    rule = gauss_rule(q)
    ns1, ns2 = space.num_spans
    out = {name: [] for name in ("x", "w", "B", "G", "gidx")}
    for s2 in range(1, ns2 + 1):
        for s1 in range(1, ns1 + 1):
            t1, w1 = rule.mapped(*space.kv1.breakpoints[s1 - 1 : s1 + 1])
            t2, w2 = rule.mapped(*space.kv2.breakpoints[s2 - 1 : s2 + 1])
            x_hat = np.column_stack([np.repeat(t1, q), np.tile(t2, q)])
            x, _, detj, _, B, G, gidx = _point_data(space, gm, x_hat)
            out["x"].append(x)
            out["w"].append(np.outer(w1, w2).ravel() * np.abs(detj))
            out["B"].append(B)
            out["G"].append(G)
            out["gidx"].append(gidx)
    return {name: np.array(rows) for name, rows in out.items()}


def reference_edge_data(space, edges, gm, q):
    """EdgeCache arrays edge by edge on the boundary edges ``edges`` (a
    ``Discretization``'s ``boundary``): one basis and geometry evaluation per
    edge."""
    rule = gauss_rule(q)
    ns1, ns2 = space.num_spans
    out = {name: [] for name in ("x", "w", "normal", "B", "G", "gidx", "owner")}
    for side, lo, hi in zip(edges.side, edges.lo, edges.hi):
        ts, ws = rule.mapped(lo, hi)
        along_dir2 = side in ("x0", "x1")
        fixed_coord = 0.0 if side in ("x0", "y0") else 1.0
        fixed = np.full(q, fixed_coord)
        x_hat = np.column_stack([fixed, ts] if along_dir2 else [ts, fixed])
        xe, J, _, invJ, B, G, gidx = _point_data(space, gm, x_hat)
        tang = J[:, :, 1] if along_dir2 else J[:, :, 0]
        out["x"].append(xe)
        out["w"].append(ws * np.linalg.norm(tang, axis=1))
        normal = (1.0 if fixed_coord else -1.0) * invJ[:, 0 if along_dir2 else 1, :]
        out["normal"].append(normal / np.linalg.norm(normal, axis=1)[:, None])
        out["B"].append(B)
        out["G"].append(G)
        out["gidx"].append(gidx)
        # the owner element (direction 1 fastest) holds the edge's span
        bps = (space.kv2 if along_dir2 else space.kv1).breakpoints
        n = int(np.searchsorted(bps, lo))
        if along_dir2:
            s1, s2 = (0 if side == "x0" else ns1 - 1), n
        else:
            s1, s2 = n, (0 if side == "y0" else ns2 - 1)
        out["owner"].append(s1 + ns1 * s2)
    return {name: np.array(rows) for name, rows in out.items()}


def reference_table(ref):
    """The cache ``table`` layout (n, q, 3, nloc) of reference B and G."""
    return np.concatenate([ref["B"][:, :, None], ref["G"].swapaxes(2, 3)], axis=2)


class TestEdgeCache:
    @pytest.mark.parametrize("degree,spans", [(2, 5), (3, 4)])
    def test_matches_edge_loop(self, annulus_gm, degree, spans):
        # the geometry is evaluated on grids, the reference point by point:
        # equal at roundoff; the basis tables of the solution space are equal
        disc = make_disc(annulus_gm, degree, spans)
        bc = disc.boundary
        ref = reference_edge_data(disc.space, bc, disc.geometry, disc.quadrature_order)
        for name in ("x", "w", "normal", "G"):
            assert relative_error(getattr(bc, name), ref[name]) <= 1e-14, name
        for name in ("B", "gidx", "owner"):
            assert np.array_equal(getattr(bc, name), ref[name]), name
        # h_E sums the arc-length weights of the fixed 5-point rule
        five = assembly.EDGE_LENGTH_POINTS
        lengths = reference_edge_data(disc.space, bc, disc.geometry, five)["w"]
        assert relative_error(bc.h_E, lengths.sum(axis=1)) <= 1e-14

    @pytest.mark.parametrize("kind", ["uniform", "anisotropic"])
    def test_edge_cache_evaluates_span_tables_and_ends(self, monkeypatch, square_gm, kind):
        # a set-up evaluates each distinct knot vector once at the Gauss
        # points of all its spans, for the element and the edge cache alike,
        # and once at the two ends for the edge cache, never at the edge
        # points themselves
        disc = anisotropic_disc(square_gm) if kind == "anisotropic" else make_disc(square_gm, 2, 3)
        space = disc.space
        calls = []
        evaluate = assembly.eval_basis_many

        def spy(kv, xs):
            calls.append((kv, np.asarray(xs, dtype=float)))
            return evaluate(kv, xs)

        monkeypatch.setattr(assembly, "eval_basis_many", spy)
        q = 5
        Discretization(space, square_gm, q)
        kvs = [space.kv1] if kind == "uniform" else [space.kv1, space.kv2]
        assert len(calls) == 2 * len(kvs)
        for kv in kvs:
            bps = kv.breakpoints
            gauss = gauss_rule(q).mapped(bps[:-1, None], bps[1:, None])[0].ravel()
            made = [xs for called, xs in calls if called is kv]
            assert sorted(xs.tobytes() for xs in made) == sorted(
                a.tobytes() for a in (gauss, np.array([0.0, 1.0]))
            )


def anisotropic_disc(gm):
    """A space with k1 != k2, ns1 != ns2 and a double interior knot in each
    direction (reduced continuity there)."""
    kv1 = validate_knots([0] * 4 + [0.25, 0.5, 0.5, 0.75] + [1] * 4, 3)
    kv2 = validate_knots([0] * 3 + [0.1, 0.2, 0.4, 0.4, 0.6, 0.8] + [1] * 3, 2)
    space = TensorSpace(kv1, kv2)
    return Discretization(space, gm)


class TestBasisTable:
    @pytest.mark.parametrize("geometry", ["square", "quarter_annulus"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, "anisotropic"])
    def test_matches_outer_products(self, monkeypatch, geometry, degree):
        # both caches against outer products of the 1-D tables and the einsum
        # mapping: values bit for bit, gradients at roundoff.  With one span
        # row per block, the element cache makes one call per row, each
        # filling the next slice of its table; the edge cache makes one call
        calls = []
        build = assembly._basis_table

        def spy(d1, d2, jac, out=None):
            calls.append(((d1, d2, jac), out, build(d1, d2, jac, out=out)))
            return calls[-1][2]

        monkeypatch.setattr(assembly, "_basis_table", spy)
        monkeypatch.setattr(assembly, "BLOCK_BYTES", 1)
        gm = load_geometry(geometry)
        disc = anisotropic_disc(gm) if degree == "anisotropic" else make_disc(gm, degree, 3)
        ns1, ns2 = disc.space.num_spans
        assert len(calls) == ns2 + 1
        *rows, (edge_args, edge_out, (edge_table, _, _)) = calls
        assert edge_out is None and edge_table is disc.boundary.table
        table = disc.elements.table
        for r, (_, out, (filled, _, _)) in enumerate(rows):
            assert filled is out
            assert out.ctypes.data == table[r * ns1 :].ctypes.data and len(out) == ns1
        element_args = [np.concatenate(a) for a in zip(*(args for args, _, _ in rows))]
        for cache, args in ((disc.elements, element_args), (disc.boundary, edge_args)):
            assert np.shares_memory(cache.B, cache.table)
            assert np.shares_memory(cache.G, cache.table)
            ref = reference_basis_table(*args)
            assert cache.table.shape == ref.shape
            assert np.array_equal(cache.B, ref[:, :, 0])
            assert relative_error(cache.G, ref[:, :, 1:].swapaxes(2, 3)) <= 1e-15


class TestCachesAgainstPerPointBuild:
    @pytest.mark.parametrize("geometry", ["square", "quarter_annulus"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4, "anisotropic"])
    def test_arrays_match(self, geometry, degree):
        # the anisotropic space, k1 != k2 and ns1 != ns2, shows an index of
        # one direction taken for the other's
        gm = load_geometry(geometry)
        disc = anisotropic_disc(gm) if degree == "anisotropic" else make_disc(gm, degree, 3)
        q = disc.quadrature_order
        for cache, ref, names in (
            (disc.elements, reference_element_data(disc.space, disc.geometry, q), ("x", "w")),
            (
                disc.boundary,
                reference_edge_data(disc.space, disc.boundary, disc.geometry, q),
                ("x", "w", "normal"),
            ),
        ):
            for name in names:
                assert relative_error(getattr(cache, name), ref[name]) <= 1e-14, name
            assert relative_error(cache.table, reference_table(ref)) <= 1e-14
            assert np.array_equal(cache.B, ref["B"])
            assert np.array_equal(cache.gidx, ref["gidx"])

    def test_field_values_and_gradients(self, annulus_gm, rng):
        ec = make_disc(annulus_gm, 3, 4).elements
        coef = rng.standard_normal(ec.gidx.max() + 1)
        field = ec.field(coef)
        values = np.einsum("eql,el->eq", ec.B, coef[ec.gidx])
        grads = np.einsum("eqla,el->eqa", ec.G, coef[ec.gidx])
        assert field.shape == grads.shape[:2] + (3,)
        assert relative_error(field[..., 0], values) <= 1e-14
        assert relative_error(field[..., 1:], grads) <= 1e-14


# -- per-term einsum assembly scattered through COO ---------------------------

def _sample(points, fn, t):
    flat = points.reshape(-1, 2)
    vals = np.asarray(fn(flat[:, 0], flat[:, 1], t))
    return vals.reshape(points.shape[:-1] + vals.shape[1:])


def _coo(blocks, gidx, dim):
    rows = np.broadcast_to(gidx[:, :, None], blocks.shape).ravel()
    cols = np.broadcast_to(gidx[:, None, :], blocks.shape).ravel()
    return scipy.sparse.coo_matrix((blocks.ravel(), (rows, cols)), shape=(dim, dim)).toarray()


def reference_forms(disc, p, eps, t):
    """Dense mass, stiffness, V_h Gram and load: one einsum per term family
    over the cache tables, element and edge blocks scattered separately."""
    ec, bc = disc.elements, disc.boundary
    dim = disc.dimension
    mu, bv, cv, fv = (_sample(ec.x, fn, t) for fn in (p.mu, p.b, p.c, p.f))
    mu_e, b_e, gv = (_sample(bc.x, fn, t) for fn in (p.mu, p.b, p.g))
    wbn = bc.w * np.minimum(np.einsum("fqa,fqa->fq", b_e, bc.normal), 0.0)
    flux = np.einsum("fqa,fqab,fqjb->fqj", bc.normal, mu_e, bc.G)
    edge_mass = np.einsum("fq,fqj,fqi->fij", bc.w, bc.B, bc.B)

    M = _coo(np.einsum("eq,eqi,eqj->eij", ec.w, ec.B, ec.B), ec.gidx, dim)
    blocks = np.einsum("eq,eqab,eqjb,eqia->eij", ec.w, mu, ec.G, ec.G)
    blocks += np.einsum("eq,eqa,eqja,eqi->eij", ec.w, bv, ec.G, ec.B)
    blocks += np.einsum("eq,eq,eqj,eqi->eij", ec.w, cv, ec.B, ec.B)
    C = np.einsum("fq,fqj,fqi->fij", bc.w, flux, bc.B)
    edge_blocks = -C - np.transpose(C, (0, 2, 1))
    edge_blocks -= np.einsum("fq,fqj,fqi->fij", wbn, bc.B, bc.B)
    edge_blocks += (eps / bc.h_E)[:, None, None] * edge_mass
    A = _coo(blocks, ec.gidx, dim) + _coo(edge_blocks, bc.gidx, dim)
    gram = np.einsum("eq,eqi,eqj->eij", ec.w, ec.B, ec.B)
    gram += np.einsum("eq,eqia,eqja->eij", ec.w, ec.G, ec.G)
    G = _coo(gram, ec.gidx, dim) + _coo(edge_mass / bc.h_E[:, None, None], bc.gidx, dim)

    F = np.zeros(dim)
    np.add.at(F, ec.gidx, np.einsum("eq,eq,eqi->ei", ec.w, fv, ec.B))
    contrib = -np.einsum("fq,fq,fqi->fi", bc.w, gv, flux)
    contrib -= np.einsum("fq,fq,fqi->fi", wbn, gv, bc.B)
    contrib += (eps / bc.h_E)[:, None] * np.einsum("fq,fq,fqi->fi", bc.w, gv, bc.B)
    np.add.at(F, bc.gidx, contrib)
    return M, A, G, F


def rotating_advection(p):
    """``p`` with b(t) = (cos pi t/2, sin pi t/2): the inflow set moves in time."""

    def b(x, y, t):
        a = 0.5 * np.pi * t
        return np.broadcast_to([np.cos(a), np.sin(a)], (len(np.atleast_1d(x)), 2))

    return replace(p, b=b)


class TestAgainstPerTermAssembly:
    @pytest.mark.parametrize("geometry", ["square", "quarter_annulus"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    @pytest.mark.filterwarnings("ignore:penalty eps")
    def test_forms_match(self, geometry, degree):
        disc = make_disc(load_geometry(geometry), degree, 3)
        sec8 = builtin_case("paper_sec8").problem
        problems = [sec8, builtin_case("steady_reaction").problem, rotating_advection(sec8)]
        for p in problems:
            for t in (0.3, 1.7):
                M, A, G, F = reference_forms(disc, p, 2.5, t)
                assert relative_error(assemble_stiffness(disc, p, 2.5, t).toarray(), A) <= 1e-13
                assert relative_error(AssembledForms(disc, p, epsilon=2.5).at(t)[1], F) <= 1e-13
        assert relative_error(disc.mass.toarray(), M) <= 1e-13
        assert relative_error(disc.vh_gram.toarray(), G) <= 1e-13


# -- the volume form from unit matrices ---------------------------------------

def per_point_stiffness(disc, coefficients, eps):
    """Stiffness data from eps P, with every volume point's coefficients
    weighting the trial table, in one pass over all elements, and the edge
    blocks after: the fixed ones (minus the flux and its transpose), plus the
    inflow ones."""
    ec, bc = disc.elements, disc.boundary
    mu, bv, cv, mu_e, bv_e = coefficients
    ne = len(ec.table)
    data = eps * disc.penalty_unit
    coef = np.zeros(ec.w.shape + (3, 3))
    coef[..., 0, 0], coef[..., 0, 1:], coef[..., 1:, 1:] = cv, bv, mu
    coef *= ec.w[..., None, None]
    assembly._add_blocks(data, disc._slots[:ne], assembly._blocks(ec.table, coef @ ec.table))
    flux = ((bc.normal[:, :, None, :] @ mu_e) @ bc.table[:, :, 1:])[:, :, 0]
    F = bc.B.swapaxes(1, 2) @ (bc.w[..., None] * flux)
    bn = np.einsum("fqa,fqa->fq", bv_e, bc.normal)
    inflow = -np.minimum(bn, 0.0) * bc.w
    edges = bc.B.swapaxes(1, 2) @ (inflow[..., None] * bc.B)
    edges -= F + F.swapaxes(1, 2)
    assembly._add_blocks(data, disc._slots[ne:], edges)
    return data


def _full_with(fill, value, at):
    a = np.full((5, 4), fill)
    a[at] = value
    return a


# a quiet NaN with another payload than np.nan's
NAN_PAYLOAD = np.uint64(0x7FF8000000000001).view(np.float64)


class TestUnitMatrices:
    @pytest.mark.parametrize(
        "a, uniform",
        [
            (np.broadcast_to([[1.0, 0.5], [0.5, 1.0]], (5, 4, 2, 2)), True),
            (np.full((5, 4), 3.0), True),
            (np.full((5, 4, 2), [1.0, 2.0]), True),
            (np.full((5, 4), np.nan), True),
            # the last point of the last element one ulp off
            (_full_with(2.0, np.nextafter(2.0, 3.0), (4, 3)), False),
            (_full_with(0.0, -0.0, (0, 0)), False),
            (_full_with(np.nan, NAN_PAYLOAD, (2, 1)), False),
            # one value per element, repeated over its points
            (np.broadcast_to(np.arange(5.0)[:, None], (5, 4)), False),
        ],
        ids=["stride0_matrix", "full", "full_vector", "full_nan", "one_point",
             "signed_zero", "nan_payload", "per_element"],
    )
    @pytest.mark.parametrize("budget", ["default", "one element"])
    def test_uniform_compares_bits(self, monkeypatch, a, uniform, budget):
        if budget == "one element":
            monkeypatch.setattr(assembly, "BLOCK_BYTES", 1)
        assert assembly._uniform(a) is uniform

    @pytest.mark.parametrize("geometry", ["square", "quarter_annulus"])
    @pytest.mark.parametrize("degree", [1, 3])
    def test_units_match_per_pair_sums(self, geometry, degree):
        disc = make_disc(load_geometry(geometry), degree, 3)
        ec = disc.elements
        units = disc.volume_units(list(assembly.UNIT_PAIRS))
        for (r, s), data in zip(assembly.UNIT_PAIRS, units):
            blocks = np.einsum("eq,eqi,eqj->eij", ec.w, ec.table[:, :, r], ec.table[:, :, s])
            ref = _coo(blocks, ec.gidx, disc.dimension)
            assert relative_error(disc.matrix(data).toarray(), ref) <= 1e-13, (r, s)

    @pytest.mark.parametrize("geometry", ["square", "quarter_annulus"])
    def test_unit_bits_do_not_depend_on_the_pairs_made_with_it(self, geometry):
        # each call weights only the table rows its pairs read
        disc = make_disc(load_geometry(geometry), 2, 3)
        every = assembly._unit_data(disc, assembly.UNIT_PAIRS)
        for pairs in ([(0, 0)], [(0, 2)], [(2, 1), (0, 1)]):
            for pair, data in zip(pairs, assembly._unit_data(disc, pairs)):
                assert data.tobytes() == every[assembly.UNIT_PAIRS.index(pair)].tobytes()

    @pytest.mark.filterwarnings("ignore:penalty eps")
    def test_units_built_once_for_the_nonzero_pairs(self, monkeypatch, square_gm):
        calls = []
        build = assembly._unit_data

        def spy(disc, pairs):
            calls.append(list(pairs))
            return build(disc, pairs)

        monkeypatch.setattr(assembly, "_unit_data", spy)
        disc = make_disc(square_gm, 2, 3)
        # paper_sec8: mu = I, b = (1, 1), c = 1, so mu12 = mu21 = 0; then
        # b(0) = (1, 0) of the rotating field needs no new unit, and b(1.7)
        # = (cos, sin) of 0.85 pi needs the one of b2
        sec8 = builtin_case("paper_sec8").problem
        for p, t in ((sec8, 0.3), (sec8, 1.7), (rotating_advection(sec8), 0.0)):
            assemble_stiffness(disc, p, 2.5, t)
            AssembledForms(disc, p, epsilon=2.5).at(t)
        assert calls == [[(0, 0), (0, 1), (0, 2), (1, 1), (2, 2)]]
        disc = make_disc(square_gm, 2, 3)
        for t in (0.0, 0.0, 1.7, 1.7):
            assemble_stiffness(disc, rotating_advection(sec8), 2.5, t)
        assert calls[1:] == [[(0, 0), (0, 1), (1, 1), (2, 2)], [(0, 2)]]
        (mass,) = disc.volume_units([(0, 0)])
        assert np.shares_memory(mass, disc.mass.data)  # made once, for both
        assert disc.volume_units([(0, 2)])[0] is disc.volume_units([(0, 2)])[0]
        assert len(calls) == 3

    @pytest.mark.parametrize("geometry", ["square", "quarter_annulus"])
    @pytest.mark.parametrize("name", ["paper_sec8", "rotating"])
    def test_uniform_sample_takes_the_units(self, geometry, name):
        # roundoff from the per-point sums: a sum per term in place of a sum
        # per point
        sec8 = builtin_case("paper_sec8").problem
        p = rotating_advection(sec8) if name == "rotating" else sec8
        disc = make_disc(load_geometry(geometry), 2, 3)
        coefficients = assembly._operator_coefficients(disc, p, 1.7)
        assert all(map(assembly._uniform, coefficients[:3]))
        A, _ = assembly._Stiffness(disc, 2.5).at(coefficients, 1.7)
        ref = per_point_stiffness(disc, coefficients, 2.5)
        assert relative_error(A.data, ref) <= 1e-13

    @pytest.mark.parametrize("key", ["c", "b", "mu"])
    def test_one_varying_point_takes_the_per_point_path(self, monkeypatch, square_gm, key):
        # one ulp more at the first volume point: the sum per point, bit for
        # bit, and no unit matrix is made
        monkeypatch.setattr(assembly, "_unit_data", lambda *args: pytest.fail("units made"))
        disc = make_disc(square_gm, 2, 3)
        xq, yq = disc.elements.x[0, 0]
        sec8 = builtin_case("paper_sec8").problem
        base = getattr(sec8, key)

        def varied(x, y, t):
            v = np.array(base(x, y, t))
            v[(x == xq) & (y == yq)] *= np.nextafter(1.0, 2.0)
            return v

        p = replace(sec8, **{key: varied})
        coefficients = assembly._operator_coefficients(disc, p, 0.5)
        assert not all(map(assembly._uniform, coefficients[:3]))
        A, _ = assembly._Stiffness(disc, 2.5).at(coefficients, 0.5)
        assert A.data.tobytes() == per_point_stiffness(disc, coefficients, 2.5).tobytes()
        assert A.data.tobytes() == assemble_stiffness(disc, p, 2.5, 0.5).data.tobytes()

    @pytest.mark.parametrize("kind", ["uniform", "anisotropic", "two equal knot vectors"])
    def test_element_cache_evaluates_a_shared_knot_vector_once(self, monkeypatch, square_gm, kind):
        # one evaluation when both directions share a knot vector, and the
        # same tables, points and weights as from two equal ones
        if kind == "anisotropic":
            space = anisotropic_disc(square_gm).space
        else:
            space = make_disc(square_gm, 2, 3).space
            assert space.kv1 is space.kv2
        if kind == "two equal knot vectors":
            space = TensorSpace(space.kv1, validate_knots(space.kv1.knots, space.kv1.degree))
        calls = []
        evaluate = assembly.eval_basis_many

        def spy(*args):
            calls.append(args[0])
            return evaluate(*args)

        monkeypatch.setattr(assembly, "eval_basis_many", spy)
        cache = assembly.ElementCache(space, square_gm, span_tables(space, 5))
        assert len(calls) == (1 if kind == "uniform" else 2)
        if kind == "two equal knot vectors":
            shared_space = TensorSpace(space.kv1, space.kv1)
            shared = assembly.ElementCache(shared_space, square_gm, span_tables(shared_space, 5))
            for key in ("table", "x", "w", "gidx"):
                assert getattr(cache, key).tobytes() == getattr(shared, key).tobytes(), key


def _grows(p, key):
    """``p`` with the coefficient ``key`` scaled by 1 + t/10 at every point."""
    base = getattr(p, key)

    def grown(x, y, t):
        return (1.0 + 0.1 * t) * base(x, y, t)

    return replace(p, **{key: grown})


class TestEdgeParts:
    """The fixed edge blocks (minus the flux and its transpose) are made again
    only when mu at the edge points changes, and each matrix is bit-equal to
    a fresh assembly."""

    STEPS = 6

    @pytest.mark.parametrize(
        "name, builds", [("rotating_b", 1), ("mu_grows", STEPS), ("c_grows", 1)]
    )
    @pytest.mark.parametrize("geometry", ["square", "quarter_annulus"])
    def test_fixed_blocks_made_when_edge_mu_changes(self, monkeypatch, geometry, name, builds):
        sec8 = builtin_case("paper_sec8").problem
        p = {
            "rotating_b": rotating_advection(sec8),
            "mu_grows": replace(_grows(sec8, "mu"), mu1=1.5),
            "c_grows": _grows(sec8, "c"),
        }[name]
        disc = make_disc(load_geometry(geometry), 2, 3)
        calls = []
        real = assembly._fixed_edge_blocks

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(assembly, "_fixed_edge_blocks", counted)
        forms = AssembledForms(disc, p)
        assert calls == []  # none at set-up
        grid = TimeGrid(self.STEPS, p.T)
        traj = march(forms, grid, project_initial(disc, p.u0))
        assert traj.factorizations == self.STEPS
        assert len(calls) == builds

        fresh = AssembledForms(disc, p)
        for t in grid.nodes[1:]:
            A = fresh.at(t)[0]
            assert A.data.tobytes() == assemble_stiffness(disc, p, fresh.eps, t).data.tobytes()


class TestPenaltyGram:
    """P = sum_E h_E^-1 int_E N_i N_j, made once for the V_h Gram and the
    stiffness, and the fixed edge blocks that are kept beside it."""

    @pytest.mark.parametrize("geometry", ["square", "quarter_annulus"])
    def test_vh_gram_is_the_units_plus_p(self, geometry):
        disc = make_disc(load_geometry(geometry), 2, 3)
        mass, dx, dy = disc.volume_units([(0, 0), (1, 1), (2, 2)])
        ref = mass + dx + dy + disc.penalty_unit
        assert disc.vh_gram.data.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("geometry", ["square", "quarter_annulus"])
    @pytest.mark.parametrize("degree", [1, 3])
    def test_fixed_edge_blocks_are_symmetric(self, geometry, degree):
        # -(F + F^T), bit for bit, under a mu that is not a multiple of I
        sec8 = builtin_case("paper_sec8").problem

        def mu(x, y, t):
            return np.stack([np.stack([1.0 + x, 0.25 * y], -1), np.stack([0.5 * x, 2.0 + y], -1)], -2)

        p = replace(sec8, mu=mu, mu1=3.0)
        disc = make_disc(load_geometry(geometry), degree, 3)
        stiffness = assembly._Stiffness(disc, 2.5)
        stiffness.at(assembly._operator_coefficients(disc, p, 0.5), 0.5)
        for _, fixed, _ in stiffness._fixed:
            assert fixed.tobytes() == fixed.swapaxes(1, 2).tobytes()


class TestSparsityPattern:
    @pytest.mark.parametrize("gm_name", ["square_gm", "annulus_gm"])
    def test_one_sorted_pattern(self, request, gm_name):
        disc = make_disc(request.getfixturevalue(gm_name), 2, 4)
        p = builtin_case("paper_sec8").problem
        M, G = disc.mass, disc.vh_gram
        A = assemble_stiffness(disc, p, 3.0, 0.5)
        for other in (A, G):
            assert np.array_equal(other.indptr, M.indptr)
            assert np.array_equal(other.indices, M.indices)
        # strictly increasing (row, column) keys: sorted rows, no duplicates
        rows = np.repeat(np.arange(disc.dimension), np.diff(M.indptr))
        assert np.all(np.diff(rows * disc.dimension + M.indices) > 0)

    @pytest.mark.parametrize("geometry", ["square", "quarter_annulus"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    @pytest.mark.parametrize("spans", [1, 2, 5])
    def test_tensor_pattern_matches_unique(self, geometry, degree, spans):
        disc = make_disc(load_geometry(geometry), degree, spans)
        self.assert_reference_pattern(disc)

    def test_tensor_pattern_anisotropic(self, square_gm):
        disc = anisotropic_disc(square_gm)
        assert disc.space.degrees == (3, 2) and disc.space.num_spans == (4, 6)
        self.assert_reference_pattern(disc)

    @staticmethod
    def assert_reference_pattern(disc):
        # the pattern from the 1-D span blocks against np.unique over all
        # (row, column) keys of the element blocks, the pattern kept in
        # int32 and the scatter indices in intp, which np.bincount reads
        # without a copy; the element slots and global indices are followed
        # by each edge's owner's
        ref = reference_pattern(disc.elements.gidx, disc.dimension)
        ne, owner = len(disc.elements.gidx), disc.boundary.owner
        for got, want, dtype in zip(
            (disc._indptr, disc._indices, disc._slots[:ne]), ref, (np.int32, np.int32, np.intp)
        ):
            assert got.dtype == dtype
            assert np.array_equal(got, want)
        assert np.array_equal(disc._slots[ne:], disc._slots[owner])
        assert disc._gidx.dtype == np.intp
        assert np.array_equal(disc._gidx[:ne], disc.elements.gidx)
        assert np.array_equal(disc._gidx[ne:], disc.elements.gidx[owner])

    @pytest.mark.parametrize("geometry", ["square", "quarter_annulus"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    @pytest.mark.parametrize("spans", [1, 2, 5])
    def test_edge_basis_is_the_owners(self, geometry, degree, spans):
        # edge terms add into their owner element's entries
        disc = make_disc(load_geometry(geometry), degree, spans)
        bc = disc.boundary
        assert np.array_equal(bc.gidx, disc.elements.gidx[bc.owner])


def top_level_halves(shape, degrees):
    """Masks over the indices i1 + n1 i2 of the two halves of the first cut
    of a nested dissection: k_d index lines at the middle of direction d,
    the direction of the smaller separator (direction 1 when k1 n2 <= k2 n1)
    that is more than k_d + 1 wide."""
    (n1, n2), (k1, k2) = shape, degrees
    i1, i2 = np.tile(np.arange(n1), n2), np.repeat(np.arange(n2), n1)
    wide1, wide2 = n1 > k1 + 1, n2 > k2 + 1
    i, n, k = (i1, n1, k1) if wide1 and (k1 * n2 <= k2 * n1 or not wide2) else (i2, n2, k2)
    m = (n - k + 1) // 2
    return i < m, i >= m + k


class TestNestedDissection:
    # The LU's order.  Every matrix is factored in the natural order
    # i1 + n1 i2, as the band that its layout reads from the pattern, over
    # the spaces a nested-dissection order was once tested on.  The pattern
    # still admits such a dissection, which is why a sparse LU in that order
    # overtakes the band beyond about 48 spans (see linalg.SparseFactor).
    @pytest.mark.parametrize("k1", [1, 2, 3, 4])
    @pytest.mark.parametrize("k2", [1, 2, 3, 4])
    def test_is_a_permutation(self, k1, k2):
        # functions (i1, i2) and (j1, j2) couple when |i1 - j1| <= k1 and
        # |i2 - j2| <= k2, so the farthest entry from the diagonal of the
        # index i1 + n1 i2 lies k2 n1 + k1 away, on either side; the layout
        # permutes the pattern's entries one to one into slots of the band
        for s1 in range(1, 33):
            for s2 in (s1, 33 - s1):
                space = TensorSpace(uniform_open_knots(k1, s1), uniform_open_knots(k2, s2))
                first1, first2 = np.arange(s1), np.arange(s2)  # span s starts at function s
                indptr, indices, _ = assembly._tensor_pattern(
                    space, first1, first2, np.empty(0, dtype=np.intp)
                )
                band = BandLayout(indptr, indices)
                n1 = space.shape[0]
                assert band.kl == band.ku == k2 * n1 + k1, (s1, s2)
                assert band.shape == (3 * band.kl + 1, space.dimension)
                slots = np.unique(band._slot)
                assert len(slots) == len(indices)
                assert 0 <= slots[0] and slots[-1] < np.prod(band.shape)

    @pytest.mark.parametrize(
        "degrees, spans",
        [((1, 1), (4, 4)), ((2, 2), (12, 12)), ((3, 3), (7, 16)), ((2, 4), (9, 5)),
         ((4, 1), (16, 9)), ((1, 3), (3, 20)), ((2, 3), (2, 1))],
    )
    def test_top_level_cut_separates_the_halves(self, square_gm, degrees, spans):
        kvs = [uniform_open_knots(k, s) for k, s in zip(degrees, spans)]
        disc = Discretization(TensorSpace(*kvs), square_gm)
        n1 = disc.space.shape[0]
        (k1, k2) = degrees
        assert disc.band.kl == disc.band.ku == k2 * n1 + k1
        self.assert_top_level_cut(disc)
        self.assert_band_slots(disc)

    def test_top_level_cut_with_double_knots(self, square_gm):
        # unequal degrees and spans, and a double interior knot in each
        # direction: every span still couples k + 1 consecutive functions
        disc = anisotropic_disc(square_gm)
        (n1, _), (k1, k2) = disc.space.shape, disc.space.degrees
        assert disc.band.kl == disc.band.ku == k2 * n1 + k1
        self.assert_top_level_cut(disc)
        self.assert_band_slots(disc)

    @staticmethod
    def assert_top_level_cut(disc):
        # no entry of the pattern couples the two halves of the first cut:
        # the band bounds |i - j| alone, the cut the coupling per direction
        left, right = top_level_halves(disc.space.shape, disc.space.degrees)
        rows = np.repeat(np.arange(disc.dimension), np.diff(disc._indptr))
        assert left.any() and right.any()
        assert not np.any(left[rows] & right[disc._indices])
        assert not np.any(right[rows] & left[disc._indices])

    @staticmethod
    def assert_band_slots(disc):
        # the layout is read from the disc's own pattern: kl and ku are its
        # farthest entries below and above the diagonal, and entry (i, j)
        # with data v puts v at row kl + ku + i - j of column j of the
        # Fortran-ordered band, every other slot zero
        band = disc.band
        assert band.indptr is disc._indptr and band.indices is disc._indices
        rows = np.repeat(np.arange(disc.dimension), np.diff(disc._indptr))
        cols = disc._indices
        assert band.kl == np.max(rows - cols) and band.ku == np.max(cols - rows)
        data = np.arange(1.0, len(cols) + 1)
        ab = band.band(data)
        assert ab.shape == (2 * band.kl + band.ku + 1, disc.dimension)
        assert ab.flags.f_contiguous
        assert np.array_equal(ab[band.kl + band.ku + rows - cols, cols], data)
        assert np.count_nonzero(ab) == len(data)


class TestMass:
    def test_univariate_fractions_via_tensor_slice(self, square_gm):
        # tensor direction test: on kv1 = {0,0,.5,1,1} x kv2 = {0,0,1,1}
        # the univariate hat mass appears as a Kronecker factor; recover it
        # by contracting the 2d mass with the kv2 hat mass inverse is
        # overkill, so assemble the 1d matrix directly by quadrature
        kv = validate_knots([0, 0, 0.5, 1, 1], 1)
        rule = gauss_rule(3)
        M = np.zeros((3, 3))
        bps = kv.breakpoints
        for a, b in zip(bps[:-1], bps[1:]):
            xs, ws = rule.mapped(a, b)
            for w, row in zip(ws, collocation(kv, xs)[0]):
                M += w * np.outer(row, row)
        expected = np.array(
            [
                [1 / 6, 1 / 12, 0],
                [1 / 12, 1 / 3, 1 / 12],
                [0, 1 / 12, 1 / 6],
            ]
        )
        assert np.max(np.abs(M - expected)) < 1e-15

    def test_row_sums_and_total(self, square_gm):
        disc = make_disc(square_gm, 2, 3)
        M = assemble_mass(disc)
        # partition of unity: row sums are integrals of single basis
        # functions and the total is the domain area
        assert M.sum() == pytest.approx(1.0, abs=1e-13)
        row_sums = np.asarray(M.sum(axis=1)).ravel()
        assert np.all(row_sums > 0)

    def test_symmetry(self, square_gm, annulus_gm):
        for gm in (square_gm, annulus_gm):
            disc = make_disc(gm, 2, 2)
            M = assemble_mass(disc)
            assert np.abs(M - M.T).max() < 1e-14


class TestStiffness:
    def test_constant_vector_sees_only_penalty(self, square_gm):
        # pure heat: gradients of the constant vanish, so e^T A e collapses
        # to the penalty sum eps/h_E * |E| = eps per edge
        p = pure_heat_problem(c=0.0)
        for spans in (1, 2, 4):
            disc = make_disc(square_gm, 1, spans)
            eps = 3.7
            A = assemble_stiffness(disc, p, eps, 0.0)
            e = np.ones(disc.dimension)
            expected = 4 * eps * spans  # 4/h edges, one eps each
            assert e @ (A @ e) == pytest.approx(expected, rel=1e-13)

    def test_symmetric_without_advection(self, square_gm):
        p = pure_heat_problem(c=1.0)
        disc = make_disc(square_gm, 2, 3)
        A = assemble_stiffness(disc, p, 5.0, 0.0)
        scale = np.abs(A).max()
        assert np.abs(A - A.T).max() < 1e-12 * scale

    def test_nonsymmetric_with_advection(self, square_gm):
        case = builtin_case("paper_sec8")
        disc = make_disc(square_gm, 1, 3)
        A = assemble_stiffness(disc, case.problem, 5.0, 0.0)
        assert np.abs(A - A.T).max() > 1e-3

    def test_penalty_dependence_affine(self, square_gm, annulus_gm):
        # A(eps) = A_0 + eps P: both differences below are eps P itself
        p = builtin_case("paper_sec8").problem
        eps = 4.0
        for gm, degree in ((square_gm, 2), (annulus_gm, 2), (annulus_gm, 3)):
            disc = make_disc(gm, degree, 2)
            A1, A2, A4 = (assemble_stiffness(disc, p, f * eps, 0.5).toarray() for f in (1, 2, 4))
            P = disc.matrix(disc.penalty_unit).toarray()
            scale = np.abs(A4).max()
            assert np.abs((A2 - A1) - eps * P).max() < 1e-13 * scale
            assert np.abs((A4 - A1) / 3.0 - eps * P).max() < 1e-13 * scale

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("name,t", [("paper_sec8", 1.0), ("steady_reaction", 0.5)])
    @pytest.mark.filterwarnings("ignore:penalty eps")
    def test_matches_dense_oracle(self, square_gm, degree, name, t):
        # library at a converged quadrature override, oracle at a different
        # (higher) order, so only the true integrals can agree
        case = builtin_case(name)
        disc = make_disc(square_gm, degree, 2, quadrature_order=8)
        eps = 3.0
        A = assemble_stiffness(disc, case.problem, eps, t).toarray()
        F = AssembledForms(disc, case.problem, epsilon=eps).at(t)[1]
        A_ref, F_ref = dense_oracle(disc.space, case.problem, eps, t, q=12)
        scale = np.abs(A_ref).max()
        assert np.abs(A - A_ref).max() < 1e-10 * scale
        assert np.abs(F - F_ref).max() < 1e-10 * max(1.0, np.abs(F_ref).max())

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.filterwarnings("ignore:penalty eps")
    def test_matches_dense_oracle_at_default_order(self, square_gm, degree):
        # polynomial data: the default rule is already exact
        case = builtin_case("steady_reaction")
        disc = make_disc(square_gm, degree, 2)
        A = assemble_stiffness(disc, case.problem, 3.0, 0.5).toarray()
        F = AssembledForms(disc, case.problem, epsilon=3.0).at(0.5)[1]
        A_ref, F_ref = dense_oracle(disc.space, case.problem, 3.0, 0.5, q=12)
        assert np.abs(A - A_ref).max() < 1e-10 * np.abs(A_ref).max()
        assert np.abs(F - F_ref).max() < 1e-10 * max(1.0, np.abs(F_ref).max())


class TestLoad:
    @pytest.mark.filterwarnings("ignore:penalty eps")
    def test_unit_source_integrates_basis(self, square_gm):
        p = pure_heat_problem(c=0.0)
        p = Problem(**{**p.__dict__, "f": _const_scalar(1.0)})
        disc = make_disc(square_gm, 1, 4)
        F = AssembledForms(disc, p, epsilon=2.0).at(0.0)[1]
        assert F.sum() == pytest.approx(1.0, abs=1e-13)

    @pytest.mark.filterwarnings("ignore:penalty eps")
    def test_pure_dirichlet_constant_aggregate(self, square_gm):
        # f = 0, g = 1, mu = I, b = 0: testing against the constant 1,
        # the flux term vanishes (gradient of the partition of unity) and
        # the total reduces to the penalty sum 4 eps / h
        p = pure_heat_problem(c=0.0)
        p = Problem(**{**p.__dict__, "g": _const_scalar(1.0)})
        for spans in (2, 5):
            disc = make_disc(square_gm, 1, spans)
            eps = 2.5
            F = AssembledForms(disc, p, epsilon=eps).at(0.0)[1]
            assert F.sum() == pytest.approx(4 * eps * spans, rel=1e-12)


class TestPenaltyFloor:
    def test_single_element_k1_against_dense_eig_oracle(self, square_gm):
        disc = make_disc(square_gm, 1, 1)
        p = pure_heat_problem(c=1.0)

        # oracle: build the edge and element Grams by direct quadrature over
        # the four bilinear functions, restrict to a (non-orthogonal) basis
        # of the complement of constants, and solve the generalized problem
        # with the generic nonsymmetric eigensolver
        rule = gauss_rule(6)
        space = disc.space
        T = np.zeros((4, 4))
        S = np.zeros((4, 4))
        for x, wx in zip(*rule.mapped(0, 1)):
            for y, wy in zip(*rule.mapped(0, 1)):
                _, grad = dense_basis_row(space, x, y)
                S += wx * wy * grad.T @ grad
        # edge x = 0, n = (-1, 0), h_E = 1
        for s, w in zip(*rule.mapped(0, 1)):
            _, grad = dense_basis_row(space, 0.0, s)
            ng = -grad[0]
            T += w * np.outer(ng, ng)
        Z = np.array([[1, 0, 0], [-1, 1, 0], [0, -1, 1], [0, 0, -1]], dtype=float)
        vals = scipy.linalg.eig(Z.T @ T @ Z, Z.T @ S @ Z, right=False)
        oracle_edge_max = np.max(vals.real)

        # by symmetry every edge of the single square element gives the
        # same constant, so the library max equals the oracle value
        assert trace_constant(disc) == pytest.approx(oracle_edge_max, rel=1e-10)
        assert p.alpha == 1.0
        assert penalty_floor(disc, p) == pytest.approx(
            2 * oracle_edge_max, rel=1e-10
        )

    @pytest.mark.parametrize("degree", [1, 2])
    def test_scale_invariance_under_refinement(self, square_gm, degree):
        c1 = trace_constant(make_disc(square_gm, degree, 2))
        c2 = trace_constant(make_disc(square_gm, degree, 4))
        assert abs(c2 - c1) / c1 < 0.10

    def test_mu1_quadratic_dependence(self, square_gm):
        disc = make_disc(square_gm, 1, 2)
        p = builtin_case("paper_sec8").problem
        doubled = replace(
            p, mu=lambda x, y, t: 2.0 * p.mu(x, y, t), mu0=2.0 * p.mu0, mu1=2.0 * p.mu1
        )
        assert doubled.alpha == p.alpha == 1.0  # c0 = 1 holds alpha fixed
        f1 = penalty_floor(disc, p)
        f2 = penalty_floor(disc, doubled)
        assert f2 == pytest.approx(4 * f1, rel=1e-12)

    def test_net_scaling_through_alpha(self, square_gm):
        # with alpha = min(mu0, c0) tracking mu, doubling mu quadruples the
        # numerator and doubles alpha: the floor doubles net
        disc = make_disc(square_gm, 1, 2)
        p = builtin_case("steady_reaction").problem  # c0 = 2 keeps alpha = mu0
        doubled = replace(
            p, mu=lambda x, y, t: 2.0 * p.mu(x, y, t), mu0=2.0 * p.mu0, mu1=2.0 * p.mu1
        )
        f1 = penalty_floor(disc, p)
        f2 = penalty_floor(disc, doubled)
        assert f2 == pytest.approx(2 * f1, rel=1e-12)


def reference_trace_constant(disc, reduce=max):
    """The trace constant edge by edge: each edge's Grams by einsum and one
    ``scipy.linalg.eigh`` per edge, its top eigenvalue, and ``reduce`` of
    these over the edges."""
    ec, bc = disc.elements, disc.boundary
    nloc = ec.B.shape[2]
    ones = np.ones(nloc) / np.sqrt(nloc)
    Z, r = np.linalg.qr(np.eye(nloc) - np.outer(ones, ones))
    Z = Z[:, np.abs(np.diag(r)) > 1e-12]
    tops = []
    for f in range(len(bc.h_E)):
        ng = np.einsum("qa,qla->ql", bc.normal[f], bc.G[f])
        T = bc.h_E[f] * np.einsum("q,qi,qj->ij", bc.w[f], ng, ng)
        e = bc.owner[f]
        S = np.einsum("q,qia,qja->ij", ec.w[e], ec.G[e], ec.G[e])
        Tr, Sr = Z.T @ T @ Z, Z.T @ S @ Z
        vals = scipy.linalg.eigh((Tr + Tr.T) / 2, (Sr + Sr.T) / 2, eigvals_only=True)
        tops.append(float(vals[-1]))
    return reduce(tops)


def lone_edges(bc):
    """The edges whose owner element owns no other edge."""
    return [f for f, e in enumerate(bc.owner) if np.sum(bc.owner == e) == 1]


def edge_blocks_of(monkeypatch, disc, edges):
    """Set ``BLOCK_BYTES`` so that the trace constant takes ``edges`` edges
    a block: its budget item is the gradient rows it gathers from one owner
    element's table."""
    monkeypatch.setattr(assembly, "BLOCK_BYTES", edges * disc.elements.table[0, :, 1:].nbytes)


class TestBatchedTraceConstant:
    @pytest.mark.parametrize(
        "geometry,degree,q",
        [
            pytest.param("square", 1, None, id="square-1"),
            pytest.param("square", 2, None, id="square-2"),
            pytest.param("square", 3, None, id="square-3"),
            pytest.param("quarter_annulus", 2, None, id="quarter_annulus-2"),
            pytest.param("quarter_annulus", 3, None, id="quarter_annulus-3"),
            # q = 8 points exceed nloc - 1 = 3 at k = 1: the q x q Gram has
            # rank 3 and its top eigenvalue is still the pair's
            pytest.param("square", 1, 8, id="square-1-q8"),
            pytest.param("quarter_annulus", 1, 8, id="quarter_annulus-1-q8"),
        ],
    )
    def test_matches_edge_loop(self, geometry, degree, q):
        disc = make_disc(load_geometry(geometry), degree, 4, q)
        ref = reference_trace_constant(disc)
        assert trace_constant(disc) == pytest.approx(ref, rel=1e-12, abs=0)

    def test_one_eigensolve(self, annulus_gm, monkeypatch):
        # each edge's top pair comes from one eigensolve of the q x q Gram
        # of L^-1 B^T, q = 4 points against nloc - 1 = 8, one stack per
        # block of edges; the blocks cover the edges once, and the dense
        # (nloc - 1)-square pairs are not solved
        disc = make_disc(annulus_gm, 2, 4)
        edge_blocks_of(monkeypatch, disc, 5)
        calls = []
        eigh = np.linalg.eigh

        def counting(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting)
        disc.trace_constant
        disc.trace_constant
        nedge, q = disc.boundary.B.shape[:2]
        assert q == 4 < (2 + 1) ** 2 - 1
        assert nedge == 16
        assert calls == [(n, q, q) for n in (5, 5, 5, 1)]

    def test_singular_gram_names_the_edge(self, annulus_gm):
        disc = make_disc(annulus_gm, 2, 4)
        bc = disc.boundary
        # an edge whose owner owns no other edge: zero gradients there make
        # that element's seminorm Gram vanish
        f = next(f for f, e in enumerate(bc.owner) if np.sum(bc.owner == e) == 1)
        disc.elements.table[bc.owner[f], :, 1:] = 0.0
        with pytest.raises(SingularGram, match=f"on edge {f}$"):
            trace_constant(disc)

    def test_singular_gram_in_a_later_block_names_its_edge(self, annulus_gm, monkeypatch):
        disc = make_disc(annulus_gm, 2, 4)
        edge_blocks_of(monkeypatch, disc, 3)
        f = lone_edges(disc.boundary)[-1]
        assert f >= 3
        disc.elements.table[disc.boundary.owner[f], :, 1:] = 0.0
        with pytest.raises(SingularGram, match=f"on edge {f}$"):
            trace_constant(disc)

    @pytest.mark.parametrize("degree,q", [(2, None), (1, 8)], ids=["k2-q4", "k1-q8"])
    def test_corrupted_eigenvalue_fails_the_residual_check(
        self, annulus_gm, monkeypatch, degree, q
    ):
        # the top eigenvalue of edge 1 of the second block of 3, raised by
        # 1e-6 relative, leaves a residual far above EIG_RTOL ||Tr||; the
        # message names the global edge.  At k = 1 and q = 8 the q x q Gram
        # (rank nloc - 1 = 3) is solved as well
        disc = make_disc(annulus_gm, degree, 4, q)
        edge_blocks_of(monkeypatch, disc, 3)
        eigh = np.linalg.eigh
        seen = []

        def corrupted(a):
            vals, vecs = eigh(a)
            seen.append(len(a))
            if len(seen) == 2:
                vals[1, -1] *= 1 + 1e-6
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", corrupted)
        with pytest.raises(ConvergenceFailure, match="eigenpair residual on edge 4 is"):
            trace_constant(disc)

    def test_corrupted_cholesky_factor_fails_the_residual_check(self, annulus_gm, monkeypatch):
        # one edge's factor L scaled by 1.001: its pair solves L L^T, not the
        # Gram Sr that the residual is taken with
        disc = make_disc(annulus_gm, 2, 4)
        edge_blocks_of(monkeypatch, disc, 3)
        cholesky = np.linalg.cholesky
        seen = []

        def corrupted(a):
            L = cholesky(a)
            seen.append(len(a))
            if len(seen) == 3:
                L[2] *= 1.001
            return L

        monkeypatch.setattr(np.linalg, "cholesky", corrupted)
        with pytest.raises(ConvergenceFailure, match="eigenpair residual on edge 8 is"):
            trace_constant(disc)

    def test_roundoff_passes_the_residual_check(self, annulus_gm, monkeypatch):
        # the same eigenvalue moved by a few ulps passes: the check is not
        # tripped by roundoff
        disc = make_disc(annulus_gm, 2, 4)
        eigh = np.linalg.eigh

        def nudged(a):
            vals, vecs = eigh(a)
            vals[:, -1] *= 1 + 8 * np.finfo(float).eps
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", nudged)
        assert trace_constant(disc) == pytest.approx(reference_trace_constant(disc), rel=1e-12)


class TestStabilityAudits:
    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("spans", [4, 8])
    def test_coercive_at_floor(self, square_gm, degree, spans):
        from nitsche_iga import coercivity_audit

        case = builtin_case("paper_sec8")
        disc = make_disc(square_gm, degree, spans)
        eps = penalty_floor(disc, case.problem)
        for t in (0.0, 1.0, 4.0):
            alpha_hat, ok = coercivity_audit(disc, case.problem, eps, t)
            assert ok
            assert alpha_hat >= 1e-10

    def test_alpha_hat_monotone_in_eps(self, square_gm):
        from nitsche_iga import coercivity_audit

        case = builtin_case("paper_sec8")
        disc = make_disc(square_gm, 1, 4)
        floor = penalty_floor(disc, case.problem)
        alphas = [
            coercivity_audit(disc, case.problem, f * floor, 0.0)[0]
            for f in (1.0, 1.5, 2.5, 4.0)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(alphas, alphas[1:]))


class TestAssembledForms:
    def test_epsilon_resolution(self, square_gm):
        case = builtin_case("paper_sec8")
        disc = make_disc(square_gm, 1, 2)
        forms = AssembledForms(disc, case.problem)
        assert forms.eps == pytest.approx(1.25 * forms.floor)
        forms2 = AssembledForms(disc, case.problem, epsilon=7.5)
        assert forms2.eps == 7.5
        with pytest.raises(ValueError):
            AssembledForms(disc, case.problem, epsilon=1.0, epsilon_factor=1.0)

    def test_sub_floor_penalty_warns(self, square_gm):
        # paper_sec8, k = 2, 4 spans: the floor is 8, and eps = 0.5 leaves the
        # form with a negative coercivity eigenvalue (about -1.03); it runs,
        # with a warning that names eps, the floor and their ratio
        p = builtin_case("paper_sec8").problem
        disc = make_disc(square_gm, 2, 4)
        with pytest.warns(UserWarning) as caught:
            forms = AssembledForms(disc, p, epsilon=0.5)
        assert forms.floor == pytest.approx(8.0, rel=1e-9)
        assert [str(w.message) for w in caught] == [
            "penalty eps = 0.5 lies below the floor 8 of the 36-dof discretization "
            "(eps/floor = 0.0625); coercivity is not guaranteed"
        ]
        assert coercivity_audit(disc, p, forms.eps, 0.0)[0] < -1.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            AssembledForms(disc, p)
            AssembledForms(disc, p, epsilon=forms.floor)
            AssembledForms(disc, p, epsilon_factor=1.0)

    def test_inflow_cache_time_dependent_field(self, square_gm):
        # advection rotating in time flips the inflow side between t=0 and t=1
        case = builtin_case("zero")
        p = Problem(
            **{
                **case.problem.__dict__,
                "b": lambda x, y, t: np.broadcast_to(
                    np.array([1.0 - 2.0 * t, 0.0]), (len(np.atleast_1d(x)), 2)
                ),
            }
        )
        disc = make_disc(square_gm, 1, 2)
        m0, _ = inflow_mask(disc, p, 0.0)
        m1, _ = inflow_mask(disc, p, 1.0)
        assert m0.any() and m1.any()
        assert (m0 != m1).any()

    @pytest.mark.filterwarnings("ignore:penalty eps")
    def test_stiffness_samples_each_coefficient_once(self, square_gm):
        case = builtin_case("paper_sec8")
        calls = {"mu": 0, "b": 0, "c": 0, "f": 0, "g": 0}

        def counted(key):
            fn = getattr(case.problem, key)

            def wrapped(x, y, t):
                calls[key] += 1
                return fn(x, y, t)

            return wrapped

        p = replace(case.problem, **{key: counted(key) for key in calls})
        disc = make_disc(square_gm, 2, 3)
        forms = AssembledForms(disc, p, epsilon=5.0)
        A, F = forms.at(0.5)
        # mu and b at the volume and the edge points, c and f at the volume
        # points, g at the edge points
        assert calls == {"mu": 2, "b": 2, "c": 1, "f": 1, "g": 1}
        ref = assemble_stiffness(disc, case.problem, 5.0, 0.5)
        assert np.array_equal(A.indptr, ref.indptr)
        assert np.array_equal(A.indices, ref.indices)
        assert A.data.tobytes() == ref.data.tobytes()
        assert F.tobytes() == reference_load(disc, case.problem, 5.0, 0.5).tobytes()
        # a step that reuses the operator samples the same
        assert forms.at(1.5)[0] is A
        assert calls == {"mu": 4, "b": 4, "c": 2, "f": 2, "g": 2}

    @pytest.mark.parametrize("geometry", ["square", "quarter_annulus"])
    @pytest.mark.parametrize("name", ["paper_sec8", "steady_reaction", "rotating"])
    @pytest.mark.filterwarnings("ignore:penalty eps")
    def test_load_matches_its_own_sampling(self, geometry, name):
        # the load from the kept Dirichlet edge terms, byte for byte against
        # one that samples mu and b . n again, on a first step, a step that
        # keeps or changes the operator, and a step that keeps it; the
        # rotating field turns the b of steady_reaction, whose g is not zero
        if name == "rotating":
            p = rotating_advection(builtin_case("steady_reaction").problem)
        else:
            p = builtin_case(name).problem
        disc = make_disc(load_geometry(geometry), 2, 3)
        forms = AssembledForms(disc, p, epsilon=2.5)
        matrices = []
        for t in (0.3, 1.7, 1.7):
            A, F = forms.at(t)
            matrices.append(A)
            assert F.tobytes() == reference_load(disc, p, 2.5, t).tobytes()
        assert (matrices[1] is matrices[0]) == (name != "rotating")
        assert matrices[2] is matrices[1]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, 0.0, -1.0])
    def test_penalty_must_be_positive_and_finite(self, square_gm, value):
        p = builtin_case("paper_sec8").problem
        disc = make_disc(square_gm, 1, 2)
        with pytest.raises(ValueError, match=f"penalty parameter .* got {value}"):
            AssembledForms(disc, p, epsilon=value)
        # the factor times the floor is named
        with pytest.raises(ValueError, match="penalty parameter must be a positive finite"):
            AssembledForms(disc, p, epsilon_factor=value)
        with pytest.raises(ValueError, match=f"penalty parameter .* got {value}"):
            assemble_stiffness(disc, p, value, 0.0)

    def test_penalty_over_h_E_must_be_finite(self, square_gm):
        # eps = 1e308 is finite, eps/h_E at h_E = 1/4 is not; numpy is not
        # asked to divide, so it warns of nothing
        p = builtin_case("paper_sec8").problem
        disc = make_disc(square_gm, 2, 4)
        named = r"eps/h_E overflows: eps = 1e\+308 over the smallest edge length h_E = 0.25"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match=named):
                AssembledForms(disc, p, epsilon=1e308)
            with pytest.raises(ConfigError, match=named):
                assemble_stiffness(disc, p, 1e308, 0.0)

    def test_penalty_too_large_to_norm_is_refused(self, square_gm):
        # eps times the edge count bounds the Frobenius norm of the penalty
        # term; unless it squares to a finite number, eps is refused before
        # any assembly, with no numpy warning
        p = builtin_case("paper_sec8").problem
        disc = make_disc(square_gm, 2, 4)
        edges = len(disc.boundary.h_E)
        limit = np.sqrt(np.finfo(float).max)
        assert edges == 16 and assembly.NORM_LIMIT == limit
        named = r"penalty eps = 2.5e\+307 is too large to norm the stiffness matrix"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for eps in (2.5e307, 1e300, limit / edges):
                with pytest.raises(ConfigError, match="too large to norm"):
                    AssembledForms(disc, p, epsilon=eps)
            with pytest.raises(ConfigError, match=named):
                assemble_stiffness(disc, p, 2.5e307, 0.0)
            # just below the bound, the stiffness matrix and its norm are finite
            eps = np.nextafter(limit / edges, 0.0)
            A = AssembledForms(disc, p, epsilon=eps).at(0.0)[0]
            assert np.isfinite(scipy.sparse.linalg.norm(A, "fro"))

    def test_penalty_floor_refuses_nan_alpha(self, square_gm):
        p = replace(builtin_case("paper_sec8").problem, mu0=np.nan)
        with pytest.raises(ValueError, match="alpha .* got nan"):
            penalty_floor(make_disc(square_gm, 1, 2), p)

    def test_deterministic_assembly(self, square_gm):
        case = builtin_case("paper_sec8")
        disc = make_disc(square_gm, 2, 3)
        A1 = assemble_stiffness(disc, case.problem, 5.0, 1.0)
        A2 = assemble_stiffness(disc, case.problem, 5.0, 1.0)
        assert np.array_equal(A1.data, A2.data)
        assert np.array_equal(A1.indices, A2.indices)
