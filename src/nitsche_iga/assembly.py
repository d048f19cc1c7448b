"""Assembly of the mass matrix, the penalized stiffness matrix, and the load.

A :class:`Discretization` precomputes, once per (space, mesh, quadrature)
triple, the basis tables at all volume and boundary-edge quadrature points
(:func:`_basis_table`, products of repeated and tiled 1-D B-spline tables;
edge data from :func:`~nitsche_iga.geometry.edge_geometry`, which also
measures h_E), the CSR pattern that every matrix shares, the tensor
product of the span-block patterns of the two directions
(:func:`_tensor_pattern`), and the fill-reducing order of that pattern, a
nested dissection of the index grid (:func:`_nested_dissection`), with
which every LU of the solver factors.  Each bilinear form is one batched
product, :func:`_blocks`, of a test table with a trial table that carries
the weights and coefficients.  An edge's local basis is its owner element's,
so each edge carries its owner's data slots and global indices: the element
blocks and then the edge blocks fill one array, and one ``np.bincount``
sums it into the fixed pattern, or sums a vector over the global indices.
Repeated assemblies are cheap and bitwise reproducible.

The stiffness form contains five families of terms: the volume form
(diffusion, advection, reaction), the boundary flux term, its transpose
(symmetrization), the one-sided inflow term restricted to quadrature
points where b . n < 0, and the eps/h_E boundary penalty.  The load is (f, N)
plus its Dirichlet trial terms applied to g; :meth:`AssembledForms.at`
returns both from one sampling of the coefficients.
"""

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateJacobian, NotSPD, SingularGram
from .geometry import edge_geometry, invert_2x2
from .linalg import PatternOrder, generalized_symmetric_eig
from .quadrature import gauss_rule
from .splines import eval_basis_many

PENALTY_FACTOR_DEFAULT = 1.25


def _basis_table(d1, d2, inv_jac):
    """The table (n, q, 3, nloc) of basis values and physical gradients, with
    its views (n, q, nloc) of the values and (n, q, nloc, 2) of the gradients.

    ``d1`` (..., 2, k1+1) and ``d2`` (..., 2, k2+1) hold the values and first
    derivatives of each 1-D basis; their leading axes broadcast to (n, q) or
    to a shape that reshapes to it, and ``inv_jac`` (n, q, 2, 2) is J^-1.
    Local functions run in (l1, l2) order with l2 fastest, so each row of the
    table is the product of the direction-1 row repeated k2+1 times and the
    direction-2 row tiled k1+1 times; one product fills all three rows, with
    no outer products to stack.  The parametric gradients map to physical
    ones as J^-T times the two derivative rows, one batched matmul.
    """
    n1, n2 = d1.shape[-1], d2.shape[-1]
    hat = np.repeat(d1[..., (0, 1, 0), :], n2, axis=-1) * np.tile(d2[..., (0, 0, 1), :], n1)
    table = hat.reshape(inv_jac.shape[:2] + hat.shape[-2:])
    table[:, :, 1:] = inv_jac.swapaxes(-1, -2) @ table[:, :, 1:]
    return table, table[:, :, 0], table[:, :, 1:].swapaxes(2, 3)


def _span_pattern(first, degree, n):
    """CSR pattern of the span blocks of one direction.

    ``first`` (ns,) holds the first nonzero function of each span, out of
    ``n``.  Returns ``(indptr, indices, rank)``: the distinct (row, column)
    pairs of the (k+1) x (k+1) span blocks in row-major order, and for each
    block entry (ns, k+1, k+1) its position within its row.
    """
    local = first[:, None] + np.arange(degree + 1)
    keys = local[:, :, None] * n + local[:, None, :]
    pairs, inverse = np.unique(keys, return_inverse=True)
    indptr = np.searchsorted(pairs, np.arange(n + 1) * n)
    rank = inverse.reshape(keys.shape) - indptr[local][:, :, None]
    return indptr, pairs % n, rank


def _tensor_pattern(space, first1, first2, owner):
    """CSR pattern of the element blocks and the data slot of each block entry.

    Element (s1, s2) couples functions (i1, i2) and (j1, j2) exactly when
    span s1 couples i1 with j1 and span s2 couples i2 with j2, so the pattern
    is the tensor product of the two span-block patterns of
    :func:`_span_pattern`.  Row g = i1 + n1 i2 holds len1(i1) len2(i2)
    columns j1 + n1 j2 in (j2, j1) order, which is ascending; the entry of
    ranks (rank1, rank2) in the 1-D rows sits at
    indptr[g] + rank2 len1(i1) + rank1.  Returns ``(indptr, indices, slots)``
    in int32, with ``slots`` (ne + len(owner), nloc, nloc), the largest array
    kept: the slots of the element blocks, then those of the element
    ``owner[f]`` of each boundary edge f.  Elements run with direction 1
    fastest, local functions (l1, l2) with l2 fastest.
    """
    (n1, n2), (k1, k2) = space.shape, space.degrees
    indptr1, indices1, rank1 = _span_pattern(first1, k1, n1)
    indptr2, indices2, rank2 = _span_pattern(first2, k2, n2)
    len1, len2 = np.diff(indptr1), np.diff(indptr2)

    # rows g in (i2, i1) order; each entry's ranks in the 1-D rows of i1, i2
    sizes = np.outer(len2, len1).ravel()
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    i1, i2 = np.tile(np.arange(n1), n2), np.repeat(np.arange(n2), n1)
    offset = np.arange(indptr[-1]) - np.repeat(indptr[:-1], sizes)
    r2, r1 = np.divmod(offset, np.repeat(len1[i1], sizes))
    at1, at2 = np.repeat(indptr1[i1], sizes) + r1, np.repeat(indptr2[i2], sizes) + r2
    indices = indices1[at1] + n1 * indices2[at2]

    # per element (s2, s1) and local pair ((a1, a2), (b1, b2)): the start of
    # row g(a1, a2) plus the direction-2 offset, then the direction-1 rank
    local1, local2 = first1[:, None] + np.arange(k1 + 1), first2[:, None] + np.arange(k2 + 1)
    g = local1[None, :, :, None] + n1 * local2[:, None, None, :]
    start = indptr[g][..., None, None] + (
        len1[local1][None, :, :, None, None, None] * rank2[:, None, None, :, None, :]
    )
    ne, nloc = len(first1) * len(first2), (k1 + 1) * (k2 + 1)
    slots = np.empty((ne + len(owner), nloc, nloc), dtype=np.int32)
    by_rank = slots[:ne].reshape(start.shape[:4] + (k1 + 1, k2 + 1))
    np.add(start, rank1[None, :, :, None, :, None], out=by_rank)
    np.take(slots, owner, axis=0, out=slots[ne:])
    return indptr.astype(np.int32), indices.astype(np.int32), slots


def _nested_dissection(shape, degrees):
    """Nested-dissection order (George, SIAM J. Numer. Anal. 1973) of the
    (n1, n2) index grid of a tensor-product space: ``perm`` with the global
    index i1 + n1 i2 of each position in the order.

    Functions (i1, i2) and (j1, j2) couple only when |i1 - j1| <= k1 and
    |i2 - j2| <= k2, for any open knot vectors, so k_d consecutive index
    lines across direction d separate a block into two halves that do not
    couple.  A block w1 x w2 is cut at its middle across the direction of
    the smaller separator (direction 1 when k1 w2 <= k2 w1: its wider side
    when k1 = k2); its two halves come first, each dissected in turn, and
    the separator last.  A block at most k_d + 1 wide in each direction d
    is not cut.  The recursion collects only the rectangles, and one pass of
    ``repeat`` and ``divmod`` expands them, direction 1 fastest within each.
    """
    (n1, n2), (k1, k2) = shape, degrees
    rects = []

    def dissect(a1, b1, a2, b2):  # the block of indices a1 <= i1 < b1, a2 <= i2 < b2
        w1, w2 = b1 - a1, b2 - a2
        wide1, wide2 = w1 > k1 + 1, w2 > k2 + 1
        if wide1 and (k1 * w2 <= k2 * w1 or not wide2):
            m = a1 + (w1 - k1 + 1) // 2
            dissect(a1, m, a2, b2)
            dissect(m + k1, b1, a2, b2)
            rects.append((m, m + k1, a2, b2))
        elif wide2:
            m = a2 + (w2 - k2 + 1) // 2
            dissect(a1, b1, a2, m)
            dissect(a1, b1, m + k2, b2)
            rects.append((a1, b1, m, m + k2))
        else:
            rects.append((a1, b1, a2, b2))

    dissect(0, n1, 0, n2)
    a1, b1, a2, b2 = np.array(rects).T
    sizes = (b1 - a1) * (b2 - a2)
    offset = np.arange(n1 * n2) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    r2, r1 = np.divmod(offset, np.repeat(b1 - a1, sizes))
    return np.repeat(a1, sizes) + r1 + n1 * (np.repeat(a2, sizes) + r2)


class ElementCache:
    """Mapped basis data at the volume quadrature points of every element.

    Arrays: ``x`` (ne, nq, 2) physical points, ``w`` (ne, nq) physical
    weights, ``table`` (ne, nq, 3, nloc) values and physical gradients with
    their views ``B`` (ne, nq, nloc) and ``G`` (ne, nq, nloc, 2), ``gidx``
    (ne, nloc) global indices, ``span_first`` the first nonzero function of
    each span of each direction.  Elements run with direction 1 fastest;
    quadrature points and local functions, (l1, l2), with direction 2 fastest.
    The geometry comes from one grid evaluation over the Gauss points of all
    spans, reordered to (element, point).

    det J must keep one sign (:class:`DegenerateJacobian` otherwise) at
    these points, at the element corners (one more grid, the breakpoints)
    and, for ``q`` below the default order, at that order's Gauss points.
    """

    def __init__(self, space, mesh, q):
        ns1, ns2 = space.num_spans
        s1, s2 = np.tile(np.arange(ns1), ns2), np.repeat(np.arange(ns2), ns1)
        ne, nq = len(s1), q * q

        # per direction, the Gauss points (ns, q) and first nonzero function
        # (ns,) of all spans and, per element, the weights (ne, q) and 1-D
        # values and first derivatives (ne, q, 2, k+1)
        rule = gauss_rule(q)
        per_direction = []
        for kv, spans in ((space.kv1, s1), (space.kv2, s2)):
            bps = kv.mesh.breakpoints
            pts, wts = rule.mapped(bps[:-1, None], bps[1:, None])
            first, ders = eval_basis_many(kv, pts.ravel())
            ders = ders.reshape(kv.num_spans, q, 2, -1)[spans]
            per_direction.append((pts, wts[spans], first[::q], ders))
        (p1, w1, f1, d1), (p2, w2, f2, d2) = per_direction
        w_hat = np.repeat(w1, q, axis=1) * np.tile(w2, (1, q))

        # the geometry on the grid of all Gauss points, indexed (s1, i1, s2,
        # i2), reordered to (element, point): (s2, s1) and (i1, i2)
        def by_element(a):
            a = a.reshape((ns1, q, ns2, q) + a.shape[2:])
            return np.moveaxis(a, 2, 0).reshape((ne, nq) + a.shape[4:])

        gm, bps = mesh.geometry, (space.kv1.mesh.breakpoints, space.kv2.mesh.breakpoints)
        grid = gm.evaluate_grid(p1.ravel(), p2.ravel())
        detj_samples = [grid[2], gm.evaluate_grid(*bps)[2]]
        q_default = max(space.degrees) + 2
        if q < q_default:
            rule = gauss_rule(q_default)
            t = (rule.mapped(b[:-1, None], b[1:, None])[0].ravel() for b in bps)
            detj_samples.append(gm.evaluate_grid(*t)[2])
        signs = np.sign(np.concatenate([a.ravel() for a in detj_samples]))
        if np.any(signs != signs[0]):
            raise DegenerateJacobian("det J changes sign across the mesh")
        x, J, detj = (by_element(a) for a in grid)
        invJ, _ = invert_2x2(J)
        self.table, self.B, self.G = _basis_table(d1[:, :, None], d2[:, None], invJ)
        self.x = x
        self.w = w_hat * np.abs(detj)
        self.span_first = (f1, f2)
        self.gidx = space.local_to_global(f1[s1], f2[s2])

    def field(self, coef):
        """Values and physical gradients (ne, nq, 3) of the field with
        coefficients ``coef``: one matrix-vector product per element with
        its (nq * 3, nloc) slice of ``table``."""
        ne, nq, rows, nloc = self.table.shape
        flat = self.table.reshape(ne, nq * rows, nloc) @ coef[self.gidx][:, :, None]
        return flat.reshape(ne, nq, rows)


class EdgeCache:
    """Mapped basis data at the quadrature points of every boundary edge.

    ``w`` carries the arc-length measure; ``table`` and its views ``B``/``G``
    hold the owner element's local basis values and physical gradients at the
    edge points, in the owner's local order, so ``gidx`` is the owner's.
    """

    def __init__(self, space, mesh, q):
        self.h_E = mesh.h_E
        self.owner = mesh.owner
        x_hat, self.x, invJ, self.w, self.normal = edge_geometry(
            mesh.geometry, mesh.side, mesh.lo, mesh.hi, gauss_rule(q)
        )

        # the owner's basis at the edge points, each distinct coordinate
        # evaluated once: on half of the edges a direction is fixed at 0 or 1
        def owner_basis(kv, coords):
            distinct, inverse = np.unique(coords, return_inverse=True)
            first, ders = eval_basis_many(kv, distinct)
            return first[inverse].reshape(-1, q), ders[inverse].reshape(-1, q, *ders.shape[1:])

        f1, d1 = owner_basis(space.kv1, x_hat[..., 0].ravel())
        f2, d2 = owner_basis(space.kv2, x_hat[..., 1].ravel())
        self.table, self.B, self.G = _basis_table(d1, d2, invJ)
        self.gidx = space.local_to_global(f1[:, 0], f2[:, 0])

    def field_values(self, coef):
        return np.einsum("fql,fl->fq", self.B, coef[self.gidx])


class Discretization:
    """Space, mesh, and quadrature bundled with their basis caches, the CSR
    pattern every matrix shares and its fill-reducing ``order`` (a
    :class:`~nitsche_iga.linalg.PatternOrder` from
    :func:`_nested_dissection`), which every ``SparseFactor`` of a matrix
    of this discretization takes.

    ``quadrature_order`` is the Gauss points per direction on elements and
    edges alike; it defaults to the largest degree plus two.  Raises
    ``ValueError`` when ``mesh`` was built on a space with other degrees or
    knots than ``space``, and :class:`DegenerateJacobian` when det J changes
    sign at the element Gauss points or corners, checked at the default
    order's points also when ``quadrature_order`` is below it.
    """

    def __init__(self, space, mesh, quadrature_order=None):
        if any(
            a.degree != b.degree or not np.array_equal(a.knots, b.knots)
            for a, b in ((space.kv1, mesh.space.kv1), (space.kv2, mesh.space.kv2))
        ):
            raise ValueError(f"the mesh was built on {mesh.space}, not on {space}")
        if quadrature_order is None:
            quadrature_order = max(space.degrees) + 2
        self.space = space
        self.mesh = mesh
        self.quadrature_order = quadrature_order
        self.elements = ElementCache(space, mesh, quadrature_order)
        self.boundary = EdgeCache(space, mesh, quadrature_order)

        # the CSR pattern of every matrix, built from the span blocks of the
        # two directions, and the data slots and global indices of the
        # element blocks followed by those of the edges (their owners')
        self._indptr, self._indices, self._slots = _tensor_pattern(
            space, *self.elements.span_first, self.boundary.owner
        )
        self._gidx = np.concatenate((self.elements.gidx, self.boundary.gidx)).astype(np.int32)
        self.order = PatternOrder(
            _nested_dissection(space.shape, space.degrees), self._indptr, self._indices
        )

    @property
    def dimension(self):
        return self.space.dimension

    def matrix(self, data):
        """The CSR matrix with ``data`` on the shared pattern."""
        return sp.csr_matrix((data, self._indices, self._indptr), shape=(self.dimension,) * 2)

    @cached_property
    def mass(self):
        """The mass matrix, assembled on first use."""
        return assemble_mass(self)

    @cached_property
    def vh_gram(self):
        """The Gram matrix of the V_h norm, assembled on first use."""
        return assemble_vh_gram(self)

    @cached_property
    def trace_constant(self):
        """The :func:`trace_constant` of this discretization, computed on first use."""
        return trace_constant(self)


def _blocks(test, trial, out=None):
    """Blocks (n, nloc, nloc) of the sum over points q and table rows r of
    test[:, q, r, i] * trial[:, q, r, j], for tables (n, nq, rows, nloc)."""
    n, nloc = test.shape[0], test.shape[-1]
    return np.matmul(test.reshape(n, -1, nloc).swapaxes(1, 2), trial.reshape(n, -1, nloc), out=out)


def _scatter(index, size, values):
    """Sum ``values`` (n, ...) at the first n rows of ``index`` (elements,
    then edges) into ``size`` bins."""
    return np.bincount(index[: len(values)].ravel(), weights=values.ravel(), minlength=size)


def _matrix(disc, blocks):
    """CSR matrix on the pattern of ``disc`` from the element blocks, or the
    element blocks followed by the edge blocks."""
    return disc.matrix(_scatter(disc._slots, len(disc._indices), blocks))


def assemble_mass(disc):
    """Mass matrix M_ij = (N_j, N_i) over the physical domain."""
    B = disc.elements.table[:, :, :1]
    return _matrix(disc, _blocks(B, disc.elements.w[..., None, None] * B))


def _coefficients_at(points, func, t):
    flat = points.reshape(-1, 2)
    vals = func(flat[:, 0], flat[:, 1], t)
    return np.asarray(vals).reshape(points.shape[:-1] + np.shape(vals)[1:])


def inflow_mask(disc, p, t):
    """``(mask, bn)``: b . n (nedge, nq) at the edge quadrature points and
    the boolean mask of the points where it is negative."""
    bc = disc.boundary
    bv = _coefficients_at(bc.x, p.b, t)
    bn = np.einsum("fqa,fqa->fq", bv, bc.normal)
    return bn < 0.0, bn


def _operator_coefficients(disc, p, t):
    """Every array through which the stiffness depends on ``t``.

    mu, b and c at the volume quadrature points, mu at the edge quadrature
    points and b . n there (the inflow mask alone would miss a change of
    |b . n|).  Bit-equal arrays give a bit-equal stiffness matrix.
    """
    ec, bc = disc.elements, disc.boundary
    mu, bv, cv = (_coefficients_at(ec.x, fn, t) for fn in (p.mu, p.b, p.c))
    mu_e = _coefficients_at(bc.x, p.mu, t)
    _, bn = inflow_mask(disc, p, t)
    return mu, bv, cv, mu_e, bn


def _distinct(a):
    """View of ``a`` with every axis of stride 0 cut to length 1: all the
    values it holds, since along such an axis one value repeats."""
    return a[tuple(slice(0, 1) if s == 0 else slice(None) for s in a.strides)]


def _kept(a):
    """Read-only copy of ``a`` for :func:`_same_bits`: a C-contiguous copy
    of its :func:`_distinct` values, broadcast back to its shape."""
    return np.broadcast_to(np.array(_distinct(a), order="C"), a.shape)


def _same_bits(a, kept):
    """Whether ``a`` has the shape, dtype and bits of ``kept`` (from :func:`_kept`).

    The values are compared in place as unsigned integers of their item
    size, so signed zeros and NaN payloads count.  When ``a`` repeats its
    values along the axes that ``kept`` does, as a coefficient returned by
    ``np.broadcast_to`` does at every step, only the distinct values are
    compared.
    """
    if a.shape != kept.shape or a.dtype != kept.dtype:
        return False
    bits = np.dtype(f"u{a.itemsize}")
    a, kept = a.view(bits), kept.view(bits)
    core, kept_core = _distinct(a), _distinct(kept)
    if core.shape == kept_core.shape:
        return np.array_equal(core, kept_core)
    return np.array_equal(a, kept)


def _penalty(eps):
    """``eps`` as a float; ``ValueError`` unless it is a positive finite number."""
    eps = float(eps)
    if not 0.0 < eps < np.inf:
        raise ValueError(f"penalty parameter must be a positive finite number, got {eps}")
    return eps


def _stiffness_from(disc, coefficients, eps):
    """Stiffness matrix from the sampled :func:`_operator_coefficients`, and its
    Dirichlet trial terms sigma N - n . mu grad N (nedge, nq, nloc) at the edge
    points, with sigma = eps/h_E - min(b . n, 0), which the load applies to g."""
    ec, bc = disc.elements, disc.boundary
    mu, bv, cv, mu_e, bn = coefficients

    # weighted trial side of the volume form: c N + b . grad N, and mu grad N.
    # It is the largest array of a run: the coefficients are freed before the
    # array of element and edge blocks is allocated, and it before the edge
    # terms are formed.
    coef = np.zeros(ec.w.shape + (3, 3))
    coef[..., 0, 0], coef[..., 0, 1:], coef[..., 1:, 1:] = cv, bv, mu
    coef *= ec.w[..., None, None]
    trial = coef @ ec.table
    del coef
    ne = len(trial)
    blocks = np.empty(disc._slots.shape)
    _blocks(ec.table, trial, out=blocks[:ne])
    del trial

    # test side N and flux n . mu grad N, trial side sigma N - flux and -N:
    # the flux term, its transpose, the inflow term and the penalty
    flux = ((bc.normal[:, :, None, :] @ mu_e) @ bc.table[:, :, 1:])[:, :, 0]
    sigma = (eps / bc.h_E)[:, None] - np.minimum(bn, 0.0)
    dirichlet = sigma[..., None] * bc.B - flux
    edge_trial = bc.w[..., None, None] * np.stack([dirichlet, -bc.B], axis=2)
    _blocks(np.stack([bc.B, flux], axis=2), edge_trial, out=blocks[ne:])
    return _matrix(disc, blocks), dirichlet


def assemble_stiffness(disc, p, eps, t):
    """Penalized stiffness A_ij = form(t; trial N_j, test N_i).

    Row index is the test function.  All five term families are included;
    the inflow term is restricted pointwise to quadrature points where the
    advection field enters the domain at time ``t``.  ``eps`` must be a
    positive finite number.
    """
    return _stiffness_from(disc, _operator_coefficients(disc, p, t), _penalty(eps))[0]


def _load_from(disc, p, dirichlet, t):
    """Load vector F_i = (f, N_i) plus the Dirichlet terms ``dirichlet`` of the
    stiffness at ``t`` (from :func:`_stiffness_from`) applied to g."""
    ec, bc = disc.elements, disc.boundary
    fv = _coefficients_at(ec.x, p.f, t)
    gv = _coefficients_at(bc.x, p.g, t)
    values = np.empty(disc._gidx.shape)
    np.einsum("eq,eql->el", ec.w * fv, ec.B, out=values[: len(fv)])
    np.einsum("fq,fql->fl", bc.w * gv, dirichlet, out=values[len(fv) :])
    return _scatter(disc._gidx, disc.dimension, values)


def assemble_functional(disc, func):
    """Vector of volume integrals (func, N_i); func takes (x, y) arrays."""
    ec = disc.elements
    flat = ec.x.reshape(-1, 2)
    fv = np.asarray(func(flat[:, 0], flat[:, 1])).reshape(ec.w.shape)
    return _scatter(disc._gidx, disc.dimension, np.einsum("eq,eql->el", ec.w * fv, ec.B))


def assemble_vh_gram(disc):
    """Gram matrix of the stability norm: H1 inner product plus the
    h_E^-1-weighted boundary mass."""
    ec, bc = disc.elements, disc.boundary
    ne = len(ec.w)
    blocks = np.empty(disc._slots.shape)
    _blocks(ec.table, ec.w[..., None, None] * ec.table, out=blocks[:ne])
    B = bc.table[:, :, :1]
    _blocks(B, (bc.w / bc.h_E[:, None])[..., None, None] * B, out=blocks[ne:])
    return _matrix(disc, blocks)


def trace_constant(disc):
    """Sharp discrete constant of the scaled edge-flux trace inequality.

    For each boundary edge: largest generalized eigenvalue of the pair
    (h_E * edge flux Gram, owner-element H1-seminorm Gram), both restricted
    to the owner's local basis with the constant mode deflated (both Grams
    vanish on constants by partition of unity).  The pairs of all edges are
    solved as one stack.  Returns the max over edges.
    """
    ec, bc = disc.elements, disc.boundary
    nloc = ec.B.shape[2]
    # an orthonormal basis of the complement of the constants
    ones = np.ones(nloc) / np.sqrt(nloc)
    Z, r = np.linalg.qr(np.eye(nloc) - np.outer(ones, ones))
    Z = Z[:, np.abs(np.diag(r)) > 1e-12]

    flux = np.einsum("fqa,fqal->fql", bc.normal, bc.table[:, :, 1:])[:, :, None]
    T = _blocks(flux, (bc.h_E[:, None] * bc.w)[..., None, None] * flux)
    grads = ec.table[bc.owner, :, 1:]
    S = _blocks(grads, ec.w[bc.owner][..., None, None] * grads)
    Tr, Sr = Z.T @ T @ Z, Z.T @ S @ Z
    Sr = (Sr + Sr.swapaxes(1, 2)) / 2
    try:
        vals = generalized_symmetric_eig((Tr + Tr.swapaxes(1, 2)) / 2, Sr)
    except NotSPD:
        f = np.argmin(np.linalg.eigvalsh(Sr)[:, 0])
        msg = f"element seminorm Gram singular beyond constants on edge {f}"
        raise SingularGram(msg) from None
    return float(vals[:, -1].max())


def penalty_floor(disc, p):
    """Smallest admissible penalty: 2 * C_trace * mu1^2 / alpha, with
    alpha = min(mu0, c0) from the problem metadata."""
    if not p.alpha > 0:
        raise ValueError(f"alpha = min(mu0, c0) must be positive, got {p.alpha}")
    return 2.0 * disc.trace_constant * p.mu1**2 / p.alpha


class AssembledForms:
    """Stiffness and load of one discretized problem, sampled once per time.

    Resolves the penalty parameter (absolute ``epsilon`` or a
    ``epsilon_factor`` multiple of the computed floor; exactly one may be
    given, default factor 1.25; ``ValueError`` unless the result is a
    positive finite number) and caches the last stiffness matrix and its
    Dirichlet edge terms with copies of the sampled coefficients they were
    assembled from (see :func:`_kept`).  Each new sample is compared with
    those copies in place, bit for bit, with no bytes copies of either.
    The mass matrix is ``disc.mass``.
    """

    def __init__(self, disc, p, epsilon=None, epsilon_factor=None):
        if epsilon is not None and epsilon_factor is not None:
            raise ValueError("set epsilon or epsilon_factor, not both")
        self.disc = disc
        self.problem = p
        self.floor = penalty_floor(disc, p)
        if epsilon is None:
            factor = PENALTY_FACTOR_DEFAULT if epsilon_factor is None else epsilon_factor
            epsilon = factor * self.floor
        self.eps = _penalty(epsilon)
        # (copies of the sampled coefficients, matrix, Dirichlet edge terms)
        self._operator = (None, None, None)

    def at(self, t):
        """``(A, F)``: the stiffness matrix and the load vector at ``t``.

        The operator coefficients are sampled once and compared in place with
        the kept copies.  ``A`` is the previous matrix object when they are
        bit-equal; only a changed operator is assembled and copied.  The load
        samples f and g alone and reuses the matrix's Dirichlet edge terms.
        """
        coefficients = _operator_coefficients(self.disc, self.problem, t)
        kept, A, dirichlet = self._operator
        if A is None or not all(map(_same_bits, coefficients, kept)):
            A, dirichlet = _stiffness_from(self.disc, coefficients, self.eps)
            self._operator = ([_kept(a) for a in coefficients], A, dirichlet)
        return A, _load_from(self.disc, self.problem, dirichlet, t)
