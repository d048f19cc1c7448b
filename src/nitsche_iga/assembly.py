"""Assembly of the mass matrix, the penalized stiffness matrix, and the load.

A :class:`Discretization` of a space over a geometry map precomputes, at
its quadrature order, the boundary edges of the space's spans and their
lengths h_E, the basis tables at all volume and boundary-edge quadrature
points (:func:`_basis_table`, products of repeated and tiled 1-D B-spline
tables; edge data from :func:`~nitsche_iga.geometry.edge_geometry`), the
CSR pattern that every matrix shares, the tensor product of the span-block
patterns of the two directions (:func:`_tensor_pattern`), and the
fill-reducing order of that pattern, a nested dissection of the index grid
(:func:`_nested_dissection`), with which every LU of the solver factors.
Each bilinear form is one batched product, :func:`_blocks`, of a test
table with a trial table that carries the weights and coefficients.  An
edge's local basis is its owner element's, so each edge carries its owner's
data slots and global indices: the element blocks and then the edge blocks
fill one array, and one ``np.bincount`` sums it into the fixed pattern, or
sums a vector over the global indices.  Repeated assemblies are cheap and
bitwise reproducible.

The stiffness form contains five families of terms: the volume form
(diffusion, advection, reaction), the boundary flux term, its transpose
(symmetrization), the one-sided inflow term restricted to quadrature
points where b . n < 0, and the eps/h_E boundary penalty.  The load is (f, N)
plus its Dirichlet trial terms applied to g; :meth:`AssembledForms.at`
returns both from one sampling of the coefficients.

Every element kernel (the basis tables, the volume part of the stiffness,
the mass, the V_h Gram, the owner Grams of the trace constant and the
volume sums of the load) runs over consecutive blocks of elements or edges
(:func:`block_slices`) whose largest temporary fits ``BLOCK_BYTES``, and
each block writes into the one array that the kernel keeps or returns.
Each element gets the same arithmetic in the same order as in one pass over
the mesh, so every output is bit-identical for any block size.  The budget
is set by glibc's malloc, which maps every block at or above its mmap
threshold afresh, page-faults it in and unmaps it when it is freed.  The
threshold starts at 128 KiB; a process that fixes it there (by ``mallopt``
or ``MALLOC_MMAP_THRESHOLD_``, as the benchmark does) pays this for every
larger temporary, and a plain process, in which glibc raises the threshold
as large blocks are freed, still pays it above the 32 MiB ceiling of that
rise: a copy of the 39 MB basis table of the annulus at k = 3 and 64 spans
is mapped afresh in any process.  Temporaries of at most 120 KiB are carved
from the heap and reused from one block to the next.
"""

import warnings
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import ConfigError, DegenerateJacobian, NotSPD, SingularGram
from .geometry import SIDES, edge_geometry, invert_2x2
from .linalg import PatternOrder, generalized_symmetric_eig
from .quadrature import gauss_rule
from .splines import eval_basis_many

PENALTY_FACTOR_DEFAULT = 1.25

# Arc lengths h_E of (possibly curved) boundary edges use a fixed 5-point
# rule at every quadrature order: exact for straight edges, ample for the
# shipped conic arcs.
EDGE_LENGTH_POINTS = 5

# bytes of the largest temporary of one block of an element kernel: below
# glibc's default mmap threshold of 128 KiB (see the module docstring)
BLOCK_BYTES = 120 * 1024


def block_slices(n, item_bytes):
    """Consecutive slices that cover ``range(n)``, each of as many items of
    ``item_bytes`` bytes as fit in ``BLOCK_BYTES``, and at least one; the
    last one may be shorter."""
    size = max(1, BLOCK_BYTES // item_bytes)
    return [slice(a, min(a + size, n)) for a in range(0, n, size)]


def _basis_table(d1, d2, jac):
    """The table (n, q, 3, nloc) of basis values and physical gradients, with
    its views (n, q, nloc) of the values and (n, q, nloc, 2) of the gradients.

    ``d1`` (n, ..., 2, k1+1) and ``d2`` (n, ..., 2, k2+1) hold the values and
    first derivatives of each 1-D basis; their axes after the first broadcast
    to (q,) or to a shape that reshapes to it, and ``jac`` (n, q, 2, 2) is J.
    Local functions run in (l1, l2) order with l2 fastest, so each row of the
    table is the product of the direction-1 row repeated k2+1 times and the
    direction-2 row tiled k1+1 times: one gather of each 1-D table by an
    index array made once, and one product fills all three rows.  The
    parametric gradients map to physical ones as J^-T times the two
    derivative rows, one batched matmul.  Blocks of items run in turn: J is
    inverted, the product formed and the matmul written into the table per
    block.
    """
    n1, n2 = d1.shape[-1], d2.shape[-1]
    # (3, nloc) positions in the flattened (2, k+1) tables: rows value,
    # derivative, value of direction 1 and value, value, derivative of 2
    at1 = np.array([[0], [n1], [0]]) + np.repeat(np.arange(n1), n2)
    at2 = np.array([[0], [0], [n2]]) + np.tile(np.arange(n2), n1)
    flat1, flat2 = (d.reshape(d.shape[:-2] + (-1,)) for d in (d1, d2))
    table = np.empty(jac.shape[:2] + (3, n1 * n2))
    for s in block_slices(len(table), table[0].nbytes):
        hat = np.take(flat1[s], at1, axis=-1) * np.take(flat2[s], at2, axis=-1)
        hat = hat.reshape(table[s].shape)
        inv_jac = invert_2x2(jac[s])
        table[s, :, 0] = hat[:, :, 0]
        np.matmul(inv_jac.swapaxes(-1, -2), hat[:, :, 1:], out=table[s, :, 1:])
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
    indptr[g] + rank2 len1(i1) + rank1.  Returns ``(indptr, indices, slots)``,
    the pattern in int32 and ``slots`` (ne + len(owner), nloc, nloc) in
    ``np.intp``, which ``np.bincount`` reads without a converted copy: the
    slots of the element blocks, then those of the element ``owner[f]`` of
    each boundary edge f.  Elements run with direction 1 fastest, local
    functions (l1, l2) with l2 fastest.
    """
    (n1, n2), (k1, k2) = space.shape, space.degrees
    indptr1, indices1, rank1 = _span_pattern(first1, k1, n1)
    indptr2, indices2, rank2 = _span_pattern(first2, k2, n2)
    len1, len2 = np.diff(indptr1), np.diff(indptr2)

    # rows g in (i2, i1) order, a block of rows at a time; each entry's ranks
    # in the 1-D rows of i1, i2
    sizes = np.outer(len2, len1).ravel()
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    indices = np.empty(indptr[-1], dtype=np.int32)
    for rows in block_slices(len(sizes), 8 * sizes.max()):
        i2, i1 = np.divmod(np.arange(rows.start, rows.stop), n1)
        n, entries = sizes[rows], slice(indptr[rows.start], indptr[rows.stop])
        offset = np.arange(entries.start, entries.stop) - np.repeat(indptr[rows], n)
        r2, r1 = np.divmod(offset, np.repeat(len1[i1], n))
        at1, at2 = np.repeat(indptr1[i1], n) + r1, np.repeat(indptr2[i2], n) + r2
        indices[entries] = indices1[at1] + n1 * indices2[at2]

    # per element (s2, s1) and local pair ((a1, a2), (b1, b2)): the
    # direction-2 offset, plus the start of row g(a1, a2) and the
    # direction-1 rank, summed in place
    local1, local2 = first1[:, None] + np.arange(k1 + 1), first2[:, None] + np.arange(k2 + 1)
    g = local1[None, :, :, None] + n1 * local2[:, None, None, :]
    ne, nloc = len(first1) * len(first2), (k1 + 1) * (k2 + 1)
    slots = np.empty((ne + len(owner), nloc, nloc), dtype=np.intp)
    by_rank = slots[:ne].reshape(g.shape + (k1 + 1, k2 + 1))
    np.multiply(
        len1[local1][None, :, :, None, None, None], rank2[:, None, None, :, None, :], out=by_rank
    )
    by_rank += indptr[g][..., None, None]
    by_rank += rank1[None, :, :, None, :, None]
    np.take(slots, owner, axis=0, out=slots[ne:])
    return indptr.astype(np.int32), indices, slots


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
    these points and at the element corners, one more grid of the
    breakpoints: the map is evaluated on two grids at every ``q``.
    """

    def __init__(self, space, gm, q):
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

        grid = gm.evaluate_grid(p1.ravel(), p2.ravel())
        corners = gm.evaluate_grid(space.kv1.mesh.breakpoints, space.kv2.mesh.breakpoints)
        signs = np.sign(np.concatenate([grid[2].ravel(), corners[2].ravel()]))
        if np.any(signs != signs[0]):
            raise DegenerateJacobian("det J changes sign across the mesh")
        x, J, detj = (by_element(a) for a in grid)
        self.table, self.B, self.G = _basis_table(d1[:, :, None], d2[:, None], J)
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
    """The boundary edges of the space's spans and the mapped basis data at
    their quadrature points.

    One edge per side span, formed from the breakpoints without evaluating
    F: ``side`` (names from :data:`~nitsche_iga.geometry.SIDES`), the span
    ``lo`` .. ``hi`` in the parameter along the side and the unique
    ``owner`` element (direction 1 fastest).  Edges run side by side in
    ``SIDES`` order and span by span along each side.

    ``w`` carries the arc-length measure; ``table`` and its views ``B``/``G``
    hold the owner element's local basis values and physical gradients at the
    edge points, in the owner's local order, so ``gidx`` is the owner's.
    ``h_E`` is each edge's arc length, summed from the arc-length weights of
    the fixed ``EDGE_LENGTH_POINTS``-point rule at every ``q``: from ``w``
    itself when ``q`` is that order.
    """

    def __init__(self, space, gm, q):
        ns1, ns2 = space.num_spans
        parts = []
        for side in SIDES:
            bps = (space.kv2 if side in ("x0", "x1") else space.kv1).mesh.breakpoints
            n = np.arange(len(bps) - 1)
            # the element (s1, s2) that holds each span, owner s1 + ns1 * s2
            s1, s2 = {"x0": (0, n), "x1": (ns1 - 1, n), "y0": (n, 0), "y1": (n, ns2 - 1)}[side]
            parts.append((np.full(len(n), side), bps[:-1], bps[1:], s1 + ns1 * s2))
        self.side, self.lo, self.hi, self.owner = (np.concatenate(a) for a in zip(*parts))

        edges = (gm, self.side, self.lo, self.hi)
        x_hat, self.x, J, self.w, self.normal = edge_geometry(*edges, gauss_rule(q))
        if q == EDGE_LENGTH_POINTS:
            self.h_E = np.sum(self.w, axis=1)
        else:
            self.h_E = np.sum(edge_geometry(*edges, gauss_rule(EDGE_LENGTH_POINTS))[3], axis=1)

        # the owner's basis at the edge points, each distinct coordinate
        # evaluated once: on half of the edges a direction is fixed at 0 or 1
        def owner_basis(kv, coords):
            distinct, inverse = np.unique(coords, return_inverse=True)
            first, ders = eval_basis_many(kv, distinct)
            return first[inverse].reshape(-1, q), ders[inverse].reshape(-1, q, *ders.shape[1:])

        f1, d1 = owner_basis(space.kv1, x_hat[..., 0].ravel())
        f2, d2 = owner_basis(space.kv2, x_hat[..., 1].ravel())
        self.table, self.B, self.G = _basis_table(d1, d2, J)
        self.gidx = space.local_to_global(f1[:, 0], f2[:, 0])

    def field_values(self, coef):
        return np.einsum("fql,fl->fq", self.B, coef[self.gidx])


class Discretization:
    """A solution space over a geometry map, with its quadrature order.

    The elements are the spans of ``space`` mapped by ``geometry``; the
    caches ``elements`` and ``boundary`` (an :class:`EdgeCache`, which also
    holds the boundary edges) carry the basis data, with the CSR pattern
    every matrix shares and its fill-reducing ``order`` (a
    :class:`~nitsche_iga.linalg.PatternOrder` from
    :func:`_nested_dissection`), which every ``SparseFactor`` of a matrix
    of this discretization takes.

    ``quadrature_order`` is the Gauss points per direction on elements and
    edges alike: the largest degree plus two, which keeps the quadrature
    error far below the discretization error.  A higher order over-integrates
    (a reference solution, say); a lower one raises ``ValueError``.  Raises
    :class:`DegenerateJacobian` when det J changes sign at the element Gauss
    points or corners.
    """

    def __init__(self, space, geometry, quadrature_order=None):
        default = max(space.degrees) + 2
        if quadrature_order is None:
            quadrature_order = default
        elif quadrature_order < default:
            raise ValueError(
                f"quadrature order {quadrature_order} lies below the default "
                f"{default} (the largest degree plus two)"
            )
        self.space = space
        self.geometry = geometry
        self.quadrature_order = quadrature_order
        self.elements = ElementCache(space, geometry, quadrature_order)
        self.boundary = EdgeCache(space, geometry, quadrature_order)

        # the CSR pattern of every matrix, built from the span blocks of the
        # two directions, and the data slots and global indices of the
        # element blocks followed by those of the edges (their owners')
        self._indptr, self._indices, self._slots = _tensor_pattern(
            space, *self.elements.span_first, self.boundary.owner
        )
        self._gidx = np.concatenate((self.elements.gidx, self.boundary.gidx), dtype=np.intp)
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


def _weighted_grams(table, w, out, index=None):
    """``out`` (n, nloc, nloc) filled with the :func:`_blocks` of each table
    (nq, rows, nloc) of ``table`` with itself weighted by ``w`` (nq,), or of
    those of ``table[index]`` and ``w[index]``, block by block."""
    for s in block_slices(len(out), table[0].nbytes):
        at = s if index is None else index[s]
        t = table[at]
        _blocks(t, w[at][..., None, None] * t, out=out[s])
    return out


def _volume_integrals(ec, values, out):
    """``out`` (ne, nloc) filled with the integrals of v N_l over each element,
    for the values (ne, nq) of v at the quadrature points, block by block."""
    for s in block_slices(len(out), ec.w[0].nbytes):
        np.einsum("eq,eql->el", ec.w[s] * values[s], ec.B[s], out=out[s])
    return out


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
    ec = disc.elements
    blocks = np.empty(ec.gidx.shape + ec.gidx.shape[-1:])
    return _matrix(disc, _weighted_grams(ec.table[:, :, :1], ec.w, blocks))


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


def _penalty(eps, h_E):
    """``eps`` as a float; :class:`ConfigError` (a ``ValueError``) unless it
    is a positive finite number and so is the penalty eps/h_E of every edge
    of lengths ``h_E``."""
    eps = float(eps)
    if not 0.0 < eps < np.inf:
        raise ConfigError(f"penalty parameter must be a positive finite number, got {eps}")
    h_min = float(np.min(h_E))
    if not eps / h_min < np.inf:
        raise ConfigError(
            f"penalty eps/h_E overflows: eps = {eps:g} over the smallest edge length "
            f"h_E = {h_min:g}"
        )
    return eps


def _stiffness_from(disc, coefficients, eps):
    """Stiffness matrix from the sampled :func:`_operator_coefficients`, and its
    Dirichlet trial terms sigma N - n . mu grad N (nedge, nq, nloc) at the edge
    points, with sigma = eps/h_E - min(b . n, 0), which the load applies to g."""
    ec, bc = disc.elements, disc.boundary
    mu, bv, cv, mu_e, bn = coefficients

    # weighted trial side of the volume form, c N + b . grad N and mu grad N,
    # formed and contracted one block of elements at a time
    ne = len(ec.table)
    blocks = np.empty(disc._slots.shape)
    for s in block_slices(ne, ec.table[0].nbytes):
        coef = np.zeros(ec.w[s].shape + (3, 3))
        coef[..., 0, 0], coef[..., 0, 1:], coef[..., 1:, 1:] = cv[s], bv[s], mu[s]
        coef *= ec.w[s, :, None, None]
        _blocks(ec.table[s], coef @ ec.table[s], out=blocks[s])

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
    advection field enters the domain at time ``t``.  ``eps`` and eps/h_E
    must be positive finite numbers.
    """
    eps = _penalty(eps, disc.boundary.h_E)
    return _stiffness_from(disc, _operator_coefficients(disc, p, t), eps)[0]


def _load_from(disc, p, dirichlet, t):
    """Load vector F_i = (f, N_i) plus the Dirichlet terms ``dirichlet`` of the
    stiffness at ``t`` (from :func:`_stiffness_from`) applied to g."""
    ec, bc = disc.elements, disc.boundary
    fv = _coefficients_at(ec.x, p.f, t)
    gv = _coefficients_at(bc.x, p.g, t)
    values = np.empty(disc._gidx.shape)
    _volume_integrals(ec, fv, values[: len(fv)])
    np.einsum("fq,fql->fl", bc.w * gv, dirichlet, out=values[len(fv) :])
    return _scatter(disc._gidx, disc.dimension, values)


def assemble_functional(disc, func):
    """Vector of volume integrals (func, N_i); func takes (x, y) arrays."""
    ec = disc.elements
    flat = ec.x.reshape(-1, 2)
    fv = np.asarray(func(flat[:, 0], flat[:, 1])).reshape(ec.w.shape)
    values = _volume_integrals(ec, fv, np.empty(ec.gidx.shape))
    return _scatter(disc._gidx, disc.dimension, values)


def assemble_vh_gram(disc):
    """Gram matrix of the stability norm: H1 inner product plus the
    h_E^-1-weighted boundary mass."""
    ec, bc = disc.elements, disc.boundary
    ne = len(ec.w)
    blocks = np.empty(disc._slots.shape)
    _weighted_grams(ec.table, ec.w, blocks[:ne])
    _weighted_grams(bc.table[:, :, :1], bc.w / bc.h_E[:, None], blocks[ne:])
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
    S = np.empty((len(bc.owner), nloc, nloc))
    _weighted_grams(ec.table[:, :, 1:], ec.w, S, index=bc.owner)
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
    given, default factor 1.25; :class:`ConfigError` unless the result and
    its eps/h_E on every edge are positive finite numbers) and caches the
    last stiffness matrix and its Dirichlet edge terms with copies of the
    sampled coefficients they were assembled from (see :func:`_kept`).  Each
    new sample is compared with those copies in place, bit for bit, with no
    bytes copies of either.  The mass matrix is ``disc.mass``.  An eps below the floor runs, since
    the floor is sufficient for coercivity but not necessary, with a
    ``UserWarning`` that names eps, the floor and their ratio.
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
        self.eps = _penalty(epsilon, disc.boundary.h_E)
        if self.eps < self.floor:
            warnings.warn(
                f"penalty eps = {self.eps:.6g} lies below the floor {self.floor:.6g} of the "
                f"{disc.dimension}-dof discretization (eps/floor = {self.eps / self.floor:.3g}); "
                "coercivity is not guaranteed",
                stacklevel=2,
            )
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
