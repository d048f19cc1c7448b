"""Assembly of the mass matrix, the penalized stiffness matrix, and the load.

A :class:`Discretization` of a space over a geometry map precomputes, at
its quadrature order, the boundary edges of the space's spans and their
lengths h_E, the basis tables at all volume and boundary-edge quadrature
points (:func:`_basis_table`, products of repeated and tiled 1-D B-spline
tables, which both caches gather from the per-span tables of
:func:`_span_table`, made once for both; edge data from one
:func:`~nitsche_iga.geometry.edge_geometry` evaluation per pair of opposite
sides at the points of both edge rules), the
CSR pattern that every matrix shares, the tensor product of the span-block
patterns of the two directions (:func:`_tensor_pattern`), and the band
layout of that pattern in its natural order, in which every LU of the
solver factors.
The volume form of the stiffness is a batched product, :func:`_blocks`,
of a test table with a trial table that carries the weights and
coefficients, when a coefficient varies over the volume points.  Every
fixed volume Gram is a sum of the unit matrices
sum_q w T_r T_s of the table rows, made once per discretization
(:meth:`Discretization.volume_units`; the affine decomposition of
reduced-basis methods): the mass is the unit of the value rows, the V_h
Gram adds those of the two gradient rows and the penalty Gram P, and when
c, b and mu each hold one value at the volume points, the volume form of
the stiffness is the sum of those values times their units.  An edge's
local basis is its owner element's, so each edge carries its owner's data
slots and global indices.  The element
blocks and then the edge blocks are added into the matrix data at their
slots as each block of them is made (``np.add.at``, which sums in order,
the order of one ``np.bincount`` over all of them); a vector (v, N_i) is
C1^T (w v) C2 over the tensor grid of the volume points, a sum
factorization (:func:`_volume_load`).  Repeated assemblies are cheap and
bitwise reproducible.

The stiffness form contains five families of terms: the volume form
(diffusion, advection, reaction), the boundary flux term, its transpose
(symmetrization), the eps/h_E boundary penalty, and the one-sided inflow
term restricted to quadrature points where b . n < 0.  The penalty is eps
times one matrix of the discretization, P = sum_E h_E^-1 int_E N_i N_j
(:attr:`Discretization.penalty_unit`), which is also the boundary part of
the V_h Gram; the matrix data of the stiffness starts from eps P.  Of the
other edge families only the inflow term reads b, so each edge block is
the sum of two parts (:class:`_Stiffness`): a fixed block of the flux and
its transpose, which reads mu at the edge points alone and is kept until
mu there changes, and the inflow block N_i max(-b . n, 0) N_j, made with
the Dirichlet trial terms at every assembly.  Under an advection field
that turns in time, only the inflow term is made at each step.  The
volume form is made at every assembly too: b moves it and b . n together.
The load is (f, N) plus its Dirichlet trial terms applied to g, summed at
the edges' global indices; :meth:`AssembledForms.at` returns both from one
sampling of the coefficients, the stiffness as its data on the pattern.  The
penalty floor's :func:`trace_constant` takes each edge's largest
eigenvalue from one q x q Gram at every quadrature order.

Every element kernel (the element cache's grid evaluation by span rows,
the basis tables, the stiffness, the unit matrices and the penalty Gram
P, the trace constant, a vector's grid contraction by span rows, and the
band layout's slots by rows of the pattern) runs over consecutive blocks of
elements, edges or rows (:func:`block_slices`) whose largest temporary fits
``BLOCK_BYTES``, and each block writes into the one array that the kernel
keeps or returns.  A
block's item is what the kernel makes per element, edge or row: for the
trace constant, the gradient rows that an edge gathers from its owner's
table.
Each element gets the same arithmetic in the same order as in one pass over
the mesh, so every output is bit-identical for any block size; the trace
constant is the max of per-edge values, so it is too.  The budget
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

from .errors import ConfigError, ConvergenceFailure, DegenerateJacobian, SingularGram
from .geometry import SIDES, edge_geometry, invert_2x2
from .linalg import EIG_RTOL, BandLayout
from .quadrature import QuadratureRule, gauss_rule
from .splines import eval_basis_many

PENALTY_FACTOR_DEFAULT = 1.25

# the largest number whose square is a finite float: the bound on a matrix
# norm that a sum of squares can form
NORM_LIMIT = float(np.sqrt(np.finfo(float).max))

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


def _basis_table(d1, d2, jac, out=None):
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
    block.  The table is ``out`` when it is given.
    """
    n1, n2 = d1.shape[-1], d2.shape[-1]
    # (3, nloc) positions in the flattened (2, k+1) tables: rows value,
    # derivative, value of direction 1 and value, value, derivative of 2
    at1 = np.array([[0], [n1], [0]]) + np.repeat(np.arange(n1), n2)
    at2 = np.array([[0], [0], [n2]]) + np.tile(np.arange(n2), n1)
    flat1, flat2 = (d.reshape(d.shape[:-2] + (-1,)) for d in (d1, d2))
    table = np.empty(jac.shape[:2] + (3, n1 * n2)) if out is None else out
    for s in block_slices(len(table), table[0].nbytes):
        hat = np.take(flat1[s], at1, axis=-1) * np.take(flat2[s], at2, axis=-1)
        hat = hat.reshape(table[s].shape)
        inv_jac = invert_2x2(jac[s])
        table[s, :, 0] = hat[:, :, 0]
        np.matmul(inv_jac.swapaxes(-1, -2), hat[:, :, 1:], out=table[s, :, 1:])
        del hat  # before the next block's product is made
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
    ``np.intp``, which ``np.add.at`` reads without a converted copy: the
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


def _by_direction(space, table, *args):
    """``table(kv, *args)`` of the knot vector of each direction of ``space``,
    made once when both directions share one (as on every uniform space)."""
    one = table(space.kv1, *args)
    return one, (one if space.kv2 is space.kv1 else table(space.kv2, *args))


def _span_table(kv, rule):
    """The points and weights (ns, q) of ``rule`` on every span of ``kv``,
    each span's first nonzero function (ns,) and the 1-D values and first
    derivatives (ns, q, 2, k+1) there: one evaluation at all the points."""
    bps, q = kv.breakpoints, rule.order
    pts, wts = rule.mapped(bps[:-1, None], bps[1:, None])
    first, ders = eval_basis_many(kv, pts.ravel())
    return pts, wts, first[::q], ders.reshape(kv.num_spans, q, 2, -1)


def _value_matrix(span, n):
    """The dense values (ns q, n) of one direction's ``n`` functions at its
    Gauss points, laid out as :func:`~nitsche_iga.splines.collocation`'s,
    from its :func:`_span_table` ``span``: zero off each span's k+1."""
    _, _, first, ders = span
    ns, q, _, k1 = ders.shape
    C = np.zeros((ns * q, n))
    cols = np.repeat(first, q)[:, None] + np.arange(k1)
    C[np.arange(ns * q)[:, None], cols] = ders[:, :, 0].reshape(ns * q, k1)
    return C


class ElementCache:
    """Mapped basis data at the volume quadrature points of every element.

    Arrays: ``x`` (ne, nq, 2) physical points, ``w`` (ne, nq) physical
    weights, ``table`` (ne, nq, 3, nloc) values and physical gradients with
    their views ``B`` (ne, nq, nloc) and ``G`` (ne, nq, nloc, 2), ``gidx``
    (ne, nloc) global indices, ``span_first`` the first nonzero function of
    each span of each direction.  Elements run with direction 1 fastest;
    quadrature points and local functions, (l1, l2), with direction 2 fastest.

    ``spans`` holds the 1-D tables of each direction at the Gauss points of
    all its spans, ``_by_direction(space, _span_table, gauss_rule(q))`` (see
    :func:`_span_table`): each basis is evaluated once, and once for both
    directions when they share one knot vector (as every uniform space
    does); the discretization makes them once for this cache and the edge
    cache.  ``C1``, ``C2`` (ns q, n) hold each basis densely there, one
    array for a shared table, for :func:`_volume_load`.  The map is
    evaluated on the grid of those points one block of whole direction-2
    span rows at a time (the rows' elements are consecutive), as many rows
    as let their J fit ``BLOCK_BYTES`` and at least one; each block is
    reordered to (element, point) and writes its x, w and basis table into
    the cache's arrays, so no array spans the grid.
    det J must keep one sign (:class:`DegenerateJacobian` otherwise) across
    all blocks and at the element corners, one more grid of the
    breakpoints; the sign is judged after every block has passed the |det J|
    floor.
    """

    def __init__(self, space, gm, spans):
        ns1, ns2 = space.num_spans
        s1, s2 = np.tile(np.arange(ns1), ns2), np.repeat(np.arange(ns2), ns1)
        (p1, w1, f1, d1), (p2, w2, f2, d2) = spans
        q = p1.shape[1]
        ne, nq = len(s1), q * q

        self.x = np.empty((ne, nq, 2))
        self.w = np.empty((ne, nq))
        table = np.empty((ne, nq, 3, d1.shape[-1] * d2.shape[-1]))

        # a block of span rows of the grid, indexed (s1, i1, s2, i2), as
        # (s2, s1, i1, i2): the rows' elements and their points in order
        def by_element(a, rows):
            return np.moveaxis(a.reshape((ns1, q, rows, q) + a.shape[2:]), 2, 0)

        # as many rows as let J (four doubles a point, the largest array of
        # the grid evaluation) fit the budget
        row_blocks = block_slices(ns2, 32 * ns1 * nq)
        points = [slice(q * b.start, q * b.stop) for b in row_blocks]
        grids = gm.evaluate_grid_blocks(p1.ravel(), p2.ravel(), points)
        positive = negative = True
        for b in row_blocks:
            x, J, detj = next(grids)
            rows, e = b.stop - b.start, slice(ns1 * b.start, ns1 * b.stop)
            positive, negative = positive and np.all(detj > 0), negative and np.all(detj < 0)
            self.x[e].reshape(rows, ns1, q, q, 2)[...] = by_element(x, rows)
            w = np.multiply.outer(w1.ravel(), w2[b].ravel())
            w *= np.abs(detj)
            self.w[e].reshape(rows, ns1, q, q)[...] = by_element(w, rows)
            J = by_element(J, rows).reshape(rows * ns1, nq, 2, 2)
            del x, w, detj  # before the table's temporaries are made
            _basis_table(d1[s1[e], :, None], d2[s2[e], None], J, out=table[e])
            del J  # before the next block is evaluated
        detj = gm.evaluate_grid(space.kv1.breakpoints, space.kv2.breakpoints)[2]
        if not (positive and np.all(detj > 0) or negative and np.all(detj < 0)):
            raise DegenerateJacobian("det J changes sign across the mesh")
        self.table, self.B, self.G = table, table[:, :, 0], table[:, :, 1:].swapaxes(2, 3)
        self.span_first = (f1, f2)
        self.gidx = space.local_to_global(f1[s1], f2[s2])
        self.C1 = _value_matrix(spans[0], space.shape[0])
        self.C2 = self.C1 if spans[1] is spans[0] else _value_matrix(spans[1], space.shape[1])

    def field(self, coef, elements=slice(None)):
        """Values and physical gradients (..., ne, nq, 3) of the fields with
        coefficients ``coef`` (a vector, or a stack of them along the leading
        axes) on the slice ``elements`` of the elements, all by default: one
        matrix-vector product per vector and element with the element's
        (nq * 3, nloc) slice of ``table``, so the values of an element do not
        depend on the slice or on the other vectors of the stack."""
        table = self.table[elements]
        ne, nq, rows, nloc = table.shape
        flat = table.reshape(ne, nq * rows, nloc) @ coef[..., self.gidx[elements], None]
        return flat.reshape(coef.shape[:-1] + (ne, nq, rows))


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
    edge points, in the owner's local order, so ``gidx`` is the owner's.  The
    table is one :func:`_basis_table` of rows gathered from two 1-D tables per
    direction: along a side the Gauss-point tables ``spans`` of all spans,
    the element cache's (see :class:`ElementCache`), and across it one
    evaluation at the two ends 0 and 1, made once for both directions when
    they share one knot vector.
    ``h_E`` is each edge's arc length, summed from the arc-length weights of
    the fixed ``EDGE_LENGTH_POINTS``-point rule at every ``q``.  The map is
    evaluated once per pair of opposite sides for both rules
    (:func:`~nitsche_iga.geometry.edge_geometry`): at the q points of each
    edge followed by the 5 of h_E, and only at the q points when ``q`` is 5,
    where ``w`` itself gives h_E.
    """

    def __init__(self, space, gm, spans):
        ns1, ns2 = space.num_spans
        q = spans[0][0].shape[1]
        parts = []
        for side in SIDES:
            bps = (space.kv2 if side in ("x0", "x1") else space.kv1).breakpoints
            n = np.arange(len(bps) - 1)
            # the element (s1, s2) that holds each span, owner s1 + ns1 * s2
            s1, s2 = {"x0": (0, n), "x1": (ns1 - 1, n), "y0": (n, 0), "y1": (n, ns2 - 1)}[side]
            parts.append((np.full(len(n), side), bps[:-1], bps[1:], s1 + ns1 * s2))
        self.side, self.lo, self.hi, self.owner = (np.concatenate(a) for a in zip(*parts))

        # one evaluation per pair of opposite sides, at the q points of each
        # edge followed by the 5 of h_E unless q is those 5; each part is
        # split off into an array of its own, contiguous as a rule of its own
        # would give it
        rule, five = gauss_rule(q), gauss_rule(EDGE_LENGTH_POINTS)
        if q != EDGE_LENGTH_POINTS:
            rule = QuadratureRule(
                np.concatenate((rule.points, five.points)),
                np.concatenate((rule.weights, five.weights)),
            )
        data = edge_geometry(gm, space, rule)
        self.h_E = np.sum(np.ascontiguousarray(data[2][:, -EDGE_LENGTH_POINTS:]), axis=1)
        self.x, J, self.w, self.normal = (np.ascontiguousarray(a[:, :q]) for a in data)

        # per direction, the first functions and 1-D tables at the two ends
        # (rows 0 and 1) and at the Gauss points of each span s (row 2 + s)
        def rows(end, span):
            (end_first, ends), (_, _, first, ders) = end, span
            ends = np.broadcast_to(ends[:, None], (2,) + ders.shape[1:])
            return np.concatenate((end_first, first)), np.concatenate((ends, ders))

        ends = _by_direction(space, eval_basis_many, [0.0, 1.0])
        (f1, d1), (f2, d2) = map(rows, ends, spans)
        # each edge's rows: x0 and x1 take the ends of direction 1 and the
        # spans of direction 2, y0 and y1 the other way round
        r1 = np.concatenate((np.repeat([0, 1], ns2), np.tile(np.arange(2, ns1 + 2), 2)))
        r2 = np.concatenate((np.tile(np.arange(2, ns2 + 2), 2), np.repeat([0, 1], ns1)))
        self.table, self.B, self.G = _basis_table(d1[r1], d2[r2], J)
        self.gidx = space.local_to_global(f1[r1], f2[r2])

    def field_values(self, coef):
        return np.einsum("fql,fl->fq", self.B, coef[self.gidx])


class Discretization:
    """A solution space over a geometry map, with its quadrature order.

    The elements are the spans of ``space`` mapped by ``geometry``; the
    caches ``elements`` and ``boundary`` (an :class:`EdgeCache`, which also
    holds the boundary edges) carry the basis data, with the CSR pattern
    every matrix shares and its ``band`` (a
    :class:`~nitsche_iga.linalg.BandLayout`, kl = ku = k2 n1 + k1 in the
    natural order i1 + n1 i2), which every ``SparseFactor`` of a matrix of
    this discretization takes.

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
        # the per-span 1-D tables of both caches, made once
        spans = _by_direction(space, _span_table, gauss_rule(quadrature_order))
        self.elements = ElementCache(space, geometry, spans)
        self.boundary = EdgeCache(space, geometry, spans)

        # the CSR pattern of every matrix, built from the span blocks of the
        # two directions, and the data slots of the element blocks followed
        # by those of the edges (their owners')
        self._indptr, self._indices, self._slots = _tensor_pattern(
            space, *self.elements.span_first, self.boundary.owner
        )
        self.band = BandLayout(self._indptr, self._indices)
        # the unit matrices' data by table-row pair, see volume_units
        self._units = {}

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

    def volume_units(self, pairs):
        """The data of the unit matrix sum_q w T_r T_s of each table-row pair
        (r, s) in ``pairs``: the value rows at r = 0 and the gradient rows of
        direction a at r = 1 + a, for the test (r) and the trial (s)
        function, so (0, 0) is the mass.  Each is made on first use, the
        missing ones of a call in one pass (:func:`_unit_data`), and kept."""
        missing = [pair for pair in pairs if pair not in self._units]
        if missing:
            self._units.update(zip(missing, _unit_data(self, missing)))
        return [self._units[pair] for pair in pairs]

    @cached_property
    def penalty_unit(self):
        """The data of the penalty Gram P = sum_E h_E^-1 int_E N_i N_j over
        the boundary edges, made on first use by the unit matrices' kernel
        (:func:`_add_gram_blocks`) from the edge table: the boundary part of
        the V_h Gram and, times eps, the penalty term of the stiffness."""
        bc = self.boundary
        data = _zero_data(self)
        edges = self._slots[len(self.elements.w) :]
        _add_gram_blocks([data], edges, bc.table, bc.w / bc.h_E[:, None], [(0, 0)])
        return data

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


def _zero_data(disc):
    """Zero matrix data on the pattern of ``disc``, written: ``np.zeros`` of
    this size gets zero pages, which the first ``np.add.at`` faults twice,
    on reading and then on writing each page."""
    return np.full(len(disc._indices), 0.0)


def _add_blocks(data, slots, blocks):
    """Add ``blocks`` into the matrix ``data`` at their ``slots``, entry after
    entry in order: blocks added in turn sum as one ``np.bincount`` of all of
    them would."""
    np.add.at(data, slots.ravel(), blocks.ravel())


def _volume_load(ec, values):
    """The vector (v, N_i) in the order i1 + n1 i2 from the values (ne, nq)
    of v at the volume points of ``ec``: C1^T (w v) C2 over their grid.

    w v of a block of direction-2 span rows, in the element order (s2, s1,
    i1, i2), is a stack (rows, ns1 q, q), whose product with C1^T, one per
    row, fills the rows' columns of T (n1, ns2, q); T (n1, ns2 q) C2 is the
    vector (n1, n2), the same for any block size.  ``values`` is only read.
    """
    (ns1, ns2), (C1, C2) = map(len, ec.span_first), (ec.C1, ec.C2)
    q, n1 = len(C1) // ns1, C1.shape[1]
    T = np.empty((n1, ns2, q))
    for b in block_slices(ns2, ec.w[:ns1].nbytes):
        e = slice(ns1 * b.start, ns1 * b.stop)
        weighted = (ec.w[e] * values[e]).reshape(-1, ns1 * q, q)
        np.matmul(C1.T, weighted, out=T[:, b].swapaxes(0, 1))
    return (T.reshape(n1, -1) @ C2).ravel(order="F")


def assemble_mass(disc):
    """Mass matrix M_ij = (N_j, N_i) over the physical domain: the unit
    matrix (0, 0) of :meth:`Discretization.volume_units`, whose data it
    shares."""
    return disc.matrix(disc.volume_units([(0, 0)])[0])


def _coefficients_at(points, p, name, t):
    """The closure ``name`` of the problem ``p`` at ``points`` (..., 2) and
    time ``t``, shaped (...,) plus the shape of its values; unchecked, see
    :func:`_check_coefficient`."""
    flat = points.reshape(-1, 2)
    vals = np.asarray(getattr(p, name)(flat[:, 0], flat[:, 1], t))
    return vals.reshape(points.shape[:-1] + vals.shape[1:])


def _non_finite(values):
    """The first non-finite value of the sample ``values``, or None when
    every value is finite; only its :func:`_distinct` values are read."""
    distinct = _distinct(values)
    finite = np.isfinite(distinct)
    return None if finite.all() else distinct[~finite][0]


def _check_coefficient(name, values, t, where):
    """Raise :class:`ConfigError` unless the sample ``values`` of the closure
    ``name`` at ``t`` and the ``where`` ("volume" or "edge") points is finite."""
    bad = _non_finite(values)
    if bad is not None:
        raise ConfigError(
            f"coefficient {name}(x, y, t) is not finite at t = {t:g}: it takes the value "
            f"{bad}, sampled at the {where} points"
        )


def _normal_flow(bc, bv):
    """b . n (nedge, nq) at the edge quadrature points of the edge cache
    ``bc``, from the sample ``bv`` (nedge, nq, 2) of b there, which must be
    checked first: the product of an infinite b with a normal can be NaN."""
    return np.einsum("fqa,fqa->fq", bv, bc.normal)


def inflow_mask(disc, p, t):
    """``(mask, bn)``: b . n (nedge, nq) at the edge quadrature points and
    the boolean mask of the points where it is negative; the sample of b is
    checked for finiteness before it is reduced to b . n."""
    bc = disc.boundary
    bv = _coefficients_at(bc.x, p, "b", t)
    _check_coefficient("b", bv, t, "edge")
    bn = _normal_flow(bc, bv)
    return bn < 0.0, bn


def _operator_coefficients(disc, p, t):
    """Every array through which the stiffness depends on ``t``, unchecked.

    mu, b and c at the volume quadrature points, mu and b at the edge
    quadrature points (b itself: the inflow mask alone would miss a change
    of |b . n|).  Bit-equal arrays give a bit-equal stiffness matrix.  Each
    is checked by :meth:`_Stiffness.at`, when it changes.
    """
    ec, bc = disc.elements, disc.boundary
    mu, bv, cv = (_coefficients_at(ec.x, p, name, t) for name in ("mu", "b", "c"))
    mu_e, bv_e = (_coefficients_at(bc.x, p, name, t) for name in ("mu", "b"))
    return mu, bv, cv, mu_e, bv_e


def _distinct(a):
    """View of ``a`` with every axis of stride 0 cut to length 1: all the
    values it holds, since along such an axis one value repeats."""
    return a[tuple(slice(0, 1) if s == 0 else slice(None) for s in a.strides)]


class _KeptSample:
    """One operator sample as it was last assembled: a C-contiguous copy of
    its :func:`_distinct` values, the shape it repeats them to and, at the
    volume points (``volume``), whether it is :func:`_uniform`."""

    def __init__(self, a, distinct, volume):
        self.shape, self.dtype = a.shape, a.dtype
        self._bits = np.array(distinct, order="C").view(f"u{a.itemsize}")
        self.uniform = volume and _uniform(self._bits)

    def holds(self, a, distinct):
        """Whether the sample ``a``, of :func:`_distinct` view ``distinct``,
        has the shape, dtype and bits of this one, compared in place as
        unsigned integers (signed zeros and NaN payloads count): its distinct
        values when they repeat along the axes that this one's did, as
        ``np.broadcast_to`` gives at every step, else all of ``a``."""
        if a.shape != self.shape or a.dtype != self.dtype:
            return False
        new = distinct if distinct.shape == self._bits.shape else a
        return bool((new.view(self._bits.dtype) == self._bits).all())


def _sample(a, kept, name, where, t):
    """``kept`` (a :class:`_KeptSample` or None) when it holds the sample
    ``a`` of the closure ``name`` at ``t``, else a new one of ``a`` once it
    is checked (:func:`_check_coefficient`), all from one :func:`_distinct`
    view of ``a``."""
    distinct = _distinct(a)
    if kept is not None and kept.holds(a, distinct):
        return kept
    _check_coefficient(name, distinct, t, where)
    return _KeptSample(a, distinct, where == "volume")


def _uniform(a):
    """Whether ``a`` (ne, nq, ...) holds one value, bit for bit, at every
    volume point: its :func:`_distinct` values against those of the first
    point, as unsigned integers of their item size (so signed zeros and NaN
    payloads count), one block of elements at a time."""
    bits = _distinct(a).view(np.dtype(f"u{a.itemsize}"))
    if bits.shape[:2] == (1, 1):  # the values of one point, repeated
        return True
    first = bits[0, 0]
    return all((bits[s] == first).all() for s in block_slices(len(bits), bits[0].nbytes))


# the table rows (test, trial) of the unit matrix of each volume coefficient
# c, b1, b2, mu11, mu12, mu21, mu22, in the order of their sum
UNIT_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2))


def _uniform_terms(mu, bv, cv):
    """The volume form as a sum of unit matrices: ``{(r, s): v}`` of the
    nonzero coefficients v at the :data:`UNIT_PAIRS`, in their order, read
    at the first volume point of c, b and mu, each of which is
    :func:`_uniform`."""
    values = np.concatenate([np.ravel(a[0, 0]) for a in (cv, bv, mu)])
    return {pair: float(v) for pair, v in zip(UNIT_PAIRS, values) if v != 0.0}


def _add_gram_blocks(units, slots, table, w, pairs):
    """Add to each matrix data of ``units`` at ``slots`` (n, nloc, nloc) the
    blocks sum over points of w T_r[i] T_s[j] of its table-row pair (r, s)
    of ``pairs``, for the tables (n, nq, 3, nloc) of ``table`` and the
    weights (n, nq) of ``w``.

    One pass over blocks of items weights the rows of each block's table
    from the first to the last that the pairs read by w, the block's largest
    temporary, and adds the blocks T_r^T (w T_s) of each pair into its data:
    a pair's product is the same whichever pairs are made with it.
    """
    first, last = min(map(min, pairs)), max(map(max, pairs))
    rows = slice(first, last + 1)
    for s in block_slices(len(table), table[0, :, rows].nbytes):
        weighted = w[s, :, None, None] * table[s, :, rows]
        for data, (test, trial) in zip(units, pairs):
            blocks = table[s, :, test].swapaxes(1, 2) @ weighted[:, :, trial - first]
            _add_blocks(data, slots[s], blocks)


def _unit_data(disc, pairs):
    """The data of the unit matrices sum over elements and points of
    w T_r[i] T_s[j] of the table-row ``pairs`` (r, s), one list entry each
    (:func:`_add_gram_blocks`)."""
    units = [_zero_data(disc) for _ in pairs]
    _add_gram_blocks(units, disc._slots, disc.elements.table, disc.elements.w, pairs)
    return units


def _penalty(eps, h_E):
    """``eps`` as a float; :class:`ConfigError` (a ``ValueError``) unless it
    is a positive finite number, so is the penalty eps/h_E of every edge of
    lengths ``h_E``, and the stiffness matrix can be normed.

    The penalty block of an edge, (eps/h_E) times the edge integrals of
    N_i N_j, is nonnegative and sums to about eps (the N_i sum to one), so
    eps times the edge count bounds the Frobenius norm of the penalty term.
    Unless that bound squares to a finite number, ||A||_F, and with it the
    residual bound of every solve, may overflow; such an eps is refused here,
    before any assembly overflows.
    """
    eps = float(eps)
    if not 0.0 < eps < np.inf:
        raise ConfigError(f"penalty parameter must be a positive finite number, got {eps}")
    h_min = float(np.min(h_E))
    if not eps / h_min < np.inf:
        raise ConfigError(
            f"penalty eps/h_E overflows: eps = {eps:g} over the smallest edge length "
            f"h_E = {h_min:g}"
        )
    if not eps * len(h_E) < NORM_LIMIT:
        raise ConfigError(
            f"penalty eps = {eps:g} is too large to norm the stiffness matrix: eps times "
            f"its {len(h_E)} boundary edges reaches {NORM_LIMIT:.3g}, the square root of "
            "the largest float"
        )
    return eps


def _add_volume_form(data, disc, mu, bv, cv, uniform):
    """Add the volume form (diffusion, advection, reaction) into the matrix
    ``data``, from the samples of mu, b and c at the volume points.

    When c, b and mu each hold one value at every volume point (``uniform``,
    see :func:`_uniform`), those values times the discretization's unit
    matrices (:func:`_uniform_terms`) are added term after term in a fixed
    order, one block of entries at a time.  Otherwise each point's
    coefficients weight the trial table and one product per block of elements
    contracts it with the test table.
    """
    ec = disc.elements
    if uniform:
        terms = _uniform_terms(mu, bv, cv)
        units = disc.volume_units(list(terms))
        for s in block_slices(len(data), data.itemsize):
            for v, unit in zip(terms.values(), units):
                data[s] += v * unit[s]
    else:
        # weighted trial side of the volume form, c N + b . grad N and
        # mu grad N, formed and contracted one block of elements at a time
        for s in block_slices(len(ec.table), ec.table[0].nbytes):
            coef = np.zeros(ec.w[s].shape + (3, 3))
            coef[..., 0, 0], coef[..., 0, 1:], coef[..., 1:, 1:] = cv[s], bv[s], mu[s]
            coef *= ec.w[s, :, None, None]
            _add_blocks(data, disc._slots[s], _blocks(ec.table[s], coef @ ec.table[s]))


def _fixed_edge_blocks(disc, mu_e):
    """The edge blocks that neither b nor eps enters, from the samples
    ``mu_e`` of mu at the edge points: one ``(edges, fixed, flux)`` per block
    of edges, with ``edges`` the block's slice, ``flux`` (n, nq, nloc) the
    rows n . mu grad N at its edge points and ``fixed`` (n, nloc, nloc) minus
    the flux term F = N_i (n . mu grad N_j), summed over each edge's points,
    and minus its transpose: -(F + F^T), symmetric bit for bit.

    A block of edges is sized by what it keeps per edge, its block and its
    flux rows, and the blocks are kept as they are made, so none of them is
    mapped afresh as one array over all edges would be (see the module
    docstring).
    """
    bc = disc.boundary
    nq, nloc = bc.B.shape[1:]
    parts = []
    for s in block_slices(len(bc.B), 8 * nloc * (nloc + nq)):
        flux = ((bc.normal[s, :, None, :] @ mu_e[s]) @ bc.table[s, :, 1:])[:, :, 0]
        F = bc.B[s].swapaxes(1, 2) @ (bc.w[s, :, None] * flux)
        parts.append((s, -(F + F.swapaxes(1, 2)), flux))
    return parts


def _add_edge_blocks(data, disc, fixed, bn, eps):
    """Add the edge blocks of the stiffness but its penalty into the matrix
    ``data``, and return its Dirichlet trial terms.

    Each edge's block is its fixed one (from :func:`_fixed_edge_blocks`,
    whose blocks of edges this follows) plus its one-sided inflow block, the
    sum over its points of N_i max(-b . n, 0) N_j, added at the edge's slots.
    The Dirichlet terms (nedge, nq, nloc) are sigma N - flux at the edge
    points, sigma = eps/h_E - min(b . n, 0), which the load applies to g.
    """
    bc = disc.boundary
    slots = disc._slots[len(disc.elements.w) :]
    dirichlet = np.empty(bc.B.shape)
    for s, blocks_fixed, flux in fixed:
        inflow = np.minimum(bn[s], 0.0)
        sigma = (eps / bc.h_E[s])[:, None] - inflow
        np.subtract(sigma[..., None] * bc.B[s], flux, out=dirichlet[s])
        inflow *= -bc.w[s]
        blocks = bc.B[s].swapaxes(1, 2) @ (inflow[..., None] * bc.B[s])
        blocks += blocks_fixed
        _add_blocks(data, slots[s], blocks)
    return dirichlet


# the closure and the points of each sample of _operator_coefficients
OPERATOR_SAMPLES = (
    ("mu", "volume"), ("b", "volume"), ("c", "volume"), ("mu", "edge"), ("b", "edge")
)


class _Stiffness:
    """The stiffness matrix data of a discretization at the penalty ``eps``,
    from one sample after another of the :func:`_operator_coefficients`, with
    the samples it was made from (:class:`_KeptSample`) and the edge blocks
    that read mu alone.

    :meth:`at` visits each new sample once (:func:`_sample`), and only a
    changed one is checked, tested by :func:`_uniform` and copied.  When any
    sample changes, the data starts from eps P
    (:attr:`Discretization.penalty_unit`), and the volume form
    (:func:`_add_volume_form`; b moves it and b . n together) and the edge
    blocks are added to it: each the fixed block of
    :func:`_fixed_edge_blocks`, made again only when mu at the edge points
    changes, plus its inflow block, which :func:`_add_edge_blocks` makes with
    the Dirichlet trial terms.  Every part depends on its samples alone, so
    the data is bit-equal to that of a fresh instance at the same samples, as
    :func:`assemble_stiffness` makes.
    """

    def __init__(self, disc, eps):
        self.disc, self.eps = disc, eps
        self._samples = [None] * len(OPERATOR_SAMPLES)
        self._fixed = self._data = self._dirichlet = None

    def at(self, coefficients, t):
        """``(data, dirichlet)`` from the :func:`_operator_coefficients` at
        ``t``: the stiffness data on the pattern of the discretization, the
        previous array object when every sample is bit-equal to its kept one,
        and its Dirichlet trial terms (:func:`_add_edge_blocks`).  A
        non-finite mu, b or c raises :class:`ConfigError`."""
        kept = self._samples
        inputs = zip(coefficients, kept, OPERATOR_SAMPLES)
        samples = [_sample(a, k, name, where, t) for a, k, (name, where) in inputs]
        if all(new is old for new, old in zip(samples, kept)):
            return self._data, self._dirichlet
        disc, eps = self.disc, self.eps
        mu, bv, cv, mu_e, bv_e = coefficients
        data = eps * disc.penalty_unit
        _add_volume_form(data, disc, mu, bv, cv, all(s.uniform for s in samples[:3]))
        fixed = self._fixed if samples[3] is kept[3] else _fixed_edge_blocks(disc, mu_e)
        dirichlet = _add_edge_blocks(data, disc, fixed, _normal_flow(disc.boundary, bv_e), eps)

        # kept once the data is made, so a call that fails keeps nothing
        self._samples, self._fixed, self._data, self._dirichlet = samples, fixed, data, dirichlet
        return data, dirichlet


def assemble_stiffness(disc, p, eps, t):
    """Penalized stiffness A_ij = form(t; trial N_j, test N_i).

    Row index is the test function.  All five term families are included;
    the inflow term is restricted pointwise to quadrature points where the
    advection field enters the domain at time ``t``.  ``eps`` and eps/h_E
    must be positive finite numbers.  Every part is made afresh, on the path
    that :meth:`AssembledForms.at` takes, so the two matrices are bit-equal.
    """
    eps = _penalty(eps, disc.boundary.h_E)
    return disc.matrix(_Stiffness(disc, eps).at(_operator_coefficients(disc, p, t), t)[0])


def _load_from(disc, p, dirichlet, t):
    """Load vector F_i = (f, N_i) (:func:`_volume_load`) plus the Dirichlet
    terms ``dirichlet`` of the stiffness at ``t`` (:meth:`_Stiffness.at`)
    applied to g, summed at the edges' global indices."""
    ec, bc = disc.elements, disc.boundary
    fv = _coefficients_at(ec.x, p, "f", t)
    gv = _coefficients_at(bc.x, p, "g", t)
    _check_coefficient("f", fv, t, "volume")
    _check_coefficient("g", gv, t, "edge")
    edges = np.einsum("fq,fql->fl", bc.w * gv, dirichlet)
    load = _volume_load(ec, fv)
    load += np.bincount(bc.gidx.ravel(), weights=edges.ravel(), minlength=len(load))
    return load


def assemble_functional(disc, func):
    """Vector of volume integrals (func, N_i) by :func:`_volume_load`; func,
    the initial datum u0 of :func:`~nitsche_iga.timestepping.project_initial`,
    takes (x, y) arrays.  A non-finite value raises :class:`ConfigError`."""
    ec = disc.elements
    flat = ec.x.reshape(-1, 2)
    fv = np.asarray(func(flat[:, 0], flat[:, 1])).reshape(ec.w.shape)
    bad = _non_finite(fv)
    if bad is not None:
        raise ConfigError(f"initial datum u0(x, y) is not finite: it takes the value {bad}")
    return _volume_load(ec, fv)


def assemble_vh_gram(disc):
    """Gram matrix of the stability norm: H1 inner product, the sum of the
    unit matrices (0, 0), (1, 1) and (2, 2) of
    :meth:`Discretization.volume_units`, plus the h_E^-1-weighted boundary
    mass P, :attr:`Discretization.penalty_unit`."""
    mass, dx, dy = disc.volume_units([(0, 0), (1, 1), (2, 2)])
    data = mass + dx
    data += dy
    data += disc.penalty_unit
    return disc.matrix(data)


def trace_constant(disc):
    """Sharp discrete constant of the scaled edge-flux trace inequality.

    For each boundary edge: largest generalized eigenvalue of the pair
    (Tr, Sr) of the h_E-scaled edge flux Gram and the owner element's
    H1-seminorm Gram, both restricted to the owner's local basis with the
    constant mode deflated (both Grams vanish on constants by partition of
    unity).  Tr sums one outer product per edge point, Tr = B^T B with B
    (q, nloc - 1) the weighted flux rows, so its rank is at most q.  With
    Sr = L L^T the pair's eigenvalues are those of M M^T, M = L^-1 B^T, and
    the nonzero ones those of the q x q Gram M^T M, whose top pair (lambda,
    u) gives the pair's top vector v = L^-T M u / |M u|.  Edges run in
    blocks (:func:`block_slices`) whose item is the gradient rows
    (nq, 2, nloc) that an edge gathers from its owner's table, the largest
    array per edge, and each edge's top pair is checked
    against the residual bound of
    :func:`~nitsche_iga.linalg.generalized_symmetric_eig`,
    ||Tr v - lambda Sr v|| <= EIG_RTOL ||Tr||_2 entrywise
    (:class:`ConvergenceFailure` otherwise).  Returns the max over edges.
    """
    ec, bc = disc.elements, disc.boundary
    nloc = ec.B.shape[2]
    # an orthonormal basis of the complement of the constants
    ones = np.ones(nloc) / np.sqrt(nloc)
    Z, r = np.linalg.qr(np.eye(nloc) - np.outer(ones, ones))
    Z = Z[:, np.abs(np.diag(r)) > 1e-12]

    top = -np.inf
    for s in block_slices(len(bc.owner), ec.table[0, :, 1:].nbytes):
        # the owners' gradient Grams
        grads, w = ec.table[bc.owner[s], :, 1:], ec.w[bc.owner[s]]
        Sr = Z.T @ _blocks(grads, w[..., None, None] * grads) @ Z
        Sr = (Sr + Sr.swapaxes(1, 2)) / 2
        try:
            L = np.linalg.cholesky(Sr)
        except np.linalg.LinAlgError:
            f = s.start + np.argmin(np.linalg.eigvalsh(Sr)[:, 0])
            msg = f"element seminorm Gram singular beyond constants on edge {f}"
            raise SingularGram(msg) from None
        flux = np.einsum("fqa,fqal->fql", bc.normal[s], bc.table[s, :, 1:])
        Bt = ((np.sqrt(bc.h_E[s, None] * bc.w[s])[..., None] * flux) @ Z).swapaxes(1, 2)
        L_inv = np.linalg.inv(L)
        M = L_inv @ Bt
        vals, U = np.linalg.eigh(M.swapaxes(1, 2) @ M)
        lam, y = vals[:, -1], M @ U[:, :, -1:]
        y /= np.maximum(np.linalg.norm(y, axis=1, keepdims=True), np.finfo(float).tiny)
        v = L_inv.swapaxes(1, 2) @ y
        resid = Bt @ (Bt.swapaxes(1, 2) @ v) - lam[:, None, None] * (Sr @ v)
        norm_t = np.linalg.eigvalsh(Bt.swapaxes(1, 2) @ Bt)[:, -1]
        ratio = np.abs(resid).max(axis=(1, 2)) / (EIG_RTOL * np.maximum(norm_t, 1e-300))
        if not np.all(ratio <= 1.0):
            f = np.flatnonzero(~(ratio <= 1.0))[0]
            raise ConvergenceFailure(
                f"eigenpair residual on edge {s.start + f} is {ratio[f]:.3e} times its bound "
                f"{EIG_RTOL:g} * ||A||"
            )
        top = max(top, float(lam.max()))
    return top


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
    its eps/h_E on every edge are positive finite numbers and the stiffness
    matrix can be normed, see :func:`_penalty`).  Keeps the last stiffness
    data with the parts and samples it was made from (a :class:`_Stiffness`,
    empty until the first :meth:`at`, so set-up builds none of it); the data
    is bit-equal to that of :func:`assemble_stiffness` at the same t.  It
    lies on the CSR pattern of ``disc``: ``disc.matrix`` makes its matrix,
    and the march makes one matrix, of M + tau A, alone.  The mass matrix is
    ``disc.mass``.  An eps below the floor runs, since the floor is
    sufficient for coercivity but not necessary, with a ``UserWarning`` that
    names eps, the floor and their ratio.
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
        # empty: its parts are made on the first call of at, not at set-up
        self._stiffness = _Stiffness(disc, self.eps)

    def at(self, t):
        """``(A, F)``: the stiffness data on the CSR pattern of ``disc``, the
        previous array object while the operator samples are bit-equal to the
        kept ones (:meth:`_Stiffness.at`), and the load vector at ``t``, which
        samples f and g alone and reuses the Dirichlet edge terms of A.  A
        non-finite sample of mu, b, c, f or g raises :class:`ConfigError`.
        """
        coefficients = _operator_coefficients(self.disc, self.problem, t)
        A, dirichlet = self._stiffness.at(coefficients, t)
        return A, _load_from(self.disc, self.problem, dirichlet, t)
