"""Assembly of the mass matrix, the penalized stiffness matrix, and the load.

A :class:`Discretization` precomputes, once per (space, mesh, quadrature)
triple, the basis tables at all volume and boundary-edge quadrature points
together with the mapped geometry data, and the mass matrix and the V_h
Gram on first use.
The tables are tensor products of per-span 1-D B-spline tables, built by
:func:`~nitsche_iga.geometry.tensor_product`; the edge points, weights and
normals come from :func:`~nitsche_iga.geometry.edge_geometry`, the same
routine that measures h_E.  The assembly routines are then plain einsum
contractions over those tables, scattered into CSR in a fixed element
order, so repeated assemblies (one per time step) are cheap and bitwise
reproducible.

The stiffness form contains five families of terms: the volume form
(diffusion, advection, reaction), the boundary flux term, its transpose
(symmetrization), the one-sided inflow term restricted to quadrature
points where b . n < 0, and the eps/h_E boundary penalty.
"""

from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import NotSPD, SingularGram
from .geometry import edge_geometry, invert_2x2, tensor_product
from .linalg import generalized_symmetric_eig
from .quadrature import gauss_rule
from .splines import eval_basis_many

PENALTY_FACTOR_DEFAULT = 1.25


def _physical_gradients(d1, d2, inv_jac):
    """Physical gradients (..., nloc, 2) from the parametric partial
    derivatives ``d1``, ``d2`` (..., nloc) and J^-1 (..., 2, 2)."""
    return np.einsum("xqlb,xqba->xqla", np.stack([d1, d2], axis=-1), inv_jac)


class ElementCache:
    """Mapped basis data at the volume quadrature points of every element.

    Arrays: ``x`` (ne, nq, 2) physical points, ``w`` (ne, nq) physical
    weights, ``B`` (ne, nq, nloc) values, ``G`` (ne, nq, nloc, 2) physical
    gradients, ``gidx`` (ne, nloc) global indices.  Elements run with
    direction 1 fastest; quadrature points and local functions, (l1, l2),
    with direction 2 fastest.
    """

    def __init__(self, space, mesh, q):
        ns1, ns2 = space.num_spans
        s1, s2 = np.tile(np.arange(ns1), ns2), np.repeat(np.arange(ns2), ns1)
        ne, nq = len(s1), q * q

        # per direction, the 1-D tables of each element's span: Gauss points
        # and weights (ne, q), first nonzero function (ne,), values and first
        # derivatives (ne, q, 2, k+1)
        rule = gauss_rule(q)
        per_direction = []
        for kv, spans in ((space.kv1, s1), (space.kv2, s2)):
            bps = kv.mesh.breakpoints
            pts, wts = rule.mapped(bps[:-1, None], bps[1:, None])
            first, ders = eval_basis_many(kv, pts.ravel(), 1)
            ders = ders.reshape(kv.num_spans, q, 2, -1)[spans]
            per_direction.append((pts[spans], wts[spans], first[::q][spans], ders))
        (p1, w1, f1, d1), (p2, w2, f2, d2) = per_direction

        x_hat = np.empty((ne, nq, 2))
        x_hat[..., 0] = np.repeat(p1, q, axis=1)
        x_hat[..., 1] = np.tile(p2, (1, q))
        w_hat = np.repeat(w1, q, axis=1) * np.tile(w2, (1, q))

        x, J, detj = mesh.geometry.evaluate_many(x_hat.reshape(-1, 2))
        invJ, _ = invert_2x2(J.reshape(ne, nq, 2, 2))
        tables = tensor_product(d1[:, :, None], d2[:, None], ((0, 0), (1, 0), (0, 1)))
        self.B, B1, B2 = (t.reshape(ne, nq, -1) for t in tables)
        self.x = x.reshape(ne, nq, 2)
        self.w = w_hat * np.abs(detj.reshape(ne, nq))
        self.G = _physical_gradients(B1, B2, invJ)
        self.gidx = space.local_to_global(f1, f2)

    def field_values(self, coef):
        return np.einsum("eql,el->eq", self.B, coef[self.gidx])

    def field_grads(self, coef):
        return np.einsum("eqla,el->eqa", self.G, coef[self.gidx])


class EdgeCache:
    """Mapped basis data at the quadrature points of every boundary edge.

    ``w`` carries the arc-length measure; ``B``/``G`` are the owner
    element's local basis values and physical gradients at the edge points,
    with the owner's local index order, so edge blocks scatter with the
    owner's ``gidx``.
    """

    def __init__(self, space, mesh, q):
        edges = mesh.edges
        nf = len(edges)
        self.h_E = np.array([e.h_E for e in edges])
        self.owner = np.array([e.owner for e in edges], dtype=int)
        x_hat, self.x, invJ, self.w, self.normal = edge_geometry(
            mesh.geometry, edges, gauss_rule(q)
        )

        # the owner's basis at the edge points, each distinct coordinate
        # evaluated once: on half of the edges a direction is fixed at 0 or 1
        def owner_basis(kv, coords):
            distinct, inverse = np.unique(coords, return_inverse=True)
            first, ders = eval_basis_many(kv, distinct, 1)
            return first[inverse].reshape(nf, q), ders[inverse].reshape(nf, q, 2, -1)

        f1, d1 = owner_basis(space.kv1, x_hat[..., 0].ravel())
        f2, d2 = owner_basis(space.kv2, x_hat[..., 1].ravel())
        self.B, B1, B2 = tensor_product(d1, d2, ((0, 0), (1, 0), (0, 1)))
        self.G = _physical_gradients(B1, B2, invJ)
        self.gidx = space.local_to_global(f1[:, 0], f2[:, 0])

    def field_values(self, coef):
        return np.einsum("fql,fl->fq", self.B, coef[self.gidx])


class Discretization:
    """Space, mesh, and quadrature bundled with their basis caches.

    ``quadrature_order`` is the Gauss points per direction on elements and
    edges alike; it defaults to the largest degree plus two.
    """

    def __init__(self, space, mesh, quadrature_order=None):
        if quadrature_order is None:
            quadrature_order = max(space.degrees) + 2
        self.space = space
        self.mesh = mesh
        self.quadrature_order = quadrature_order
        self.elements = ElementCache(space, mesh, quadrature_order)
        self.boundary = EdgeCache(space, mesh, quadrature_order)

    @property
    def dimension(self):
        return self.space.dimension

    @cached_property
    def mass(self):
        """The mass matrix, assembled on first use."""
        return assemble_mass(self)

    @cached_property
    def vh_gram(self):
        """The Gram matrix of the V_h norm, assembled on first use."""
        return assemble_vh_gram(self)


def _scatter(blocks, gidx, dim):
    ne, ni, nj = blocks.shape
    rows = np.broadcast_to(gidx[:, :, None], (ne, ni, nj))
    cols = np.broadcast_to(gidx[:, None, :], (ne, ni, nj))
    mat = sp.coo_matrix(
        (blocks.ravel(), (rows.ravel(), cols.ravel())), shape=(dim, dim)
    ).tocsr()
    mat.sum_duplicates()
    mat.sort_indices()
    return mat


def assemble_mass(disc):
    """Mass matrix M_ij = (N_j, N_i) over the physical domain."""
    ec = disc.elements
    blocks = np.einsum("eq,eqi,eqj->eij", ec.w, ec.B, ec.B)
    return _scatter(blocks, ec.gidx, disc.dimension)


def _coefficients_at(points, func, t):
    flat = points.reshape(-1, 2)
    vals = func(flat[:, 0], flat[:, 1], t)
    return np.asarray(vals).reshape(points.shape[:-1] + np.shape(vals)[1:])


def inflow_mask(disc, p, t):
    """Boolean mask (nedge, nq): edge quadrature points with b . n < 0."""
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


def _stiffness_from(disc, coefficients, eps):
    """Stiffness matrix from the sampled :func:`_operator_coefficients`."""
    if eps <= 0:
        raise ValueError("penalty parameter must be positive")
    ec, bc = disc.elements, disc.boundary
    dim = disc.dimension
    mu, bv, cv, mu_e, bn = coefficients

    blocks = np.einsum("eq,eqab,eqjb,eqia->eij", ec.w, mu, ec.G, ec.G)
    blocks += np.einsum("eq,eqa,eqja,eqi->eij", ec.w, bv, ec.G, ec.B)
    blocks += np.einsum("eq,eq,eqj,eqi->eij", ec.w, cv, ec.B, ec.B)
    A = _scatter(blocks, ec.gidx, dim)

    flux = np.einsum("fqa,fqab,fqjb->fqj", bc.normal, mu_e, bc.G)
    C = np.einsum("fq,fqj,fqi->fij", bc.w, flux, bc.B)
    wbn = bc.w * np.where(bn < 0.0, bn, 0.0)
    edge_blocks = -C - np.transpose(C, (0, 2, 1))
    edge_blocks -= np.einsum("fq,fqj,fqi->fij", wbn, bc.B, bc.B)
    edge_blocks += (eps / bc.h_E)[:, None, None] * np.einsum(
        "fq,fqj,fqi->fij", bc.w, bc.B, bc.B
    )
    A = A + _scatter(edge_blocks, bc.gidx, dim)
    A.sort_indices()
    return A


def assemble_stiffness(disc, p, eps, t):
    """Penalized stiffness A_ij = form(t; trial N_j, test N_i).

    Row index is the test function.  All five term families are included;
    the inflow term is restricted pointwise to quadrature points where the
    advection field enters the domain at time ``t``.
    """
    return _stiffness_from(disc, _operator_coefficients(disc, p, t), eps)


def assemble_load(disc, p, eps, t):
    """Load vector F_i = (f, N_i) plus the g-weighted boundary families."""
    if eps <= 0:
        raise ValueError("penalty parameter must be positive")
    ec, bc = disc.elements, disc.boundary
    F = np.zeros(disc.dimension)

    fv = _coefficients_at(ec.x, p.f, t)
    np.add.at(F, ec.gidx, np.einsum("eq,eq,eqi->ei", ec.w, fv, ec.B))

    gv = _coefficients_at(bc.x, p.g, t)
    mu_e = _coefficients_at(bc.x, p.mu, t)
    flux = np.einsum("fqa,fqab,fqib->fqi", bc.normal, mu_e, bc.G)
    mask, bn = inflow_mask(disc, p, t)
    wbn = bc.w * np.where(mask, bn, 0.0)
    contrib = -np.einsum("fq,fq,fqi->fi", bc.w, gv, flux)
    contrib -= np.einsum("fq,fq,fqi->fi", wbn, gv, bc.B)
    contrib += (eps / bc.h_E)[:, None] * np.einsum("fq,fq,fqi->fi", bc.w, gv, bc.B)
    np.add.at(F, bc.gidx, contrib)
    return F


def assemble_functional(disc, func):
    """Vector of volume integrals (func, N_i); func takes (x, y) arrays."""
    ec = disc.elements
    flat = ec.x.reshape(-1, 2)
    fv = np.asarray(func(flat[:, 0], flat[:, 1])).reshape(ec.w.shape)
    F = np.zeros(disc.dimension)
    np.add.at(F, ec.gidx, np.einsum("eq,eq,eqi->ei", ec.w, fv, ec.B))
    return F


def assemble_vh_gram(disc):
    """Gram matrix of the stability norm: H1 inner product plus the
    h_E^-1-weighted boundary mass."""
    ec, bc = disc.elements, disc.boundary
    blocks = np.einsum("eq,eqi,eqj->eij", ec.w, ec.B, ec.B)
    blocks += np.einsum("eq,eqia,eqja->eij", ec.w, ec.G, ec.G)
    G = _scatter(blocks, ec.gidx, disc.dimension)
    edge_blocks = (1.0 / bc.h_E)[:, None, None] * np.einsum(
        "fq,fqj,fqi->fij", bc.w, bc.B, bc.B
    )
    return G + _scatter(edge_blocks, bc.gidx, disc.dimension)


def trace_constant(disc):
    """Sharp discrete constant of the scaled edge-flux trace inequality.

    For each boundary edge: largest generalized eigenvalue of the pair
    (h_E * edge flux Gram, owner-element H1-seminorm Gram), both restricted
    to the owner's local basis with the constant mode deflated (both Grams
    vanish on constants by partition of unity).  Returns the max over edges.
    """
    ec, bc = disc.elements, disc.boundary
    nloc = ec.B.shape[2]
    ones = np.ones(nloc) / np.sqrt(nloc)
    Z = _orthonormal_complement(ones)

    worst = 0.0
    for f in range(len(bc.h_E)):
        ng = np.einsum("qa,qla->ql", bc.normal[f], bc.G[f])
        T = bc.h_E[f] * np.einsum("q,qi,qj->ij", bc.w[f], ng, ng)
        e = bc.owner[f]
        S = np.einsum("q,qia,qja->ij", ec.w[e], ec.G[e], ec.G[e])
        Tr = Z.T @ T @ Z
        Sr = Z.T @ S @ Z
        try:
            vals = generalized_symmetric_eig((Tr + Tr.T) / 2, (Sr + Sr.T) / 2)
        except NotSPD:
            raise SingularGram(
                f"element seminorm Gram singular beyond constants on edge {f}"
            ) from None
        worst = max(worst, float(vals[-1]))
    return worst


def _orthonormal_complement(v):
    n = len(v)
    full = np.eye(n) - np.outer(v, v)
    q, r = np.linalg.qr(full)
    keep = np.abs(np.diag(r)) > 1e-12
    return q[:, keep]


def penalty_floor(disc, p):
    """Smallest admissible penalty: 2 * C_trace * mu1^2 / alpha, with
    alpha = min(mu0, c0) from the problem metadata."""
    if p.alpha <= 0:
        raise ValueError("alpha = min(mu0, c0) must be positive")
    return 2.0 * trace_constant(disc) * p.mu1**2 / p.alpha


class AssembledForms:
    """Stiffness and load factories for one discretized problem.

    Resolves the penalty parameter (absolute ``epsilon`` or a
    ``epsilon_factor`` multiple of the computed floor; exactly one may be
    given, default factor 1.25) and caches the last stiffness matrix with
    the operator inputs it was assembled from.  The mass matrix is
    ``disc.mass``.
    """

    def __init__(self, disc, p, epsilon=None, epsilon_factor=None):
        if epsilon is not None and epsilon_factor is not None:
            raise ValueError("set epsilon or epsilon_factor, not both")
        self.disc = disc
        self.problem = p
        self.floor = penalty_floor(disc, p)
        if epsilon is not None:
            self.eps = float(epsilon)
        else:
            factor = PENALTY_FACTOR_DEFAULT if epsilon_factor is None else epsilon_factor
            self.eps = factor * self.floor
        self._stiffness = (None, None)  # (coefficient bytes, matrix)

    def stiffness(self, t):
        """Stiffness at ``t``: the previous matrix object when the operator
        coefficients are bit-equal to those it was assembled from.

        The coefficients are sampled once and serve both the comparison
        and, when they changed, the assembly.
        """
        coefficients = _operator_coefficients(self.disc, self.problem, t)
        inputs = tuple((a.shape, a.dtype.str, a.tobytes()) for a in coefficients)
        if inputs != self._stiffness[0]:
            A = _stiffness_from(self.disc, coefficients, self.eps)
            self._stiffness = (inputs, A)
        return self._stiffness[1]

    def load(self, t):
        return assemble_load(self.disc, self.problem, self.eps, t)
