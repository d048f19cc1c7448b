"""Assembly of the mass matrix, the penalized stiffness matrix, and the load.

A :class:`Discretization` precomputes, once per (space, mesh, quadrature)
triple, the basis tables at all volume and boundary-edge quadrature points
together with the mapped geometry data.  The assembly routines are then
plain einsum contractions over those tables, scattered into CSR in a fixed
element order, so repeated assemblies (one per time step) are cheap and
bitwise reproducible.

The stiffness form contains five families of terms: the volume form
(diffusion, advection, reaction), the boundary flux term, its transpose
(symmetrization), the one-sided inflow term restricted to quadrature
points where b . n < 0, and the eps/h_E boundary penalty.
"""

import numpy as np
import scipy.sparse as sp

from .errors import NotSPD, SingularGram
from .linalg import generalized_symmetric_eig
from .quadrature import gauss_rule
from .splines import eval_basis_many

PENALTY_FACTOR_DEFAULT = 1.25


def _univariate_tables(kv, q, max_deriv):
    """Per-span basis tables at mapped Gauss points.

    Returns (points, weights, first_index, ders) with shapes
    (ns, q), (ns, q), (ns,), and (ns, q, max_deriv+1, k+1).
    """
    bps = kv.mesh.breakpoints
    pts, wts = gauss_rule(q).mapped(bps[:-1, None], bps[1:, None])
    first, ders = eval_basis_many(kv, pts.ravel(), max_deriv)
    return pts, wts, first[::q], ders.reshape(kv.num_spans, q, max_deriv + 1, -1)


def _invert_2x2(J):
    det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    inv = np.empty_like(J)
    inv[..., 0, 0] = J[..., 1, 1]
    inv[..., 0, 1] = -J[..., 0, 1]
    inv[..., 1, 0] = -J[..., 1, 0]
    inv[..., 1, 1] = J[..., 0, 0]
    return inv / det[..., None, None], det


class ElementCache:
    """Mapped basis data at the volume quadrature points of every element.

    Arrays: ``x`` (ne, nq, 2) physical points, ``w`` (ne, nq) physical
    weights, ``B`` (ne, nq, nloc) values, ``G`` (ne, nq, nloc, 2) physical
    gradients, ``gidx`` (ne, nloc) global indices.  Local index order is
    (l1, l2) with l2 fastest, matching the flattened quadrature order.
    """

    def __init__(self, space, mesh, q):
        kv1, kv2 = space.kv1, space.kv2
        k1, k2 = space.degrees
        n1 = space.shape[0]
        ns1, ns2 = space.num_spans
        p1, w1, f1, d1 = _univariate_tables(kv1, q, 1)
        p2, w2, f2, d2 = _univariate_tables(kv2, q, 1)
        self._tables = (p1, w1, f1, d1, p2, w2, f2, d2)

        s1 = np.tile(np.arange(ns1), ns2)
        s2 = np.repeat(np.arange(ns2), ns1)
        ne = ns1 * ns2
        nq = q * q
        nloc = (k1 + 1) * (k2 + 1)

        # tensor products; C-order flattening (second factor fastest)
        V1, D1 = d1[s1, :, 0, :], d1[s1, :, 1, :]
        V2, D2 = d2[s2, :, 0, :], d2[s2, :, 1, :]
        B = (V1[:, :, None, :, None] * V2[:, None, :, None, :]).reshape(ne, nq, nloc)
        Ghat = np.empty((ne, nq, nloc, 2))
        Ghat[..., 0] = (D1[:, :, None, :, None] * V2[:, None, :, None, :]).reshape(ne, nq, nloc)
        Ghat[..., 1] = (V1[:, :, None, :, None] * D2[:, None, :, None, :]).reshape(ne, nq, nloc)

        x_hat = np.empty((ne, nq, 2))
        x_hat[..., 0] = np.repeat(p1[s1], q, axis=1)
        x_hat[..., 1] = np.tile(p2[s2], (1, q))
        w_hat = np.repeat(w1[s1], q, axis=1) * np.tile(w2[s2], (1, q))

        x, J, detj = mesh.geometry.evaluate_many(x_hat.reshape(-1, 2))
        self.x = x.reshape(ne, nq, 2)
        J = J.reshape(ne, nq, 2, 2)
        invJ, _ = _invert_2x2(J)
        self.w = w_hat * np.abs(detj.reshape(ne, nq))
        self.B = B
        self.G = np.einsum("eqlb,eqba->eqla", Ghat, invJ)

        l1 = np.repeat(np.arange(k1 + 1), k2 + 1)
        l2 = np.tile(np.arange(k2 + 1), k1 + 1)
        self.gidx = (f1[s1][:, None] + l1[None, :]) + n1 * (
            f2[s2][:, None] + l2[None, :]
        )
        self.space = space
        self.mesh = mesh
        self.q = q
        self._x_hat = x_hat
        self._invJ = invJ
        self._Ghat = Ghat
        self._hess = None

    @property
    def num_elements(self):
        return self.B.shape[0]

    def field_values(self, coef):
        return np.einsum("eql,el->eq", self.B, coef[self.gidx])

    def field_grads(self, coef):
        return np.einsum("eqla,el->eqa", self.G, coef[self.gidx])

    def second_derivatives(self):
        """Physical second derivatives of the basis, shape (ne, nq, nloc, 2, 2).

        Chain rule through the geometry map:
        D2u = J^-T (D2u_hat - sum_c (grad u)_c D2F_c) J^-1.
        """
        if self._hess is not None:
            return self._hess
        space = self.space
        k1, k2 = space.degrees
        ne, nq, nloc = self.B.shape
        kv1, kv2 = space.kv1, space.kv2
        ns1, _ = space.num_spans
        q = self.q
        _, _, _, d1 = _univariate_tables(kv1, q, min(2, k1))
        _, _, _, d2 = _univariate_tables(kv2, q, min(2, k2))

        def row(d, order):
            if order < d.shape[2]:
                return d[:, :, order, :]
            return np.zeros_like(d[:, :, 0, :])

        s1 = np.tile(np.arange(ns1), ne // ns1)
        s2 = np.repeat(np.arange(ne // ns1), ns1)

        def tensor(a, b):
            A = row(d1, a)[s1]
            Bb = row(d2, b)[s2]
            return (A[:, :, None, :, None] * Bb[:, None, :, None, :]).reshape(ne, nq, nloc)

        Hhat = np.empty((ne, nq, nloc, 2, 2))
        Hhat[..., 0, 0] = tensor(2, 0)
        Hhat[..., 0, 1] = tensor(1, 1)
        Hhat[..., 1, 0] = Hhat[..., 0, 1]
        Hhat[..., 1, 1] = tensor(0, 2)

        _, _, _, FH = self.mesh.geometry.evaluate_many(
            self._x_hat.reshape(-1, 2), nders=2
        )
        FH = FH.reshape(ne, nq, 2, 2, 2)
        corr = Hhat - np.einsum("eqlc,eqcab->eqlab", self.G, FH)
        self._hess = np.einsum(
            "eqba,eqlbc,eqcd->eqlad", self._invJ, corr, self._invJ
        )
        return self._hess


class EdgeCache:
    """Mapped basis data at the quadrature points of every boundary edge.

    ``w`` carries the arc-length measure; ``B``/``G`` are the owner
    element's local basis values and physical gradients at the edge points,
    with the owner's local index order, so edge blocks scatter with the
    owner's ``gidx``.
    """

    def __init__(self, space, mesh, q):
        from .geometry import SIDES, _normal_from_jacobian

        k1, k2 = space.degrees
        n1 = space.shape[0]
        rule = gauss_rule(q)
        edges = mesh.edges
        nloc = (k1 + 1) * (k2 + 1)
        nf = len(edges)
        self.h_E = np.array([e.h_E for e in edges])
        self.owner = np.array([e.owner for e in edges], dtype=int)

        x_hat = np.stack([e.param_point(rule.points) for e in edges])
        widths = np.array([b - a for a, b in (e.interval for e in edges)])
        sides = np.array([e.side for e in edges])
        along_dir2 = np.isin(sides, ("x0", "x1"))

        x, J, detj = mesh.geometry.evaluate_many(x_hat.reshape(-1, 2))
        self.x = x.reshape(nf, q, 2)
        J = J.reshape(nf, q, 2, 2)
        detj = detj.reshape(nf, q)
        tang = np.where(along_dir2[:, None, None], J[..., 1], J[..., 0])
        self.w = widths[:, None] * rule.weights * np.linalg.norm(tang, axis=2)
        self.normal = np.empty((nf, q, 2))
        for side in SIDES:
            on = sides == side
            self.normal[on] = _normal_from_jacobian(
                J[on].reshape(-1, 2, 2), detj[on].ravel(), side
            ).reshape(-1, q, 2)

        # the owner's basis at the edge points, each distinct coordinate
        # evaluated once: on half of the edges a direction is fixed at 0 or 1
        def owner_basis(kv, coords):
            distinct, inverse = np.unique(coords, return_inverse=True)
            first, ders = eval_basis_many(kv, distinct, 1)
            return first[inverse].reshape(nf, q), ders[inverse].reshape(nf, q, 2, -1)

        f1, d1 = owner_basis(space.kv1, x_hat[..., 0].ravel())
        f2, d2 = owner_basis(space.kv2, x_hat[..., 1].ravel())
        v1, g1 = d1[:, :, 0, :, None], d1[:, :, 1, :, None]
        v2, g2 = d2[:, :, 0, None, :], d2[:, :, 1, None, :]
        self.B = (v1 * v2).reshape(nf, q, nloc)
        Ghat = np.empty((nf, q, nloc, 2))
        Ghat[..., 0] = (g1 * v2).reshape(nf, q, nloc)
        Ghat[..., 1] = (v1 * g2).reshape(nf, q, nloc)
        invJ, _ = _invert_2x2(J)
        self.G = np.einsum("fqlb,fqba->fqla", Ghat, invJ)

        l1 = np.repeat(np.arange(k1 + 1), k2 + 1)
        l2 = np.tile(np.arange(k2 + 1), k1 + 1)
        self.gidx = (f1[:, :1] + l1) + n1 * (f2[:, :1] + l2)

    def field_values(self, coef):
        return np.einsum("fql,fl->fq", self.B, coef[self.gidx])


class Discretization:
    """Space, mesh, and quadrature bundled with their basis caches."""

    def __init__(self, space, mesh, qvol=None, qedge=None):
        k = max(space.degrees)
        self.space = space
        self.mesh = mesh
        self.qvol = qvol if qvol is not None else k + 2
        self.qedge = qedge if qedge is not None else k + 2
        self.elements = ElementCache(space, mesh, self.qvol)
        self.boundary = EdgeCache(space, mesh, self.qedge)

    @property
    def dimension(self):
        return self.space.dimension


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


def penalty_floor(disc, p, alpha=None):
    """Smallest admissible penalty: 2 * C_trace * mu1^2 / alpha.

    ``alpha`` defaults to min(mu0, c0) from the problem metadata.
    """
    if alpha is None:
        alpha = p.alpha
    if alpha <= 0:
        raise ValueError("alpha = min(mu0, c0) must be positive")
    return 2.0 * trace_constant(disc) * p.mu1**2 / alpha


class AssembledForms:
    """Mass, stiffness, and load factories for one discretized problem.

    Resolves the penalty parameter (absolute ``epsilon`` or a
    ``epsilon_factor`` multiple of the computed floor; exactly one may be
    given, default factor 1.25) and caches the mass matrix, the stability
    Gram, and the last stiffness matrix with the operator inputs it was
    assembled from.
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
        self._mass = None
        self._gram = None
        self._stiffness = (None, None)  # (coefficient bytes, matrix)

    @property
    def mass(self):
        if self._mass is None:
            self._mass = assemble_mass(self.disc)
        return self._mass

    @property
    def vh_gram(self):
        if self._gram is None:
            self._gram = assemble_vh_gram(self.disc)
        return self._gram

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
