"""Tensor-product spline spaces, the NURBS geometry map, and the physical mesh.

The solution space is a plain tensor B-spline space on the parametric unit
square; the geometry map F may be rational (NURBS).  Trial and test
functions are the parametric B-splines composed with the inverse map, so
assembly only ever needs parametric basis tables plus Jacobians of F.

Refinement rebuilds the solution knot vectors (uniform span bisection) and
leaves F untouched: the geometry stays exact on every level.
"""

import importlib.resources

import numpy as np

from . import quadrature
from .errors import DegenerateJacobian, IndexOutOfRange, UnknownCase
from .splines import (
    eval_basis_many,
    parse_knot_vector,
    uniform_open_knots,
    validate_knots,
)

JAC_FLOOR = 1e-10

# Arc lengths of (possibly curved) boundary edges use a fixed 5-point rule:
# exact for straight edges, ample for the shipped conic arcs.
EDGE_LENGTH_POINTS = 5

SIDES = ("x0", "x1", "y0", "y1")


class TensorSpace:
    """Bivariate tensor-product B-spline space.

    Global index g and multi-index (i1, i2) are related lexicographically
    with direction 1 fastest: g = i1 + n1 * i2.
    """

    def __init__(self, kv1, kv2):
        self.kv1 = kv1
        self.kv2 = kv2
        self.shape = (kv1.dimension, kv2.dimension)
        self.dimension = kv1.dimension * kv2.dimension
        self.degrees = (kv1.degree, kv2.degree)

    @property
    def num_spans(self):
        return (self.kv1.num_spans, self.kv2.num_spans)

    @property
    def max_span_width(self):
        """Largest parametric span width over both directions (the study h)."""
        return max(self.kv1.mesh.widths.max(), self.kv2.mesh.widths.max())

    def global_index(self, i1, i2):
        n1, n2 = self.shape
        if not (0 <= i1 < n1 and 0 <= i2 < n2):
            raise IndexOutOfRange(f"multi-index ({i1}, {i2}) outside {self.shape}")
        return i1 + n1 * i2

    def multi_index(self, g):
        n1, _ = self.shape
        if not 0 <= g < self.dimension:
            raise IndexOutOfRange(f"global index {g} outside 0..{self.dimension - 1}")
        return g % n1, g // n1

    def greville_grid(self):
        """Parametric Greville points, shape (dimension, 2), global ordering."""
        g1 = self.kv1.greville()
        g2 = self.kv2.greville()
        p1, p2 = np.meshgrid(g1, g2, indexing="ij")
        return np.column_stack([p1.ravel(order="F"), p2.ravel(order="F")])

    def bisected(self):
        return TensorSpace(self.kv1.bisected(), self.kv2.bisected())

    def __repr__(self):
        return f"TensorSpace(degrees={self.degrees}, shape={self.shape})"


def build_tensor_space(kv1, kv2):
    """Tensor space over two validated knot vectors."""
    return TensorSpace(kv1, kv2)


def uniform_space(degree, num_spans):
    """Uniform open tensor space with the same degree and span count per direction."""
    return TensorSpace(
        uniform_open_knots(degree, num_spans), uniform_open_knots(degree, num_spans)
    )


class GeometryMap:
    """NURBS parametrization F of the physical domain.

    Control points live on the grid of a (usually coarse) tensor space;
    weights must be strictly positive.  With all weights equal to one the
    map degenerates to a plain B-spline parametrization.
    """

    def __init__(self, space, control_points, weights, jac_floor=JAC_FLOOR):
        control_points = np.asarray(control_points, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if control_points.shape != (space.dimension, 2):
            raise ValueError(
                f"expected {space.dimension} control points, got {control_points.shape}"
            )
        if weights.shape != (space.dimension,):
            raise ValueError("one weight per control point required")
        if np.any(weights <= 0):
            raise ValueError("weights must be strictly positive")
        self.space = space
        self.control_points = control_points
        self.weights = weights
        self.jac_floor = float(jac_floor)

    def evaluate(self, x_hat, nders=1):
        """Map one parametric point.

        Returns ``(x, J, detJ)`` for ``nders=1`` and ``(x, J, detJ, H)``
        with the Hessian ``H[c, a, b] = d^2 F_c / dx_a dx_b`` for ``nders=2``.
        """
        out = self.evaluate_many(np.asarray(x_hat, float)[None, :], nders)
        return tuple(a[0] for a in out)

    def evaluate_many(self, x_hat, nders=1):
        """Map an (m, 2) array of parametric points.

        Raises :class:`DegenerateJacobian` when any |det J| falls below the
        floor.
        """
        x_hat = np.asarray(x_hat, dtype=float)
        m = len(x_hat)
        n1, _ = self.space.shape
        k1, k2 = self.space.degrees

        first1, d1 = eval_basis_many(self.space.kv1, x_hat[:, 0], min(nders, k1))
        first2, d2 = eval_basis_many(self.space.kv2, x_hat[:, 1], min(nders, k2))
        d1 = _padded_many(d1, nders)
        d2 = _padded_many(d2, nders)

        i1 = first1[:, None] + np.arange(k1 + 1)[None, :]
        i2 = first2[:, None] + np.arange(k2 + 1)[None, :]
        # local index order (l1, l2) with l2 fastest
        gidx = (i1[:, :, None] + n1 * i2[:, None, :]).reshape(m, -1)
        wloc = self.weights[gidx]
        Ploc = self.control_points[gidx]

        def tensor(a, b):
            return (d1[:, a, :, None] * d2[:, b, None, :]).reshape(m, -1)

        B = tensor(0, 0)
        Ba = tensor(1, 0)
        Bb = tensor(0, 1)
        W = np.einsum("ml,ml->m", wloc, B)
        Wa = np.einsum("ml,ml->m", wloc, Ba)
        Wb = np.einsum("ml,ml->m", wloc, Bb)
        Wc = W[:, None]
        N = wloc * B / Wc
        Na = wloc * (Ba * Wc - B * Wa[:, None]) / Wc**2
        Nb = wloc * (Bb * Wc - B * Wb[:, None]) / Wc**2
        x = np.einsum("ml,mlc->mc", N, Ploc)
        J = np.empty((m, 2, 2))
        J[:, :, 0] = np.einsum("ml,mlc->mc", Na, Ploc)
        J[:, :, 1] = np.einsum("ml,mlc->mc", Nb, Ploc)

        H = None
        if nders >= 2:
            Baa = tensor(2, 0)
            Bab = tensor(1, 1)
            Bbb = tensor(0, 2)
            Waa = np.einsum("ml,ml->m", wloc, Baa)[:, None]
            Wab = np.einsum("ml,ml->m", wloc, Bab)[:, None]
            Wbb = np.einsum("ml,ml->m", wloc, Bbb)[:, None]
            Wac = Wa[:, None]
            Wbc = Wb[:, None]
            Naa = wloc * (Baa / Wc - (2 * Ba * Wac + B * Waa) / Wc**2
                          + 2 * B * Wac * Wac / Wc**3)
            Nab = wloc * (Bab / Wc - (Ba * Wbc + Bb * Wac + B * Wab) / Wc**2
                          + 2 * B * Wac * Wbc / Wc**3)
            Nbb = wloc * (Bbb / Wc - (2 * Bb * Wbc + B * Wbb) / Wc**2
                          + 2 * B * Wbc * Wbc / Wc**3)
            H = np.empty((m, 2, 2, 2))
            H[:, :, 0, 0] = np.einsum("ml,mlc->mc", Naa, Ploc)
            H[:, :, 0, 1] = np.einsum("ml,mlc->mc", Nab, Ploc)
            H[:, :, 1, 0] = H[:, :, 0, 1]
            H[:, :, 1, 1] = np.einsum("ml,mlc->mc", Nbb, Ploc)

        detj = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
        if np.any(np.abs(detj) < self.jac_floor):
            worst = float(np.min(np.abs(detj)))
            raise DegenerateJacobian(
                f"|det J| = {worst:.3e} below floor {self.jac_floor:.1e}"
            )
        if nders >= 2:
            return x, J, detj, H
        return x, J, detj


def _padded_many(ders, nders):
    """Derivative tables (m, d, k+1) padded with zero rows up to order ``nders``."""
    if ders.shape[1] >= nders + 1:
        return ders
    out = np.zeros((ders.shape[0], nders + 1, ders.shape[2]))
    out[:, : ders.shape[1]] = ders
    return out


def eval_geometry(gm, x_hat):
    """Physical point, Jacobian, and det J of the geometry map at ``x_hat``."""
    return gm.evaluate(x_hat, nders=1)


class BoundaryEdge:
    """One boundary edge: the image of a side span of the parametric mesh."""

    __slots__ = ("index", "side", "interval", "owner", "h_E", "fixed_coord")

    def __init__(self, index, side, interval, owner, h_E):
        self.index = index
        self.side = side
        self.interval = interval
        self.owner = owner
        self.h_E = h_E
        self.fixed_coord = 0.0 if side in ("x0", "y0") else 1.0

    def param_point(self, s):
        """Parametric point for the edge parameter s in [0, 1].

        An array of parameters gives one point per parameter along the
        last axis.
        """
        a, b = self.interval
        t = a + (b - a) * np.asarray(s, dtype=float)
        fixed = np.full_like(t, self.fixed_coord)
        if self.side in ("x0", "x1"):
            return np.stack([fixed, t], axis=-1)
        return np.stack([t, fixed], axis=-1)


class PhysicalMesh:
    """Image of the solution-space parametric mesh under the geometry map.

    Holds element boxes and sizes h_K, the boundary edge list with arc
    lengths h_E and unique owner elements, and the measured constant of the
    edge-to-element size comparison (max over edges of h_{K_E} / h_E).
    """

    def __init__(self, geometry, space, elements, h_K, edges, detj_sign):
        self.geometry = geometry
        self.space = space
        self.elements = elements
        self.h_K = h_K
        self.edges = edges
        self.detj_sign = detj_sign
        self.h = float(h_K.max())
        self.edge_size_constant = max(
            h_K[e.owner] / e.h_E for e in edges
        )

    @property
    def num_elements(self):
        return len(self.elements)

    def element_box(self, e):
        if not 0 <= e < self.num_elements:
            raise IndexOutOfRange(f"element {e} outside 0..{self.num_elements - 1}")
        return self.elements[e]

    def element_span_indices(self, e):
        ns1, _ = self.space.num_spans
        return e % ns1, e // ns1

    def edge_normal(self, edge, s):
        return outward_normal(self, edge, s)


def build_mesh(gm, space, sample_q=None):
    """Build the physical mesh for a solution space over a geometry map.

    One element per nonzero knot-span box.  h_K is the sampled sup of the
    Jacobian spectral norm over the element (quadrature points plus
    corners) times the box diameter; h_E is the quadrature arc length of
    the mapped side span.  det J is checked for a uniform sign.  The
    geometry is evaluated in one call over the samples of all elements
    and one over the quadrature points of all edges.
    """
    if sample_q is None:
        sample_q = max(space.degrees) + 2
    kv1, kv2 = space.kv1, space.kv2
    ns1, ns2 = space.num_spans

    elements = []
    for s2 in range(1, ns2 + 1):
        for s1 in range(1, ns1 + 1):
            elements.append(
                (kv1.mesh.span_interval(s1), kv2.mesh.span_interval(s2))
            )

    pts, _ = quadrature.tensor_rule(sample_q)
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    samples = np.vstack([pts, corners])

    boxes = np.array(elements)  # (ne, 2, 2): [direction, (start, end)]
    lo, width = boxes[:, :, 0], boxes[:, :, 1] - boxes[:, :, 0]
    x_hat = lo[:, None, :] + width[:, None, :] * samples[None, :, :]
    _, J, detj = gm.evaluate_many(x_hat.reshape(-1, 2))
    sign = np.sign(detj[0])
    if np.any(np.sign(detj) != sign):
        raise DegenerateJacobian("det J changes sign across the mesh")
    grad_norm = np.linalg.norm(J, ord=2, axis=(1, 2)).reshape(len(elements), -1)
    h_K = grad_norm.max(axis=1) * np.hypot(width[:, 0], width[:, 1])

    rule = quadrature.gauss_rule(EDGE_LENGTH_POINTS)
    edges, x_hat, ws = [], [], []
    for side in SIDES:
        tang_kv = kv2 if side in ("x0", "x1") else kv1
        for n in range(1, tang_kv.num_spans + 1):
            a, b = tang_kv.mesh.span_interval(n)
            owner = _owner_element(side, n, ns1, ns2)
            edge = BoundaryEdge(len(edges), side, (a, b), owner, h_E=0.0)
            ts, w = rule.mapped(a, b)
            x_hat.append(edge.param_point((ts - a) / (b - a)))
            ws.append(w)
            edges.append(edge)
    _, J, _ = gm.evaluate_many(np.concatenate(x_hat))
    J = J.reshape(len(edges), EDGE_LENGTH_POINTS, 2, 2)
    along_dir2 = np.array([e.side in ("x0", "x1") for e in edges])
    tang = np.where(along_dir2[:, None, None], J[..., 1], J[..., 0])
    h_E = np.sum(np.array(ws) * np.linalg.norm(tang, axis=2), axis=1)
    for edge, h in zip(edges, h_E):
        edge.h_E = float(h)

    return PhysicalMesh(gm, space, elements, h_K, edges, sign)


def _owner_element(side, n, ns1, ns2):
    if side == "x0":
        return 0 + ns1 * (n - 1)
    if side == "x1":
        return (ns1 - 1) + ns1 * (n - 1)
    if side == "y0":
        return (n - 1) + ns1 * 0
    return (n - 1) + ns1 * (ns2 - 1)


def outward_normal(mesh, edge, s):
    """Unit outward normal of a boundary edge at edge parameter ``s``.

    The normal direction is the appropriate row of the inverse Jacobian
    (gradient of the frozen parametric coordinate), oriented outward.
    """
    if isinstance(edge, int):
        edge = mesh.edges[edge]
    x_hat = edge.param_point(s)
    _, J, detj = mesh.geometry.evaluate(x_hat)
    return _normal_from_jacobian(J[None, :, :], np.array([detj]), edge.side)[0]


def _normal_from_jacobian(J, detj, side):
    """Outward normals for a batch of Jacobians on a given side."""
    inv = np.empty_like(J)
    inv[:, 0, 0] = J[:, 1, 1]
    inv[:, 0, 1] = -J[:, 0, 1]
    inv[:, 1, 0] = -J[:, 1, 0]
    inv[:, 1, 1] = J[:, 0, 0]
    inv /= detj[:, None, None]
    row = {"x0": 0, "x1": 0, "y0": 1, "y1": 1}[side]
    orient = -1.0 if side in ("x0", "y0") else 1.0
    n = orient * inv[:, row, :]
    return n / np.linalg.norm(n, axis=1)[:, None]


# -- shipped geometries and the plain-text file format -----------------------

def parse_geometry(text):
    """Parse the geometry file format.

    Lines (``#`` comments allowed)::

        degrees: k1 k2
        knots1: k1; xi_1 ... xi_r1
        knots2: k2; xi_1 ... xi_r2
        <x y w>            one control point per line, direction-1 fastest

    """
    header = {}
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" in line:
            key, _, val = line.partition(":")
            header[key.strip()] = val.strip()
        else:
            rows.append([float(t) for t in line.split()])
    for key in ("degrees", "knots1", "knots2"):
        if key not in header:
            raise ValueError(f"geometry file is missing the '{key}' line")
    degrees = [int(t) for t in header["degrees"].split()]
    kv1 = parse_knot_vector(header["knots1"])
    kv2 = parse_knot_vector(header["knots2"])
    if [kv1.degree, kv2.degree] != degrees:
        raise ValueError("degrees line disagrees with the knot vector headers")
    space = TensorSpace(kv1, kv2)
    if len(rows) != space.dimension or any(len(r) != 3 for r in rows):
        raise ValueError(
            f"expected {space.dimension} 'x y w' rows, got {len(rows)}"
        )
    arr = np.array(rows)
    return GeometryMap(space, arr[:, :2], arr[:, 2])


def load_geometry(name_or_path):
    """Load a geometry by builtin name (square, quarter_annulus) or file path."""
    res = importlib.resources.files("nitsche_iga") / "geometries" / f"{name_or_path}.txt"
    if res.is_file():
        return parse_geometry(res.read_text())
    try:
        with open(name_or_path) as fh:
            return parse_geometry(fh.read())
    except FileNotFoundError:
        raise UnknownCase(
            f"geometry {name_or_path!r} is neither a builtin name nor a readable file"
        ) from None
