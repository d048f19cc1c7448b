"""Tensor-product spline spaces and the NURBS geometry map.

The solution space is a plain tensor B-spline space on the parametric unit
square; the geometry map F may be rational (NURBS).  Trial and test
functions are the parametric B-splines composed with the inverse map, so
assembly only ever needs parametric basis tables plus Jacobians of F.

Refinement builds a new solution space (:func:`uniform_space` at the
level's span count) and leaves F untouched: the geometry stays exact on
every level, and a level is fully given by its solution space over F.

Every sample set of F is a tensor grid of 1-D coordinates (element Gauss
points, breakpoints, edge points, plotting grids), so
:meth:`GeometryMap.evaluate_grid` is the one evaluation path.  It evaluates
each 1-D basis once per coordinate of a direction, not once per grid point,
and contracts the homogeneous control net with two dense matrix products per
derivative instead of gathering local weights and control points point by
point; x and J then follow from the quotient rule on the grid.

The pieces of assembly that serve the map live here once each:
:meth:`TensorSpace.local_to_global` indexes local bases, :func:`invert_2x2`
inverts Jacobians, and :func:`edge_geometry` maps the points of a rule on
the boundary edges (arc-length weights and outward normals).

There is no mesh object: the elements are the spans of the solution space,
and :class:`~nitsche_iga.assembly.EdgeCache` owns the edge topology.  During
set-up F is evaluated only by the assembly's caches: the element cache on
its Gauss grid (where it also checks the sign of det J) and the edge cache
on the boundary edges, which it forms from the breakpoints and where it
measures h_E, the only mesh size the scheme reads.
"""

import importlib.resources

import numpy as np

from .errors import ConfigError, DegenerateJacobian, UnknownCase
from .splines import collocation, parse_knot_vector, uniform_open_knots

# floor of |det J| for a control net whose bounding box has largest side 1;
# a map scaled by L has det J scaled by L^2, and its floor with it
JAC_FLOOR = 1e-10

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

    def local_to_global(self, first1, first2):
        """Global indices (..., nloc) of the local basis on spans whose first
        nonzero functions are ``first1``, ``first2``, in (l1, l2) local order
        with l2 fastest."""
        k1, k2 = self.degrees
        l1 = np.repeat(np.arange(k1 + 1), k2 + 1)
        l2 = np.tile(np.arange(k2 + 1), k1 + 1)
        return (first1[..., None] + l1) + self.shape[0] * (first2[..., None] + l2)

    def __repr__(self):
        return f"TensorSpace(degrees={self.degrees}, shape={self.shape})"


def uniform_space(degree, num_spans):
    """Uniform open tensor space with the same degree and span count per direction."""
    return TensorSpace(
        uniform_open_knots(degree, num_spans), uniform_open_knots(degree, num_spans)
    )


class GeometryMap:
    """NURBS parametrization F of the physical domain.

    Control points live on the grid of a (usually coarse) tensor space and
    must be finite and not all equal; weights must be finite and strictly
    positive.  With all weights equal to one the map degenerates to a plain
    B-spline parametrization.  ``jac_floor`` is ``JAC_FLOOR`` times the
    square of the largest side of the control points' bounding box, so a
    map and its scaled copies are refused alike.
    """

    def __init__(self, space, control_points, weights):
        control_points = np.asarray(control_points, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if control_points.shape != (space.dimension, 2):
            raise ValueError(
                f"expected {space.dimension} control points, got {control_points.shape}"
            )
        if weights.shape != (space.dimension,):
            raise ValueError("one weight per control point required")
        if not np.all(np.isfinite(control_points)):
            raise ValueError("control points must be finite")
        # NaN compares false, so it fails this test
        if not np.all((weights > 0) & (weights < np.inf)):
            raise ValueError("weights must be strictly positive and finite")
        size = float(np.ptp(control_points, axis=0).max())
        if size == 0.0:
            raise ValueError("control points must not all coincide")
        self.space = space
        self.control_points = control_points
        self.weights = weights
        self.jac_floor = JAC_FLOOR * size**2

    def evaluate_grid(self, t1, t2):
        """Map the tensor grid of parametric points ``t1`` x ``t2``.

        Returns ``(x, J, detJ)`` with shapes (m1, m2, 2), (m1, m2, 2, 2) and
        (m1, m2); entry [a, b] belongs to the point (t1[a], t2[b]).  Raises
        :class:`DegenerateJacobian` when any |det J| falls below
        ``jac_floor``.
        """
        C1 = collocation(self.space.kv1, t1)
        C2 = collocation(self.space.kv2, t2)
        # the homogeneous net (w x, w y, w) on the (i1, i2) grid of the space
        n1, n2 = self.space.shape
        net = np.vstack([self.control_points.T * self.weights, self.weights])
        net = net.reshape(3, n2, n1).swapaxes(1, 2)
        H, Ha, Hb = (C1[a] @ net @ C2[b].T for a, b in ((0, 0), (1, 0), (0, 1)))

        # quotient rule: x = H/W, dx = (H' - x W')/W
        W = H[2]
        x = H[:2] / W
        J = np.stack([(Ha[:2] - x * Ha[2]) / W, (Hb[:2] - x * Hb[2]) / W], axis=-1)
        x, J = np.moveaxis(x, 0, -1), np.moveaxis(J, 0, -2)

        detj = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
        if np.any(np.abs(detj) < self.jac_floor):
            worst = float(np.min(np.abs(detj)))
            raise DegenerateJacobian(f"|det J| = {worst:.3e} below floor {self.jac_floor:.1e}")
        return x, J, detj


def invert_2x2(J):
    """Inverses of a stack (..., 2, 2) of matrices."""
    det = J[..., 0, 0] * J[..., 1, 1] - J[..., 0, 1] * J[..., 1, 0]
    inv = np.empty_like(J)
    inv[..., 0, 0] = J[..., 1, 1]
    inv[..., 0, 1] = -J[..., 0, 1]
    inv[..., 1, 0] = -J[..., 1, 0]
    inv[..., 1, 1] = J[..., 0, 0]
    return inv / det[..., None, None]


def build_mesh(gm, space):
    """Return ``gm``: a discretization takes the geometry map itself.

    Kept only because the benchmark's workloads (``perfbench/workloads.py``)
    call ``Discretization(space, build_mesh(gm, space))``; the change that
    edits that file deletes this function.
    """
    return gm


def edge_geometry(gm, side, lo, hi, rule):
    """The geometry at the points of ``rule`` on the boundary edges given by
    the arrays ``side``, ``lo`` and ``hi`` (as held by
    :class:`~nitsche_iga.assembly.EdgeCache`).

    Returns ``(x_hat, x, J, w, normal)`` with shapes (nf, q, 2), (nf, q, 2),
    (nf, q, 2, 2), (nf, q) and (nf, q, 2): parametric and physical points,
    Jacobians, arc-length weights (span width times
    rule weight times the tangent length) and unit outward normals.  The
    normal is the row of J^-1 that is the gradient of the edge's fixed
    parametric coordinate, pointing away from the domain.  The parametric
    points of all edges are formed at once, lo + (hi - lo) * rule.points
    along each edge's span and the side's fixed coordinate (0 on x0 and y0,
    1 on x1 and y1) across it; the geometry is evaluated on one 1 x m or
    m x 1 grid per side: the side's fixed coordinate by the points of all
    its edges.
    """
    nf, q = len(side), rule.order
    lo, hi = lo[:, None], hi[:, None]
    fixed = np.where(np.isin(side, ("x0", "y0")), 0.0, 1.0)[:, None]
    along_dir2 = np.isin(side, ("x0", "x1"))[:, None]
    t = lo + (hi - lo) * rule.points
    x_hat = np.empty((nf, q, 2))
    x_hat[..., 0] = np.where(along_dir2, fixed, t)
    x_hat[..., 1] = np.where(along_dir2, t, fixed)

    x, J = np.empty((nf, q, 2)), np.empty((nf, q, 2, 2))
    for name in SIDES:
        on_side = np.flatnonzero(side == name)
        if name in ("x0", "x1"):
            xs, Js, _ = gm.evaluate_grid(fixed[on_side[0]], x_hat[on_side, :, 1].ravel())
        else:
            xs, Js, _ = gm.evaluate_grid(x_hat[on_side, :, 0].ravel(), fixed[on_side[0]])
        x[on_side] = xs.reshape(-1, q, 2)
        J[on_side] = Js.reshape(-1, q, 2, 2)
    inv_jac = invert_2x2(J)

    tang = np.where(along_dir2[..., None], J[..., 1], J[..., 0])
    w = (hi - lo) * rule.weights * np.linalg.norm(tang, axis=2)

    orient = np.where(fixed > 0, 1.0, -1.0)[..., None]
    normal = orient * np.where(along_dir2[..., None], inv_jac[..., 0, :], inv_jac[..., 1, :])
    normal /= np.linalg.norm(normal, axis=2)[..., None]
    return x_hat, x, J, w, normal


# -- shipped geometries and the plain-text file format -----------------------

def parse_geometry(text):
    """Parse the geometry file format.

    Lines (``#`` comments allowed)::

        degrees: k1 k2
        knots1: k1; xi_1 ... xi_r1
        knots2: k2; xi_1 ... xi_r2
        <x y w>            one control point per line, direction-1 fastest

    A header or row that does not parse, and a header key that is unknown
    or repeated, raises ``ValueError`` naming its line number.
    """
    header = {}
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" in line:
            key, _, val = line.partition(":")
            key = key.strip()
            if key not in ("degrees", "knots1", "knots2"):
                raise ValueError(f"line {lineno}: unknown header key '{key}'")
            if key in header:
                raise ValueError(f"line {lineno}: header key '{key}' repeats line {header[key][0]}")
            header[key] = (lineno, val.strip())
            continue
        try:
            x, y, w = (float(t) for t in line.split())
        except ValueError:
            raise ValueError(
                f"line {lineno}: expected three floats 'x y w', got {line!r}"
            ) from None
        rows.append([x, y, w])

    def parsed(key, parse):
        if key not in header:
            raise ValueError(f"geometry file is missing the '{key}' line")
        lineno, val = header[key]
        try:
            return parse(val)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: '{key}': {exc}") from None

    degrees = parsed("degrees", lambda val: [int(t) for t in val.split()])
    kv1 = parsed("knots1", parse_knot_vector)
    kv2 = parsed("knots2", parse_knot_vector)
    if [kv1.degree, kv2.degree] != degrees:
        raise ValueError("degrees line disagrees with the knot vector headers")
    space = TensorSpace(kv1, kv2)
    if len(rows) != space.dimension:
        raise ValueError(
            f"expected {space.dimension} 'x y w' rows, got {len(rows)}"
        )
    arr = np.array(rows)
    return GeometryMap(space, arr[:, :2], arr[:, 2])


def load_geometry(name_or_path):
    """Load a geometry by builtin name (square, quarter_annulus) or file path;
    a file that does not parse raises :class:`ConfigError`."""
    res = importlib.resources.files("nitsche_iga") / "geometries" / f"{name_or_path}.txt"
    if res.is_file():
        return parse_geometry(res.read_text())
    try:
        with open(name_or_path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError):
        raise UnknownCase(
            f"geometry {name_or_path!r} is neither a builtin name nor a readable file"
        ) from None
    try:
        return parse_geometry(text)
    except ValueError as exc:
        raise ConfigError(f"{name_or_path}: {exc}") from None
