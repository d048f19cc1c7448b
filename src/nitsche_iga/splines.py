"""Univariate B-spline machinery on [0,1].

Knot vectors are validated open sequences (end knots repeated degree+1
times).  A :class:`KnotVector` holds its own 1-D mesh: the distinct knots
(breakpoints), their multiplicities and the span widths, read off the
sorted knots in one vectorized pass.  Basis values and first derivatives
come from the triangular recursion (NURBS Book Alg. A2.3), which by
construction only forms the degree+1 functions that can be nonzero on the
selected span, so every denominator is a strictly positive knot
difference; the 0/0 convention of the textbook recursion never has to be
resolved by floating point.

:func:`eval_basis_many` is the one evaluation path: it finds the span of
every point with one ``searchsorted`` and runs the recursion once over the
whole array of points, and :func:`collocation` scatters its results into
dense matrices over the whole basis.

Span selection is half-open: x in [z_{n-1}, z_n) belongs to span n, except
x = 1 which belongs to the last span (values there are the left limits).
"""

import warnings

import numpy as np

from .errors import (
    ExcessMultiplicity,
    NotNondecreasing,
    NotOpen,
    OutOfDomain,
)

MAX_DEGREE = 4

# Adjacent span ratios above this trigger a warning; graded meshes are legal
# but hurt the interpolation constants.
THETA_WARN = 10.0


class KnotVector:
    """A validated open knot vector of a given degree.

    Holds its distinct knots ``breakpoints`` with their ``multiplicities``
    and the span ``widths``: ``breakpoints[n-1] .. breakpoints[n]`` is span
    ``n`` (1-based, matching the usual numbering of the ``N`` nonzero
    spans).  Use :func:`validate_knots` (or :func:`parse_knot_vector` for the
    text form ``"k; x1 x2 ... xr"``) instead of calling the constructor with
    unchecked data: the breakpoints are read off a nondecreasing sequence.
    """

    def __init__(self, knots, degree):
        self.knots = np.asarray(knots, dtype=float)
        self.degree = int(degree)
        # the first knot of each run of equal knots, and the run's length
        new = np.flatnonzero(np.diff(self.knots, prepend=np.nan) != 0)
        self.breakpoints = self.knots[new]
        self.multiplicities = np.diff(new, append=len(self.knots))
        self.widths = np.diff(self.breakpoints)
        # the mesh ratio: the largest ratio of adjacent widths, either way
        r = self.widths[:-1] / self.widths[1:]
        self.theta = float(max(r.max(initial=1.0), (1.0 / r).max(initial=1.0)))

    @property
    def dimension(self):
        """Number of basis functions, r - k - 1."""
        return len(self.knots) - self.degree - 1

    @property
    def num_spans(self):
        return len(self.widths)

    def span_of(self, x):
        """Knot index mu with knots[mu] <= x < knots[mu+1] (left limit at 1).

        Elementwise for an array ``x``; raises :class:`OutOfDomain` when
        any point lies outside [0, 1] or is NaN.
        """
        x = np.asarray(x, dtype=float)
        outside = ~((x >= 0.0) & (x <= 1.0))
        if np.any(outside):
            raise OutOfDomain(f"x = {x[outside][0]} outside [0, 1]")
        mu = np.searchsorted(self.knots, x, side="right") - 1
        return np.clip(mu, self.degree, self.dimension - 1)

    def __repr__(self):
        return f"KnotVector(degree={self.degree}, spans={self.num_spans})"


def validate_knots(knots, degree):
    """Validate a knot sequence and return the :class:`KnotVector`.

    Checks: nonempty and nondecreasing, range exactly [0,1], end knots
    repeated exactly degree+1 times, interior multiplicities at most
    degree+1.  The mesh ratio theta is computed and a warning is emitted
    when it exceeds ``THETA_WARN``.
    """
    knots = np.asarray(knots, dtype=float)
    degree = int(degree)
    if not 1 <= degree <= MAX_DEGREE:
        raise ValueError(f"degree must be in 1..{MAX_DEGREE}, got {degree}")
    if knots.ndim != 1 or len(knots) == 0:
        raise NotNondecreasing("knot sequence must be a nonempty 1-d sequence")
    # NaN compares false, so it fails this test
    if not np.all(np.diff(knots) >= 0):
        raise NotNondecreasing("knots must be nondecreasing (and not NaN)")
    if knots[0] != 0.0 or knots[-1] != 1.0:
        raise NotOpen("knots must start at 0 and end at 1")
    kv = KnotVector(knots, degree)
    mults = kv.multiplicities
    if mults[0] != degree + 1 or mults[-1] != degree + 1:
        raise NotOpen(
            f"end knots must repeat exactly {degree + 1} times "
            f"(got {mults[0]} and {mults[-1]})"
        )
    if len(mults) > 2 and mults[1:-1].max() > degree + 1:
        raise ExcessMultiplicity(
            f"interior multiplicity exceeds {degree + 1}"
        )
    if kv.theta > THETA_WARN:
        warnings.warn(
            f"knot vector is strongly graded (theta = {kv.theta:.3g})",
            stacklevel=2,
        )
    return kv


def parse_knot_vector(text):
    """Parse the plain-text form ``"k; x1 x2 ... xr"``."""
    head, _, tail = text.partition(";")
    if not tail:
        raise NotOpen(f"expected 'k; x1 x2 ... xr', got {text!r}")
    return validate_knots([float(t) for t in tail.split()], int(head))


def uniform_open_knots(degree, num_spans):
    """Open knot vector with ``num_spans`` equal spans and simple interior
    knots; ``ValueError`` unless ``num_spans`` is at least 1."""
    if not num_spans >= 1:
        raise ValueError(f"a knot vector needs at least one span, got {num_spans}")
    interior = np.linspace(0.0, 1.0, num_spans + 1)[1:-1]
    knots = np.concatenate(
        [np.zeros(degree + 1), interior, np.ones(degree + 1)]
    )
    return validate_knots(knots, degree)


def eval_basis_many(kv, xs):
    """Values and first derivatives of the k+1 possibly nonzero basis
    functions at every point of ``xs``.

    ``xs`` is a 1-d array of points in [0, 1].  Returns
    ``(first_indices, ders)`` with ``ders`` of shape (len(xs), 2, k + 1):
    ``ders[i, 0, j]`` is the value and ``ders[i, 1, j]`` the first
    derivative of function ``first_indices[i] + j`` at ``xs[i]``.

    Raises :class:`OutOfDomain` when any point lies outside [0, 1] (NaN
    included).
    """
    k = kv.degree
    xs = np.asarray(xs, dtype=float)
    mu = kv.span_of(xs)
    return mu - k, _ders_basis_funs(kv.knots, mu, xs, k)


def collocation(kv, ts):
    """Dense values and first derivatives of the whole basis at the points ``ts``.

    Returns C (2, len(ts), kv.dimension): ``C[d, i, j]`` is the d-th
    derivative of function j at ``ts[i]``, zero off the k+1 functions that
    can be nonzero there.
    """
    first, ders = eval_basis_many(kv, ts)
    C = np.zeros((2, len(first), kv.dimension))
    rows = np.arange(len(first))[:, None]
    C[:, rows, first[:, None] + np.arange(kv.degree + 1)] = ders.transpose(1, 0, 2)
    return C


def _ders_basis_funs(knots, mu, x, k):
    """Triangular-table values and first derivatives of the nonzero functions.

    NURBS Book Alg. A2.3 to first derivatives, run over all points at once:
    every scalar of the textbook recursion is an array over the points (last
    axis), so each point goes through the same floating-point operations in
    the same order as a one-point evaluation.  ``ndu`` holds the basis table
    in its upper triangle and the knot differences (all strictly positive
    for a valid span) in its lower triangle.  The derivative of function r
    is k (t[r-1] - t[r]) with t[j] = (1 / ndu[k, j]) ndu[j, k-1], the
    degree k-1 function j over its support width, and t = 0 outside
    0..k-1; this is A2.3's d = 1 pass operation for operation.
    """
    m = len(x)
    ndu = np.empty((k + 1, k + 1, m))
    left = np.empty((k + 1, m))
    right = np.empty((k + 1, m))
    ndu[0, 0] = 1.0
    for j in range(1, k + 1):
        left[j] = x - knots[mu + 1 - j]
        right[j] = knots[mu + j] - x
        saved = 0.0
        for r in range(j):
            ndu[j, r] = right[r + 1] + left[j - r]
            temp = ndu[r, j - 1] / ndu[j, r]
            ndu[r, j] = saved + right[r + 1] * temp
            saved = left[j - r] * temp
        ndu[j, j] = saved

    # t padded with a zero at each end: t[j] sits at row j + 1
    t = np.zeros((k + 2, m))
    t[1:-1] = (1.0 / ndu[k, :k]) * ndu[:k, k - 1]
    ders = np.empty((m, 2, k + 1))
    ders[:, 0] = ndu[:, k].T
    ders[:, 1] = (k * (t[:-1] - t[1:])).T
    return ders
