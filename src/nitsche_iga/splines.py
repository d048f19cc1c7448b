"""Univariate B-spline machinery on [0,1].

Knot vectors are validated open sequences (end knots repeated degree+1
times).  Basis values and derivatives come from the triangular recursion
(NURBS Book Alg. A2.3), which by construction only forms the degree+1
functions that can be nonzero on the selected span, so every denominator is
a strictly positive knot difference; the 0/0 convention of the textbook
recursion never has to be resolved by floating point.

:func:`eval_basis_many` is the one evaluation path: it finds the span of
every point with one ``searchsorted`` and runs the recursion once over the
whole array of points.  :func:`eval_basis` is its one-point case.

Span selection is half-open: x in [z_{n-1}, z_n) belongs to span n, except
x = 1 which belongs to the last span (values there are the left limits).
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    ExcessMultiplicity,
    IndexOutOfRange,
    NotNondecreasing,
    NotOpen,
    OutOfDomain,
)

MAX_DEGREE = 4

# Adjacent span ratios above this trigger a warning; graded meshes are legal
# but hurt the interpolation constants.
THETA_WARN = 10.0


@dataclass(frozen=True)
class BreakpointMesh1D:
    """Distinct knots of a knot vector with their multiplicities.

    ``breakpoints[n-1] .. breakpoints[n]`` is span ``n`` (1-based, matching
    the usual numbering of the ``N`` nonzero spans).
    """

    breakpoints: np.ndarray
    multiplicities: np.ndarray
    widths: np.ndarray

    @property
    def num_spans(self):
        return len(self.widths)

    def span_interval(self, n):
        if not 1 <= n <= self.num_spans:
            raise IndexOutOfRange(f"span index {n} not in 1..{self.num_spans}")
        return self.breakpoints[n - 1], self.breakpoints[n]


class KnotVector:
    """A validated open knot vector of a given degree.

    Use :func:`validate_knots` (or :func:`parse_knot_vector` for the text
    form ``"k; x1 x2 ... xr"``) instead of calling the constructor with
    unchecked data.
    """

    def __init__(self, knots, degree):
        self.knots = np.asarray(knots, dtype=float)
        self.degree = int(degree)
        bps, mults = _breakpoints_of(self.knots)
        self.mesh = BreakpointMesh1D(bps, mults, np.diff(bps))
        self.theta = _mesh_ratio(self.mesh.widths)
        # knot index of the left end of each nonzero span: position of the
        # last copy of each breakpoint except the final one
        cum = np.cumsum(mults)
        self._span_knot_index = cum[:-1] - 1

    @property
    def dimension(self):
        """Number of basis functions, r - k - 1."""
        return len(self.knots) - self.degree - 1

    @property
    def num_spans(self):
        return self.mesh.num_spans

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

    def greville(self):
        """Greville abscissae, averages of k consecutive interior knots."""
        k = self.degree
        return np.array(
            [self.knots[i + 1:i + k + 1].mean() for i in range(self.dimension)]
        )

    def bisected(self):
        """New knot vector with every nonzero span split at its midpoint.

        Inserted midpoints get multiplicity one (maximal smoothness there);
        existing interior multiplicities are preserved.
        """
        mesh = self.mesh
        knots = [0.0] * (self.degree + 1)
        for n in range(1, mesh.num_spans + 1):
            a, b = mesh.span_interval(n)
            knots.append(0.5 * (a + b))
            if n < mesh.num_spans:
                knots.extend([b] * int(mesh.multiplicities[n]))
        knots.extend([1.0] * (self.degree + 1))
        return validate_knots(knots, self.degree)

    def __repr__(self):
        return f"KnotVector(degree={self.degree}, spans={self.num_spans})"


@dataclass(frozen=True)
class BasisEvaluation:
    """Values of the k+1 possibly nonzero basis functions at one point.

    ``ders[d, j]`` is the d-th derivative of function ``first_index + j``.
    """

    span: int
    first_index: int
    ders: np.ndarray

    @property
    def values(self):
        return self.ders[0]

    @property
    def first_derivs(self):
        return self.ders[1]

    @property
    def second_derivs(self):
        if self.ders.shape[0] < 3:
            raise IndexOutOfRange("second derivatives were not requested")
        return self.ders[2]


def _breakpoints_of(knots):
    bps = [knots[0]]
    mults = [1]
    for x in knots[1:]:
        if x == bps[-1]:
            mults[-1] += 1
        else:
            bps.append(x)
            mults.append(1)
    return np.array(bps), np.array(mults, dtype=int)


def _mesh_ratio(widths):
    if len(widths) < 2:
        return 1.0
    r = widths[:-1] / widths[1:]
    return float(max(r.max(), (1.0 / r).max()))


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
    if np.any(np.diff(knots) < 0):
        raise NotNondecreasing("knots must be nondecreasing")
    if knots[0] != 0.0 or knots[-1] != 1.0:
        raise NotOpen("knots must start at 0 and end at 1")
    bps, mults = _breakpoints_of(knots)
    if mults[0] != degree + 1 or mults[-1] != degree + 1:
        raise NotOpen(
            f"end knots must repeat exactly {degree + 1} times "
            f"(got {mults[0]} and {mults[-1]})"
        )
    if len(mults) > 2 and mults[1:-1].max() > degree + 1:
        raise ExcessMultiplicity(
            f"interior multiplicity exceeds {degree + 1}"
        )
    kv = KnotVector(knots, degree)
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
    """Open knot vector with ``num_spans`` equal spans and simple interior knots."""
    interior = np.linspace(0.0, 1.0, num_spans + 1)[1:-1]
    knots = np.concatenate(
        [np.zeros(degree + 1), interior, np.ones(degree + 1)]
    )
    return validate_knots(knots, degree)


def dimension(kv):
    """Number of basis functions of the space spanned on ``kv``."""
    return kv.dimension


def continuity_at(kv, n):
    """Continuous derivatives across interior breakpoint ``n``: degree - m_n."""
    if not 1 <= n <= kv.num_spans - 1:
        raise IndexOutOfRange(
            f"interior breakpoint index {n} not in 1..{kv.num_spans - 1}"
        )
    return kv.degree - int(kv.mesh.multiplicities[n])


def eval_basis(kv, x, max_deriv=1):
    """Evaluate the k+1 possibly nonzero basis functions at ``x``.

    Parameters
    ----------
    kv : KnotVector
    x : float in [0, 1]
    max_deriv : int
        Highest derivative order to return, at most the degree.

    Returns
    -------
    BasisEvaluation
    """
    first, ders = eval_basis_many(kv, [x], max_deriv)
    first = int(first[0])
    return BasisEvaluation(span=first + kv.degree, first_index=first, ders=ders[0])


def eval_basis_many(kv, xs, max_deriv=1):
    """Evaluate the k+1 possibly nonzero basis functions at every point of ``xs``.

    ``xs`` is a 1-d array of points in [0, 1].  Returns
    ``(first_indices, ders)`` with ``ders`` of shape
    ``(len(xs), max_deriv + 1, k + 1)``: ``ders[i, d, j]`` is the d-th
    derivative of function ``first_indices[i] + j`` at ``xs[i]``.

    Raises :class:`OutOfDomain` when any point lies outside [0, 1] (NaN
    included) and ``ValueError`` when ``max_deriv`` exceeds the degree.
    """
    k = kv.degree
    if not 0 <= max_deriv <= k:
        raise ValueError(f"max_deriv must be in 0..{k}, got {max_deriv}")
    xs = np.asarray(xs, dtype=float)
    mu = kv.span_of(xs)
    ders = _ders_basis_funs(kv.knots, mu, xs, k, max_deriv)
    return mu - k, ders


def _ders_basis_funs(knots, mu, x, k, nd):
    """Triangular-table values and derivatives of the nonzero functions.

    NURBS Book Alg. A2.3 run over all points at once: every scalar of the
    textbook recursion is an array over the points (last axis), so each
    point goes through the same floating-point operations in the same
    order as a one-point evaluation.  ``ndu`` holds the basis table in its
    upper triangle and the knot differences (all strictly positive for a
    valid span) in its lower triangle; derivative orders are accumulated
    with the alternating 'a' rows.
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

    ders = np.zeros((nd + 1, k + 1, m))
    ders[0] = ndu[:, k]

    a = np.empty((2, k + 1, m))
    for r in range(k + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for d in range(1, nd + 1):
            dval = 0.0
            rk = r - d
            pk = k - d
            if r >= d:
                a[s2, 0] = a[s1, 0] / ndu[pk + 1, rk]
                dval = a[s2, 0] * ndu[rk, pk]
            j1 = 1 if rk >= -1 else -rk
            j2 = d - 1 if r - 1 <= pk else k - r
            for j in range(j1, j2 + 1):
                a[s2, j] = (a[s1, j] - a[s1, j - 1]) / ndu[pk + 1, rk + j]
                dval += a[s2, j] * ndu[rk + j, pk]
            if r <= pk:
                a[s2, d] = -a[s1, d - 1] / ndu[pk + 1, r]
                dval += a[s2, d] * ndu[r, pk]
            ders[d, r] = dval
            s1, s2 = s2, s1

    fact = float(k)
    for d in range(1, nd + 1):
        ders[d] *= fact
        fact *= k - d
    return np.ascontiguousarray(ders.transpose(2, 0, 1))
