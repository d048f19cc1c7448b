"""Gauss-Legendre rules on [0, 1].

A rule depends on its point count alone, so :func:`gauss_rule` computes each
one once per process and hands out the same object on every later call; its
arrays are read-only, so no caller can change the rule that the others get.
"""

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import UnsupportedOrder

MAX_POINTS = 16


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and weights on the reference interval [0, 1]."""

    points: np.ndarray
    weights: np.ndarray

    @property
    def order(self):
        return len(self.points)

    def mapped(self, a, b):
        """Nodes and weights on [a, b]."""
        return a + (b - a) * self.points, (b - a) * self.weights


@cache
def gauss_rule(q):
    """Gauss-Legendre rule with ``q`` points on [0, 1].

    numpy's ``leggauss`` rule on [-1, 1], mapped to [0, 1]: its nodes are
    the eigenvalues of the symmetric Jacobi matrix of the Legendre
    recurrence (Golub and Welsch, Math. Comp. 1969), refined by one Newton
    step, accurate to machine precision; the rule integrates polynomials up
    to degree 2q-1 exactly.  Memoized: one rule per point count in
    1..``MAX_POINTS``, with read-only ``points`` and ``weights``; any other
    ``q`` raises :class:`UnsupportedOrder` on every call.
    """
    if not 1 <= q <= MAX_POINTS:
        raise UnsupportedOrder(f"point count must be in 1..{MAX_POINTS}, got {q}")
    x, w = np.polynomial.legendre.leggauss(q)
    points, weights = (x + 1.0) / 2.0, w / 2.0
    points.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(points=points, weights=weights)
