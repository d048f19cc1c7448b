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

    Nodes are Newton-refined roots of the degree-q Legendre polynomial,
    accurate to machine precision; the rule integrates polynomials up to
    degree 2q-1 exactly.  Memoized: one rule per point count in
    1..``MAX_POINTS``, with read-only ``points`` and ``weights``; any other
    ``q`` raises :class:`UnsupportedOrder` on every call.
    """
    if not 1 <= q <= MAX_POINTS:
        raise UnsupportedOrder(f"point count must be in 1..{MAX_POINTS}, got {q}")
    i = np.arange(q)
    x = np.cos(np.pi * (i + 0.75) / (q + 0.5))
    for _ in range(60):
        p, dp = _legendre_and_derivative(q, x)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) < 1e-16:
            break
    _, dp = _legendre_and_derivative(q, x)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    order = np.argsort(x)
    points, weights = (x[order] + 1.0) / 2.0, w[order] / 2.0
    points.flags.writeable = weights.flags.writeable = False
    return QuadratureRule(points=points, weights=weights)


def _legendre_and_derivative(q, x):
    pm, p = np.ones_like(x), x.copy()
    for n in range(2, q + 1):
        pm, p = p, ((2 * n - 1) * x * p - (n - 1) * pm) / n
    dp = q * (x * p - pm) / (x * x - 1.0)
    return p, dp

