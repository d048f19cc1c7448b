"""A fixed reference computation that tells how fast the host runs right now.

On a shared host the speed of one core drifts by up to 2x, within a second
as well as over minutes, and every kind of work slows with it: a Python
loop, a small einsum and a sparse LU alike.  Raw phase times therefore
spread across runs far more than any bound worth having.  A
:class:`Pacer` times this reference work before, between and after the
phases of a repetition, and inside them whenever the solver enters or
leaves a layer's entry point and INTERVAL_S has passed since the last
sample.  Each stretch of solver time between two samples is scaled by

    NOMINAL_S / (mean of the two reference times around it)

so that a phase is reported in seconds on a host that does the reference
work in NOMINAL_S; the samples' own time is in no phase.

The reference work uses numpy, scipy and Python only, never the solver,
so a change to the solver moves the scaled times by the same factor as the
raw ones.  It mixes the kinds of work the solver does: interpreted loops,
many calls into numpy on tiny arrays, small dense products, sparse
factorizations with solves, and dense generalized eigenproblems.  The
scaling cancels only the drift that slows the solver and the reference
work alike; what is left shows as spread between runs.
"""

import functools
import time

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.sparse.linalg import splu

NOMINAL_S = 0.1
INTERVAL_S = 0.4

_rng = np.random.default_rng(20180323)
_BASIS = _rng.random((36, 9))
_WEIGHTS = _rng.random(36)
_N = 40
_LINE = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_N, _N))
_EYE = sp.identity(_N)
_MATRIX = (sp.kron(_LINE, _EYE) + sp.kron(_EYE, _LINE) + 0.1 * sp.identity(_N * _N)).tocsc()
_RHS = np.ones(_N * _N)
_DENSE = _rng.random((100, 100))
_DENSE = _DENSE @ _DENSE.T + 100 * np.eye(100)
_DENSE_MASS = np.eye(100) + 1e-4 * _DENSE


def reference_work():
    acc = 0
    counts = {}
    for i in range(75000):
        k = i % 97
        counts[k] = counts.get(k, 0) + i
        acc += i * k
    for _ in range(1500):
        np.einsum("qi,qj,q->ij", _BASIS, _BASIS, _WEIGHTS)
    for _ in range(15000):
        np.dot(_WEIGHTS, _WEIGHTS)
    for _ in range(10):
        splu(_MATRIX).solve(_RHS)
    for _ in range(20):
        scipy.linalg.eigh(_DENSE, _DENSE_MASS)
    return acc


class Pacer:
    """Reference samples taken between and inside the phases of repetitions.

    ``wrap`` has the signature of ``tracing.Tracer.wrap``, so that
    ``tracing.instrument(pacer)`` puts a sampling point at every entry
    point the tracer would trace.
    """

    def __init__(self):
        self.samples = []  # (start, end) of each reference sample

    def sample(self):
        """Time one ``reference_work`` now and keep it; return its seconds."""
        start = time.perf_counter()
        reference_work()
        end = time.perf_counter()
        self.samples.append((start, end))
        return end - start

    def _due(self):
        if not self.samples or time.perf_counter() - self.samples[-1][1] >= INTERVAL_S:
            self.sample()

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def paced(*args, **kwargs):
            self._due()
            try:
                return fn(*args, **kwargs)
            finally:
                self._due()

        return paced

    def seconds(self):
        return [end - start for start, end in self.samples]

    def _gaps(self, start, end):
        """(length, scale) of each stretch of [start, end] between two samples."""
        for (s0, e0), (s1, e1) in zip(self.samples, self.samples[1:]):
            lo, hi = max(e0, start), min(s1, end)
            if hi > lo:
                yield hi - lo, 2 * NOMINAL_S / ((e0 - s0) + (e1 - s1))

    def raw(self, start, end):
        """Seconds of [start, end] outside the samples."""
        return sum(length for length, _ in self._gaps(start, end))

    def scaled(self, start, end):
        """Seconds of [start, end] outside the samples, at nominal host speed."""
        return sum(length * scale for length, scale in self._gaps(start, end))
