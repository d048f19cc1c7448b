"""Sparse direct solves and the dense generalized eigensolver used by audits.

The backward-Euler matrices are nonsymmetric (advection plus the one-sided
inflow term), so the solve path is sparse LU with a residual postcondition;
a failed factorization surfaces as :class:`SingularMatrix`, a violated
residual bound as :class:`ConvergenceFailure`.  Dense eigenproblems only
ever appear in analysis-time audits on coarse meshes.
"""

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .errors import ConvergenceFailure, NotSPD, SingularMatrix

# residual bound of a solve, relative to ||A||_F ||x|| + ||b||
RESIDUAL_RTOL = 1e-10
# relative residual above which a solve takes one step of iterative refinement
REFINE_RTOL = 1e-12


class SparseFactor:
    """LU factorization of a square sparse matrix, reused across right-hand sides.

    Postcondition of :meth:`solve`:
    ||Ax - b|| <= RESIDUAL_RTOL * (||A||_F ||x|| + ||b||).
    """

    def __init__(self, matrix):
        n, m = matrix.shape
        if n != m:
            raise ValueError(f"matrix must be square, got shape {matrix.shape}")
        self.matrix = matrix.tocsr()
        self._norm = spla.norm(self.matrix, "fro")
        try:
            self._lu = spla.splu(self.matrix.tocsc())
        except RuntimeError as exc:
            raise SingularMatrix(str(exc)) from None

    def solve(self, rhs):
        if np.shape(rhs) != (self.matrix.shape[0],):
            raise ValueError(f"rhs shape {np.shape(rhs)} does not match {self.matrix.shape}")
        x = self._lu.solve(rhs)
        if not np.all(np.isfinite(x)):
            raise SingularMatrix("factorization produced non-finite values")
        scale = self._norm * np.linalg.norm(x) + np.linalg.norm(rhs)
        r = rhs - self.matrix @ x
        if np.linalg.norm(r) > REFINE_RTOL * scale:
            x = x + self._lu.solve(r)  # one step of iterative refinement
            r = rhs - self.matrix @ x
        if np.linalg.norm(r) > RESIDUAL_RTOL * scale:
            raise ConvergenceFailure(
                f"residual {np.linalg.norm(r):.3e} exceeds bound for scale {scale:.3e}"
            )
        return x


def generalized_symmetric_eig(A, B):
    """Eigenvalues (ascending) of A v = lambda B v for symmetric A, SPD B.

    B is reduced by Cholesky to a standard symmetric problem; a failed
    Cholesky raises :class:`NotSPD`.  Each returned pair is verified
    against the residual bound ||A v - lambda B v|| <= 1e-8 ||A||.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    try:
        np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        raise NotSPD("right-hand matrix is not symmetric positive definite") from None
    vals, vecs = scipy.linalg.eigh(A, B)
    norm_a = np.linalg.norm(A, 2)
    resid = A @ vecs - B @ vecs * vals[None, :]
    worst = np.abs(resid).max(axis=0).max() if A.size else 0.0
    if worst > 1e-8 * max(norm_a, 1e-300):
        raise ConvergenceFailure(
            f"eigenpair residual {worst:.3e} exceeds 1e-8 * ||A|| = {1e-8 * norm_a:.3e}"
        )
    return vals
