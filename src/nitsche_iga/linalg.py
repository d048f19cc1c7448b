"""Sparse direct solves and the dense generalized symmetric eigensolver.

The backward-Euler matrices are nonsymmetric (advection plus the one-sided
inflow term), so the solve path is sparse LU with a residual postcondition;
a failed factorization surfaces as :class:`SingularMatrix`, a violated
residual bound as :class:`ConvergenceFailure`.  Dense generalized
eigenproblems appear in every set-up, as one stack of small per-edge pairs
for the trace constant, and in the coercivity audit, as one pair of the
size of the space.
"""

import numpy as np
import scipy.sparse.linalg as spla

from .errors import ConvergenceFailure, NotSPD, SingularMatrix

# residual bound of a solve, relative to ||A||_F ||x|| + ||b||
RESIDUAL_RTOL = 1e-10
# relative residual above which a solve takes one step of iterative refinement
REFINE_RTOL = 1e-12


class SparseFactor:
    """LU factorization of a square sparse matrix, reused across right-hand sides.

    The columns are ordered by minimum degree on the pattern of A^T + A.
    Every matrix the solver factors (the mass matrix and M + tau A) lies on
    the structurally symmetric pattern of the element blocks, where this
    ordering fills less than COLAMD's, which orders for A^T A.

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
            self._lu = spla.splu(self.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
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

    ``A`` and ``B`` are one pair (n, n) or a stack of pairs (m, n, n); the
    values are (n,) or (m, n).  B is reduced by Cholesky, B = L L^T, to the
    standard symmetric problem of L^-1 A L^-T; a failed Cholesky of any
    member raises :class:`NotSPD`.  Every returned pair is verified against
    the residual bound ||A v - lambda B v|| <= 1e-8 ||A||_2 (the largest
    residual entry of a B-normalized v), with ||A||_2 the largest
    |eigenvalue| of A; a violation raises :class:`ConvergenceFailure`.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    try:
        L = np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        raise NotSPD("right-hand matrix is not symmetric positive definite") from None
    L_inv = np.linalg.inv(L)
    vals, W = np.linalg.eigh(L_inv @ A @ L_inv.swapaxes(-1, -2))
    V = L_inv.swapaxes(-1, -2) @ W

    norm_a = np.abs(np.linalg.eigvalsh(A)).max(axis=-1, initial=0.0)
    resid = A @ V - (B @ V) * vals[..., None, :]
    worst = np.abs(resid).max(axis=(-2, -1), initial=0.0)
    ratio = np.max(worst / (1e-8 * np.maximum(norm_a, 1e-300)))
    if ratio > 1.0:
        raise ConvergenceFailure(f"eigenpair residual is {ratio:.3e} times its bound 1e-8 * ||A||")
    return vals
