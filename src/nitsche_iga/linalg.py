"""Sparse direct solves and the dense generalized symmetric eigensolver.

The backward-Euler matrices are nonsymmetric (advection plus the one-sided
inflow term), so the solve path is sparse LU with a residual postcondition;
a failed factorization surfaces as :class:`SingularMatrix`, a violated
residual bound as :class:`ConvergenceFailure`.  Every matrix the solver
factors lies on the one CSR pattern of its discretization, so its
fill-reducing order is computed once with the pattern
(:class:`PatternOrder`) and each LU factors the permuted matrix without an
ordering search.  Dense generalized eigenproblems appear in every set-up,
as one stack of small per-edge pairs for the trace constant, and in the
coercivity audit, as one pair of the size of the space.
"""

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ConvergenceFailure, NotSPD, SingularMatrix

# residual bound of a solve, relative to ||A||_F ||x|| + ||b||
RESIDUAL_RTOL = 1e-10
# relative residual above which a solve takes one step of iterative refinement
REFINE_RTOL = 1e-12


class PatternOrder:
    """A symmetric permutation P of one square CSR pattern (``indptr``,
    ``indices``), with the CSC pattern of P A P^T.

    ``perm[i]`` is the old index of new index i, so that (P A P^T)[i, j] =
    A[perm[i], perm[j]].  ``_gather`` (int32) takes the data of a CSR matrix
    on the pattern to the CSC data of P A P^T, whose row indices ascend in
    each column; ``perm`` must be a permutation (``ValueError``).
    """

    def __init__(self, perm, indptr, indices):
        n = len(indptr) - 1
        self.perm = np.asarray(perm)
        if not np.array_equal(np.sort(self.perm), np.arange(n)):
            raise ValueError(f"perm is not a permutation of 0..{n - 1}")
        self.indptr, self.indices = indptr, indices
        # The rows of A taken in the new order, with their columns renumbered,
        # are P A P^T in CSR but for the order within each row; converting
        # them to CSC, a counting sort, puts the rows of each column in order.
        # Each entry carries its position on the pattern as its value.
        inverse = np.empty(n, dtype=np.int32)
        inverse[self.perm] = np.arange(n)
        lengths = np.diff(indptr)[self.perm]
        start = np.cumsum(lengths, dtype=np.int32) - lengths
        entry = np.repeat(indptr[self.perm] - start, lengths)
        entry += np.arange(len(indices), dtype=np.int32)
        rows = (entry, inverse[indices[entry]], np.append(start, len(indices)))
        csc = sp.csr_matrix(rows, shape=(n, n)).tocsc()
        self._gather, self._csc_indices, self._csc_indptr = csc.data, csc.indices, csc.indptr

    def fits(self, matrix):
        """Whether the CSR ``matrix`` lies on this order's pattern."""
        return np.array_equal(matrix.indptr, self.indptr) and np.array_equal(
            matrix.indices, self.indices
        )

    def permuted(self, data):
        """P A P^T in CSC for the matrix A with ``data`` on the pattern."""
        n = len(self.perm)
        csc = (data[self._gather], self._csc_indices, self._csc_indptr)
        return sp.csc_matrix(csc, shape=(n, n))


class SparseFactor:
    """LU factorization of a square sparse matrix, reused across right-hand sides.

    ``order`` is the :class:`PatternOrder` of the matrix's pattern; a matrix
    on another pattern raises ``ValueError``.  SuperLU factors P A P^T in
    its natural order with partial pivoting, and the right-hand side and the
    solution are permuted in and out.

    Postcondition of :meth:`solve`:
    ||Ax - b|| <= RESIDUAL_RTOL * (||A||_F ||x|| + ||b||); a bound that
    overflows raises :class:`ConvergenceFailure` too.
    """

    def __init__(self, matrix, order):
        n, m = matrix.shape
        if n != m:
            raise ValueError(f"matrix must be square, got shape {matrix.shape}")
        self.matrix = matrix.tocsr()
        if not order.fits(self.matrix):
            raise ValueError("matrix is not on the pattern of its order")
        self._perm = order.perm
        self._norm = spla.norm(self.matrix, "fro")
        try:
            self._lu = spla.splu(order.permuted(self.matrix.data), permc_spec="NATURAL")
        except RuntimeError as exc:
            raise SingularMatrix(str(exc)) from None

    def _lu_solve(self, rhs):
        x = np.empty(len(rhs))
        x[self._perm] = self._lu.solve(rhs[self._perm])
        return x

    def solve(self, rhs):
        if np.shape(rhs) != (self.matrix.shape[0],):
            raise ValueError(f"rhs shape {np.shape(rhs)} does not match {self.matrix.shape}")
        rhs = np.asarray(rhs, dtype=float)
        x = self._lu_solve(rhs)
        if not np.all(np.isfinite(x)):
            raise SingularMatrix("factorization produced non-finite values")
        scale = self._norm * np.linalg.norm(x) + np.linalg.norm(rhs)
        if not np.isfinite(scale):
            # an infinite bound would pass any residual
            msg = f"residual bound overflows: ||A||_F ||x|| + ||b|| = {scale:.3e}"
            raise ConvergenceFailure(msg)
        r = rhs - self.matrix @ x
        if np.linalg.norm(r) > REFINE_RTOL * scale:
            x = x + self._lu_solve(r)  # one step of iterative refinement
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
