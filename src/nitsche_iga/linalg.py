"""Banded LU solves and the dense generalized symmetric eigensolver.

The backward-Euler matrices are nonsymmetric (advection plus the one-sided
inflow term), so the solve path is LU with partial pivoting and a residual
postcondition; a failed factorization surfaces as :class:`SingularMatrix`,
a violated residual bound as :class:`ConvergenceFailure`.  Every matrix the
solver factors lies on the one CSR pattern of its discretization, which in
the natural index order i1 + n1 i2 of a tensor-product space is a band
matrix of half-bandwidth k2 n1 + k1.  Its :class:`BandLayout` is read from
the pattern once, and each LU scatters the matrix's data into LAPACK's band
storage and factors it there (``dgbtrf``/``dgbtrs``), with no ordering
search, permutation or gather.  Dense generalized eigenproblems appear in
every set-up, as one stack of small per-edge pairs for the trace constant,
and in the coercivity audit, as one pair of the size of the space.
"""

import numpy as np
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import ConvergenceFailure, NotSPD, SingularMatrix

# residual bound of a solve, relative to ||A||_F ||x|| + ||b||
RESIDUAL_RTOL = 1e-10
# relative residual above which a solve takes one step of iterative refinement
REFINE_RTOL = 1e-12


class BandLayout:
    """LAPACK band storage of one square CSR pattern (``indptr``, ``indices``).

    ``kl`` and ``ku`` are the largest distances of an entry below and above
    the diagonal.  Entry (i, j) of an n x n matrix sits at row kl + ku + i - j
    of column j of the Fortran-ordered (2 kl + ku + 1, n) array that
    ``dgbtrf`` factors in place (its first kl rows hold the fill of the row
    interchanges); ``_slot`` holds, for each CSR entry, its position in that
    array read as a flat buffer.
    """

    def __init__(self, indptr, indices):
        self.indptr, self.indices = indptr, indices
        n = len(indptr) - 1
        rows = np.repeat(np.arange(n), np.diff(indptr))
        offset = rows - indices
        self.kl, self.ku = int(offset.max(initial=0)), int(-offset.min(initial=0))
        self.shape = (2 * self.kl + self.ku + 1, n)
        self._slot = self.kl + self.ku + offset + self.shape[0] * indices.astype(np.intp)

    def fits(self, matrix):
        """Whether the CSR ``matrix`` lies on this layout's pattern."""
        return np.array_equal(matrix.indptr, self.indptr) and np.array_equal(
            matrix.indices, self.indices
        )

    def band(self, data):
        """The band array, Fortran-ordered, of the matrix with ``data`` on the
        pattern."""
        rows, n = self.shape
        flat = np.zeros(rows * n)
        flat[self._slot] = data
        return flat.reshape(n, rows).T


class SparseFactor:
    """LU factorization of a square sparse matrix, reused across right-hand sides.

    ``layout`` is the :class:`BandLayout` of the matrix's pattern; a matrix
    on another pattern raises ``ValueError``.  LAPACK factors the band with
    partial pivoting in the pattern's natural order, at a cost of about
    n kl (kl + ku) flops and 8 n (2 kl + ku + 1) bytes.  That grows like
    n kl^2, faster than a sparse LU in a nested-dissection order: on the
    square with one BLAS thread (2-vCPU Xeon host), banded against SuperLU
    took 1.4 against 6.4 ms at 32 spans per direction, 11 against 36 ms at
    64 and 139 against 143 ms at 128 for k = 2, and 21 against 46 ms at 64
    for k = 3; another host put the crossover between 48 and 64 spans.

    Postcondition of :meth:`solve`:
    ||Ax - b|| <= RESIDUAL_RTOL * (||A||_F ||x|| + ||b||); a bound that
    overflows raises :class:`ConvergenceFailure` too.
    """

    def __init__(self, matrix, layout):
        n, m = matrix.shape
        if n != m:
            raise ValueError(f"matrix must be square, got shape {matrix.shape}")
        self.matrix = matrix.tocsr()
        if not layout.fits(self.matrix):
            raise ValueError("matrix is not on the pattern of its layout")
        self._kl, self._ku = layout.kl, layout.ku
        self._norm = spla.norm(self.matrix, "fro")
        self._lu, self._piv, info = dgbtrf(
            layout.band(self.matrix.data), self._kl, self._ku, overwrite_ab=1
        )
        if info > 0:
            raise SingularMatrix(f"matrix is singular: U({info}, {info}) is exactly zero")

    def _lu_solve(self, rhs):
        return dgbtrs(self._lu, self._kl, self._ku, rhs, self._piv)[0]

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
