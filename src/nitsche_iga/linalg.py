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
search, permutation or gather.  The dense generalized eigensolver, LAPACK's
``?sygvd`` by ``scipy.linalg.eigh``, solves one pair, the coercivity
audit's, of the size of the space, and checks its residuals; the trace
constant of every set-up reduces its per-edge pairs to small standard
problems itself and checks them against the same bound, ``EIG_RTOL``.
"""

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .errors import ConvergenceFailure, NotSPD, SingularMatrix

# residual bound of a solve, relative to ||A||_F ||x|| + ||b||
RESIDUAL_RTOL = 1e-10
# relative residual above which a solve takes one step of iterative refinement
REFINE_RTOL = 1e-12
# residual bound of a generalized eigenpair, relative to ||A||_2
EIG_RTOL = 1e-8


class BandLayout:
    """LAPACK band storage of one square CSR pattern (``indptr``, ``indices``).

    ``kl`` and ``ku`` are the largest distances of an entry below and above
    the diagonal.  Entry (i, j) of an n x n matrix sits at row kl + ku + i - j
    of column j of the Fortran-ordered (2 kl + ku + 1, n) array that
    ``dgbtrf`` factors in place (its first kl rows hold the fill of the row
    interchanges); ``_slot`` holds, for each CSR entry, its position in that
    array read as a flat buffer.  The columns of each row are sorted, so kl
    and ku are read from each row's first and last column, and ``_slot`` is
    filled one block of rows at a time
    (:func:`~nitsche_iga.assembly.block_slices`), with no temporary of the
    pattern's size.
    """

    def __init__(self, indptr, indices):
        from .assembly import block_slices  # the budget's module imports this one

        self.indptr, self.indices = indptr, indices
        n = len(indptr) - 1
        lengths = np.diff(indptr)
        nonempty = np.flatnonzero(lengths)
        below = nonempty - indices[indptr[nonempty]]
        above = indices[indptr[nonempty + 1] - 1] - nonempty
        self.kl, self.ku = int(below.max(initial=0)), int(above.max(initial=0))
        self.shape = (2 * self.kl + self.ku + 1, n)
        # entry (i, j) at kl + ku + i - j + h j, h = shape[0], a block of
        # rows i at a time
        self._slot = np.empty(len(indices), dtype=np.intp)
        for block in block_slices(n, 8 * int(lengths.max(initial=1))):
            entries = slice(indptr[block.start], indptr[block.stop])
            slot = self._slot[entries]
            np.multiply(indices[entries], self.shape[0] - 1, out=slot, dtype=np.intp)
            i = np.arange(block.start, block.stop)
            slot += np.repeat(i + self.kl + self.ku, lengths[block])

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


def _frobenius(data):
    """The 2-norm of ``data``, summed by numpy's pairwise sums of squares one
    block of entries at a time (:func:`~nitsche_iga.assembly.block_slices`),
    so that no temporary of the data's size is made.

    Not ``np.linalg.norm``: it calls BLAS ``ddot``, which OpenBLAS runs
    threaded on long arrays, and numpy's woken thread pool then spins against
    scipy's inside ``dgbtrf``.  A sequential sum, as ``einsum`` makes, erred
    by 1.3e-14 relative on the square's mass matrix at k = 3, 24 spans, the
    pairwise one by 1.3e-16 there, against the exact sum.
    """
    from .assembly import block_slices  # the budget's module imports this one

    total = 0.0
    for s in block_slices(len(data), data.itemsize):
        total += np.add.reduce(np.square(data[s]))
    return np.sqrt(total)


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
        self._norm = _frobenius(self.matrix.data)
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
    """Eigenvalues (ascending) of A v = lambda B v for one pair of (n, n)
    matrices, A symmetric and B SPD.

    One call of ``scipy.linalg.eigh(A, B)``, LAPACK's symmetric-definite
    driver ``?sygvd``, which reduces the pair by a Cholesky factorization of
    B; a B that is not positive definite raises :class:`NotSPD`.  Every
    returned pair is verified against the residual bound
    ||A v - lambda B v|| <= EIG_RTOL ||A||_2 (the largest residual entry of a
    B-normalized v), with ||A||_2 the largest |eigenvalue| of A; a violation
    raises :class:`ConvergenceFailure`.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    try:
        vals, V = scipy.linalg.eigh(A, B)
    except np.linalg.LinAlgError:
        raise NotSPD("right-hand matrix is not symmetric positive definite") from None

    norm_a = np.abs(np.linalg.eigvalsh(A)).max(initial=0.0)
    worst = np.abs(A @ V - (B @ V) * vals).max(initial=0.0)
    ratio = worst / (EIG_RTOL * max(norm_a, 1e-300))
    if ratio > 1.0:
        msg = f"eigenpair residual is {ratio:.3e} times its bound {EIG_RTOL:g} * ||A||"
        raise ConvergenceFailure(msg)
    return vals
