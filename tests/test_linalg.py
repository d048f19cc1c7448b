from functools import lru_cache

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from nitsche_iga import (
    AssembledForms,
    Discretization,
    TensorSpace,
    assembly,
    builtin_case,
    generalized_symmetric_eig,
    load_geometry,
)
from nitsche_iga.errors import ConvergenceFailure, NotSPD, SingularMatrix
from nitsche_iga.linalg import BandLayout, SparseFactor
from nitsche_iga.splines import uniform_open_knots

from conftest import make_disc


def dense_lu_solve(A, b):
    """Gaussian elimination with partial pivoting, written out longhand."""
    A = A.astype(float).copy()
    b = b.astype(float).copy()
    n = len(b)
    for col in range(n):
        pivot = col + np.argmax(np.abs(A[col:, col]))
        if A[pivot, col] == 0:
            raise ZeroDivisionError("singular")
        if pivot != col:
            A[[col, pivot]] = A[[pivot, col]]
            b[[col, pivot]] = b[[pivot, col]]
        for row in range(col + 1, n):
            m = A[row, col] / A[col, col]
            A[row, col:] -= m * A[col, col:]
            b[row] -= m * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - A[row, row + 1 :] @ x[row + 1 :]) / A[row, row]
    return x


def own_layout(A):
    """The band layout of the CSR pattern of ``A``."""
    A = A.tocsr()
    return BandLayout(A.indptr, A.indices)


def factor(A):
    return SparseFactor(A, own_layout(A))


def fill(lu):
    """Entries of SuperLU's L and U."""
    return lu.L.nnz + lu.U.nnz


def band_fill(factor):
    """Entries of a banded LU's L and U that are not exactly zero."""
    return np.count_nonzero(factor._lu)


def step_matrices(disc):
    """The mass matrix of a discretization and its backward-Euler matrix
    M + 0.1 A of ``steady_reaction``."""
    forms = AssembledForms(disc, builtin_case("steady_reaction").problem)
    return disc.mass, disc.mass + 0.1 * forms.at(0.0)[0]


@lru_cache(maxsize=None)
def step_matrix(geometry, degree, spans):
    """``(band, M, A)``: the band layout and mass matrix of a discretization
    and its :func:`step_matrices`."""
    disc = make_disc(load_geometry(geometry), degree, spans)
    return (disc.band, *step_matrices(disc))


def assert_solves_match_dense(band, matrices, rng):
    # the banded LU of each matrix against LAPACK's dense LU
    for M in matrices:
        b = rng.random(M.shape[0])
        x = SparseFactor(M, band).solve(b)
        x_ref = np.linalg.solve(M.toarray(), b)
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)


def jacobi_eigenvalues(C, sweeps=60, tol=1e-14):
    """Cyclic Jacobi rotations on a symmetric matrix; eigenvalues ascending."""
    C = C.astype(float).copy()
    n = C.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(C, -1) ** 2))
        if off < tol * np.linalg.norm(C):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if abs(C[p, q]) < 1e-300:
                    continue
                theta = 0.5 * np.arctan2(2 * C[p, q], C[q, q] - C[p, p])
                c, s = np.cos(theta), np.sin(theta)
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = s
                rot[q, p] = -s
                C = rot.T @ C @ rot
    return np.sort(np.diag(C))


class TestSolveSparse:
    def test_identity(self, rng):
        b = rng.random(10)
        x = factor(sp.eye(10, format="csr")).solve(b)
        assert np.allclose(x, b, atol=1e-15)

    def test_two_by_two(self):
        A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        x = factor(A).solve(np.array([3.0, 3.0]))
        assert np.allclose(x, [1.0, 1.0], atol=1e-14)

    def test_random_nonsymmetric_against_dense_lu(self, rng):
        n = 200
        base = rng.random((n, n))
        A_dense = base @ base.T + n * np.eye(n) + 0.3 * rng.random((n, n))
        A_dense[np.abs(A_dense) < 0.8] = 0.0  # sparsify off-diagonal
        np.fill_diagonal(A_dense, np.diag(base @ base.T) + n)
        b = rng.random(n)
        A = sp.csr_matrix(A_dense)
        x = factor(A).solve(b)
        x_ref = dense_lu_solve(A_dense, b)
        assert np.max(np.abs(x - x_ref)) < 1e-9 * max(1.0, np.abs(x_ref).max())

    def test_residual_postcondition(self, rng):
        n = 80
        A_dense = rng.random((n, n)) + n * np.eye(n)
        A = sp.csr_matrix(A_dense)
        b = rng.random(n)
        x = factor(A).solve(b)
        scale = sp.linalg.norm(A, "fro") * np.linalg.norm(x) + np.linalg.norm(b)
        assert np.linalg.norm(b - A @ x) <= 1e-10 * scale

    def test_singular_raises(self):
        A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        with pytest.raises(SingularMatrix):
            factor(A).solve(np.array([1.0, 2.0]))

    def test_mismatched_shapes(self):
        with pytest.raises(ValueError, match="square"):
            SparseFactor(sp.csr_matrix(np.ones((3, 2))), own_layout(sp.eye(3)))
        with pytest.raises(ValueError, match="rhs"):
            factor(sp.eye(3, format="csr")).solve(np.zeros(2))

    def test_factor_reuse(self, rng):
        A = sp.csr_matrix(np.diag(np.arange(1.0, 6.0)))
        lu = factor(A)
        for _ in range(3):
            b = rng.random(5)
            assert np.allclose(lu.solve(b), b / np.arange(1.0, 6.0))

    @pytest.mark.parametrize(
        "geometry, degree, spans", [("square", 2, 12), ("quarter_annulus", 3, 32)]
    )
    def test_frobenius_norm_matches_numpy(self, geometry, degree, spans):
        # ||A||_F of the residual bound is summed pairwise by numpy, by blocks,
        # not by BLAS ddot as in np.linalg.norm; the annulus matrices hold
        # 54k entries, where ddot runs threaded
        band, mass, A = step_matrix(geometry, degree, spans)
        for M in (mass, A):
            ref = np.linalg.norm(M.data)
            assert abs(SparseFactor(M, band)._norm - ref) <= 1e-15 * ref

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_residual_bound_raises(self):
        # ||A||_F of entries 1e300 overflows to inf, and an infinite bound
        # would pass any residual
        A = sp.diags(np.full(4, 1e300), format="csr")
        with pytest.raises(ConvergenceFailure, match="residual bound overflows"):
            factor(A).solve(np.full(4, 1e300))


class TestOrdering:
    # the banded LU in the natural order against SuperLU in fill-reducing ones
    @pytest.fixture(scope="class")
    def annulus_step_matrix(self):
        return step_matrix("quarter_annulus", 3, 12)

    def test_solution_matches_colamd(self, annulus_step_matrix, rng):
        band, _, A = annulus_step_matrix
        b = rng.random(A.shape[0])
        x = SparseFactor(A, band).solve(b)
        x_ref = spla.splu(A.tocsc(), permc_spec="COLAMD").solve(b)
        assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)

    @pytest.mark.parametrize(
        "geometry, degree, spans", [("square", 2, 12), ("quarter_annulus", 3, 12)]
    )
    def test_solution_matches_minimum_degree(self, geometry, degree, spans, rng):
        band, mass, A = step_matrix(geometry, degree, spans)
        for M in (mass, A):
            b = rng.random(A.shape[0])
            x = SparseFactor(M, band).solve(b)
            x_ref = spla.splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A").solve(b)
            assert np.linalg.norm(x - x_ref) <= 1e-12 * np.linalg.norm(x_ref)

    def test_matrix_off_the_pattern_raises(self, annulus_step_matrix):
        band, _, A = annulus_step_matrix
        dropped = A.copy()
        dropped.data[1] = 0.0
        dropped.eliminate_zeros()
        other, _, _ = step_matrix("quarter_annulus", 3, 8)
        for M, on in ((dropped, band), (A, other), (sp.eye(A.shape[0]), band)):
            with pytest.raises(ValueError, match="pattern"):
                SparseFactor(M, on)

    def test_singular_matrix_on_the_pattern_raises(self, annulus_step_matrix):
        band, _, A = annulus_step_matrix
        singular = A.copy()
        singular.data[singular.indptr[5] : singular.indptr[6]] = 0.0  # row 5
        with pytest.raises(SingularMatrix):
            SparseFactor(singular, band).solve(np.ones(A.shape[0]))

    def test_factors_the_permuted_matrix_in_natural_order(self, annulus_step_matrix):
        # the factor is LAPACK's banded LU of the matrix's entries permuted
        # into band storage, laid out here from the dense matrix, in the
        # natural order with no column permutation
        band, _, A = annulus_step_matrix
        dense = A.toarray()
        n, kl, ku = A.shape[0], band.kl, band.ku
        ab = np.zeros((2 * kl + ku + 1, n), order="F")
        for d in range(-kl, ku + 1):  # A[i, i + d] at row kl + ku - d
            ab[kl + ku - d, max(d, 0) : n + min(d, 0)] = np.diagonal(dense, d)
        assert np.array_equal(band.band(A.data), ab)
        lu, piv, info = scipy.linalg.lapack.dgbtrf(ab, kl, ku)
        factor = SparseFactor(A, band)
        assert info == 0
        assert np.array_equal(factor._lu, lu) and np.array_equal(factor._piv, piv)

    @pytest.mark.parametrize("geometry", ["square", "quarter_annulus"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_fill_within_bound_of_minimum_degree(self, geometry, degree):
        # the band in the natural order against SuperLU's minimum degree on
        # A^T + A; the ratio grows with the spans, and its largest over
        # degrees 1..4 and spans 1..32 is 1.703 (k=1, 32 spans, annulus)
        for spans in (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 32):
            band, M, A = step_matrix(geometry, degree, spans)
            for X in (M, A):
                ref = spla.splu(X.tocsc(), permc_spec="MMD_AT_PLUS_A")
                lu = band_fill(SparseFactor(X, band))
                assert lu <= 1.75 * fill(ref), (spans, lu, fill(ref))

    @pytest.mark.parametrize("k1", [1, 2, 3, 4])
    @pytest.mark.parametrize("k2", [1, 2, 3, 4])
    def test_fill_within_bound_of_minimum_degree_anisotropic(self, k1, k2, rng):
        # other degrees and span counts per direction, on the square; the
        # natural order's half-bandwidth grows with the functions along
        # direction 1 even where direction 2 is the shorter, so the largest
        # ratio is 4.415 (k = (1, 4), 16 x 4 spans)
        gm = load_geometry("square")
        for s1, s2 in ((16, 4), (3, 8), (8, 5)):
            for n1, n2 in ((s1, s2), (s2, s1)):
                space = TensorSpace(uniform_open_knots(k1, n1), uniform_open_knots(k2, n2))
                disc = Discretization(space, gm)
                assert disc.band.kl == disc.band.ku == k2 * (n1 + k1) + k1
                matrices = step_matrices(disc)
                for X in matrices:
                    ref = spla.splu(X.tocsc(), permc_spec="MMD_AT_PLUS_A")
                    lu = band_fill(SparseFactor(X, disc.band))
                    assert lu <= 4.5 * fill(ref), ((n1, n2), lu, fill(ref))
                assert_solves_match_dense(disc.band, matrices, rng)


class TestBandLU:
    @pytest.mark.parametrize("geometry", ["square", "quarter_annulus"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_mass_and_step_solves_match_dense(self, geometry, degree, rng):
        for spans in (1, 2, 3, 4, 5, 6, 8, 10, 12, 16):
            band, M, A = step_matrix(geometry, degree, spans)
            assert_solves_match_dense(band, (M, A), rng)

    @pytest.mark.parametrize("geometry", ["square", "quarter_annulus"])
    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_solves_match_dense_at_32_spans(self, geometry, degree, rng):
        band, M, A = step_matrix(geometry, degree, 32)
        assert band.kl == band.ku == degree * (32 + degree) + degree
        assert_solves_match_dense(band, (M, A), rng)


def entrywise_layout(indptr, indices):
    """``(kl, ku, slots)`` of a CSR pattern from the row of every entry."""
    rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    offset = rows - indices
    kl, ku = int(offset.max(initial=0)), int(-offset.min(initial=0))
    return kl, ku, kl + ku + offset + (2 * kl + ku + 1) * indices.astype(np.intp)


class TestBandLayout:
    @pytest.mark.parametrize("budget", [None, 1, 600])
    def test_equals_the_entrywise_formula(self, monkeypatch, rng, budget):
        # kl and ku from each row's first and last column, and the slots made
        # a block of rows at a time, equal the formula over every entry as
        # integers: on the discretizations' patterns and on random sorted
        # patterns with empty rows, for the default budget, one row a block
        # and a few rows a block
        if budget is not None:
            monkeypatch.setattr(assembly, "BLOCK_BYTES", budget)
        discs = [make_disc(load_geometry(g), k, 5) for g in ("square", "quarter_annulus") for k in (1, 3)]
        patterns = [(disc._indptr, disc._indices) for disc in discs]
        for density in (0.05, 0.3):
            A = sp.random(30, 30, density=density, format="lil", random_state=rng)
            A[[0, 7, 29]] = 0.0  # empty rows, the first and the last among them
            A = A.tocsr()
            A.eliminate_zeros()
            A.sort_indices()
            assert np.all(np.diff(A.indptr)[[0, 7, 29]] == 0)
            patterns.append((A.indptr, A.indices))
        for indptr, indices in patterns:
            layout = BandLayout(indptr, indices)
            kl, ku, slots = entrywise_layout(indptr, indices)
            assert (layout.kl, layout.ku) == (kl, ku)
            assert layout.shape == (2 * kl + ku + 1, len(indptr) - 1)
            assert layout._slot.dtype == np.intp
            assert np.array_equal(layout._slot, slots)


class TestCsrArithmetic:
    def test_matvec_matches_dense(self, rng):
        for _ in range(5):
            dense = rng.random((40, 40))
            dense[dense < 0.7] = 0.0
            A = sp.csr_matrix(dense)
            v = rng.random(40)
            assert np.max(np.abs(A @ v - dense @ v)) < 1e-14


class TestGeneralizedEig:
    def test_equal_matrices_give_ones(self, rng):
        base = rng.random((8, 8))
        A = base @ base.T + 8 * np.eye(8)
        vals = generalized_symmetric_eig(A, A)
        assert np.allclose(vals, 1.0, atol=1e-12)

    def test_diagonal_example(self):
        vals = generalized_symmetric_eig(np.diag([1.0, 2.0]), np.eye(2))
        assert np.allclose(vals, [1.0, 2.0])

    def test_ascending_order_and_vectors(self, rng):
        base = rng.random((12, 12))
        A = (base + base.T) / 2
        Bb = rng.random((12, 12))
        B = Bb @ Bb.T + 12 * np.eye(12)
        vals = generalized_symmetric_eig(A, B)
        assert np.all(np.diff(vals) >= -1e-12)
        # the eigenpair residuals are checked inside; the values match scipy's
        ref = scipy.linalg.eigh(A, B, eigvals_only=True)
        assert np.max(np.abs(vals - ref)) < 1e-8 * np.linalg.norm(A, 2)

    def test_against_jacobi_oracle(self, rng):
        n = 50
        base = rng.random((n, n))
        A = (base + base.T) / 2
        Bb = rng.random((n, n))
        B = Bb @ Bb.T + n * np.eye(n)
        vals = generalized_symmetric_eig(A, B)
        # reduce with the oracle's own Cholesky and diagonalize by rotations
        L = np.linalg.cholesky(B)
        C = np.linalg.solve(L, np.linalg.solve(L, A.T).T)
        ref = jacobi_eigenvalues(C)
        assert np.max(np.abs(vals - ref)) < 1e-9 * max(1.0, np.abs(ref).max())

    def test_not_spd_raises(self):
        with pytest.raises(NotSPD):
            generalized_symmetric_eig(np.eye(3), -np.eye(3))
        with pytest.raises(NotSPD):
            generalized_symmetric_eig(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_residual_bound_raises(self, rng, monkeypatch):
        base = rng.random((5, 5))
        A = (base + base.T) / 2
        Bb = rng.random((5, 5))
        B = Bb @ Bb.T + 5 * np.eye(5)
        eigh = scipy.linalg.eigh

        def perturbed(A, B):
            vals, vecs = eigh(A, B)
            vals = vals.copy()
            vals[-1] += 1e-6 * np.abs(vals).max()  # one pair only
            return vals, vecs

        monkeypatch.setattr(scipy.linalg, "eigh", perturbed)
        with pytest.raises(ConvergenceFailure, match="eigenpair residual"):
            generalized_symmetric_eig(A, B)
