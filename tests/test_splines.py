import numpy as np
import pytest

from nitsche_iga import parse_knot_vector, uniform_open_knots, validate_knots
from nitsche_iga.errors import (
    ExcessMultiplicity,
    NotNondecreasing,
    NotOpen,
    OutOfDomain,
)
from nitsche_iga.splines import collocation, eval_basis_many

from conftest import greville


def cox_de_boor_table(knots, k, x):
    """Naive full-table recursion, every function and degree, 0/0 -> 0.

    Zero-degree indicators use the same half-open convention as the
    library (left limits at x = 1), so values agree exactly.
    """
    knots = np.asarray(knots, dtype=float)
    r = len(knots)
    B = np.zeros((r - 1, k + 1))
    for i in range(r - 1):
        if x == 1.0:
            B[i, 0] = 1.0 if knots[i] < 1.0 == knots[i + 1] else 0.0
        else:
            B[i, 0] = 1.0 if knots[i] <= x < knots[i + 1] else 0.0
    for j in range(1, k + 1):
        for i in range(r - 1 - j):
            left = 0.0
            if knots[i + j] != knots[i]:
                left = (x - knots[i]) / (knots[i + j] - knots[i]) * B[i, j - 1]
            right = 0.0
            if knots[i + j + 1] != knots[i + 1]:
                right = (
                    (knots[i + j + 1] - x)
                    / (knots[i + j + 1] - knots[i + 1])
                    * B[i + 1, j - 1]
                )
            B[i, j] = left + right
    return B[: r - k - 1, k]


def one_point_ders(knots, k, x, nd):
    """NURBS Book Alg. A2.3 at a single point, scalar by scalar.

    The reference for the batched kernel: every point of a batch must go
    through exactly these floating-point operations, in this order.
    """
    knots = np.asarray(knots, dtype=float)
    n = len(knots) - k - 1
    mu = min(max(int(np.searchsorted(knots, x, side="right")) - 1, k), n - 1)
    ndu = np.empty((k + 1, k + 1))
    left = np.empty(k + 1)
    right = np.empty(k + 1)
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
    ders = np.zeros((nd + 1, k + 1))
    ders[0] = ndu[:, k]
    a = np.empty((2, k + 1))
    for r in range(k + 1):
        s1, s2 = 0, 1
        a[0, 0] = 1.0
        for d in range(1, nd + 1):
            dval = 0.0
            rk, pk = r - d, k - d
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
    return mu - k, ders


SHIPPED = [
    ([0, 0, 1, 1], 1),
    ([0, 0, 0, 0.5, 1, 1, 1], 2),
    ([0, 0, 0.25, 0.5, 0.75, 1, 1], 1),
    ([0, 0, 0, 0.2, 0.4, 0.4, 0.7, 1, 1, 1], 2),
    ([0, 0, 0, 0, 0.3, 0.6, 1, 1, 1, 1], 3),
    ([0, 0, 0, 0, 0, 0.5, 1, 1, 1, 1, 1], 4),
]


class TestValidation:
    def test_single_span_valid(self):
        kv = validate_knots([0, 0, 1, 1], 1)
        assert kv.theta == 1.0
        assert kv.num_spans == 1

    def test_uniform_two_span(self):
        kv = validate_knots([0, 0, 0, 0.5, 1, 1, 1], 2)
        assert kv.theta == 1.0
        assert kv.num_spans == 2

    def test_not_open(self):
        with pytest.raises(NotOpen):
            validate_knots([0, 0, 1, 1], 2)

    def test_wrong_range(self):
        with pytest.raises(NotOpen):
            validate_knots([0, 0, 2, 2], 1)

    def test_decreasing(self):
        with pytest.raises(NotNondecreasing):
            validate_knots([0, 0, 0.5, 0.2, 1, 1], 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_interior_knot(self, bad):
        with pytest.raises(NotNondecreasing):
            validate_knots([0, 0, bad, 1, 1], 1)

    def test_excess_multiplicity(self):
        with pytest.raises(ExcessMultiplicity):
            validate_knots([0, 0, 0.5, 0.5, 0.5, 1, 1], 1)

    def test_theta_computed(self):
        kv = validate_knots([0, 0, 0.2, 1, 1], 1)
        assert kv.theta == pytest.approx(0.8 / 0.2)

    def test_theta_warning(self):
        with pytest.warns(UserWarning, match="graded"):
            validate_knots([0, 0, 0.01, 1, 1], 1)

    def test_parse_text_form(self):
        kv = parse_knot_vector("2; 0 0 0 0.5 1 1 1")
        assert kv.degree == 2
        assert kv.num_spans == 2

    def test_dimension_examples(self):
        assert validate_knots([0, 0, 1, 1], 1).dimension == 2
        assert validate_knots([0, 0, 0, 1, 1, 1], 2).dimension == 3
        for n in (3, 5, 8):
            assert uniform_open_knots(1, n).dimension == n + 1


class TestEvaluation:
    def test_hat_functions(self):
        kv = validate_knots([0, 0, 1, 1], 1)
        _, ders = eval_basis_many(kv, [0.5])
        assert np.allclose(ders[0], [[0.5, 0.5], [-1.0, 1.0]])

    def test_bernstein_midpoint(self):
        # hand-unrolled recursion at x = 0.5 on {0,0,0,1,1,1}:
        # B_{1,1} = 1-x, B_{2,1} = x; then
        # B_{1,2} = (1-x)^2, B_{2,2} = 2x(1-x), B_{3,2} = x^2
        kv = validate_knots([0, 0, 0, 1, 1, 1], 2)
        _, ders = eval_basis_many(kv, [0.5])
        assert np.allclose(ders[0, 0], [0.25, 0.5, 0.25], atol=1e-15)

    def test_out_of_domain(self):
        kv = validate_knots([0, 0, 1, 1], 1)
        with pytest.raises(OutOfDomain):
            eval_basis_many(kv, [1.5])
        with pytest.raises(OutOfDomain):
            eval_basis_many(kv, [-0.1])

    @pytest.mark.parametrize("knots,k", SHIPPED)
    def test_partition_of_unity_and_derivative_sums(self, knots, k, rng):
        kv = validate_knots(knots, k)
        xs = np.concatenate([rng.random(1000), [0.0, 1.0], kv.breakpoints])
        _, ders = eval_basis_many(kv, xs)
        assert np.all(ders[:, 0] >= -1e-15)
        assert np.max(np.abs(ders[:, 0].sum(axis=1) - 1.0)) < 1e-13
        assert np.max(np.abs(ders[:, 1].sum(axis=1))) < 1e-11

    @pytest.mark.parametrize("knots,k", SHIPPED)
    def test_matches_full_table_oracle(self, knots, k, rng):
        kv = validate_knots(knots, k)
        xs = np.concatenate([rng.random(200), [0.0, 1.0]])
        for x, dense in zip(xs, collocation(kv, xs)[0]):
            table = cox_de_boor_table(knots, k, float(x))
            assert np.max(np.abs(dense - table)) < 1e-14

    @pytest.mark.parametrize("knots,k", SHIPPED)
    def test_first_derivative_against_differences(self, knots, k, rng):
        kv = validate_knots(knots, k)
        delta = 1e-6
        xs = rng.random(300)
        # stay away from breakpoints where one-sided limits differ
        gap = np.min(np.abs(kv.breakpoints[:, None] - xs), axis=0)
        xs = xs[gap >= 10 * delta]
        assert len(xs) > 200
        lo_first, lo = eval_basis_many(kv, xs - delta)
        hi_first, hi = eval_basis_many(kv, xs + delta)
        first, mid = eval_basis_many(kv, xs)
        assert np.array_equal(lo_first, first) and np.array_equal(hi_first, first)
        fd = (hi[:, 0] - lo[:, 0]) / (2 * delta)
        assert np.max(np.abs(fd - mid[:, 1])) < 1e-6

    def test_c1_smoothness_across_simple_breakpoint(self):
        kv = validate_knots([0, 0, 0, 0.5, 1, 1, 1], 2)
        z = 0.5
        first, _ = eval_basis_many(kv, [np.nextafter(z, 0.0), z])
        assert first[0] != first[1]  # the two sides are different spans
        dense_l, dense_r = collocation(kv, [np.nextafter(z, 0.0), z])[1]
        assert np.max(np.abs(dense_r - dense_l)) < 1e-10

    def test_endpoint_conventions(self):
        kv = validate_knots([0, 0, 0.5, 1, 1], 1)
        first, ders = eval_basis_many(kv, [0.0, 1.0, 0.5])
        # left limit at 1; an interior breakpoint evaluates right-continuously
        assert list(first) == [0, 1, 1]
        assert np.allclose(ders[:, 0], [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])


class TestHelpers:
    @pytest.mark.parametrize("knots,k", SHIPPED)
    def test_breakpoint_mesh_partitions_the_interval(self, knots, k):
        kv = validate_knots(knots, k)
        assert np.all(kv.widths > 0)
        assert kv.widths.sum() == pytest.approx(1.0, abs=1e-15)
        assert kv.breakpoints[0] == 0.0 and kv.breakpoints[-1] == 1.0
        # span n runs from breakpoints[n - 1] to breakpoints[n]
        assert kv.num_spans == len(kv.breakpoints) - 1
        assert np.array_equal(kv.widths, np.diff(kv.breakpoints))
        assert np.array_equal(np.repeat(kv.breakpoints, kv.multiplicities), knots)

    def test_greville_linear_reproduction(self, rng):
        for knots, k in SHIPPED:
            kv = validate_knots(knots, k)
            g = greville(kv)
            xs = rng.random(50)
            first, ders = eval_basis_many(kv, xs)
            combo = np.sum(ders[:, 0] * g[first[:, None] + np.arange(k + 1)], axis=1)
            assert np.max(np.abs(combo - xs)) < 1e-13


# uniform and graded knot vectors of every degree, the graded ones with
# repeated interior knots
BATCH_KNOTS = [
    (uniform_open_knots(k, 5).knots, k) for k in (1, 2, 3, 4)
] + [
    ([0, 0, 0.05, 0.05, 0.3, 1, 1], 1),
    ([0, 0, 0, 0.1, 0.1, 0.35, 0.6, 0.6, 0.6, 1, 1, 1], 2),
    ([0, 0, 0, 0, 0.2, 0.2, 0.25, 0.7, 0.7, 0.7, 1, 1, 1, 1], 3),
    ([0, 0, 0, 0, 0, 0.15, 0.15, 0.5, 0.5, 0.5, 0.5, 0.9, 1, 1, 1, 1, 1], 4),
]


def batch_points(kv, rng):
    """Random points plus every breakpoint (0 and 1 included), shuffled."""
    xs = np.concatenate([rng.random(150), kv.breakpoints, [0.0, 1.0]])
    return rng.permutation(xs)


class TestEvalBasisMany:
    @pytest.mark.parametrize("knots,k", BATCH_KNOTS)
    def test_bit_equal_to_one_point_recursion(self, knots, k, rng):
        kv = validate_knots(knots, k)
        xs = batch_points(kv, rng)
        first, ders = eval_basis_many(kv, xs)
        assert ders.shape == (len(xs), 2, k + 1)
        for i, x in enumerate(xs):
            ref_first, ref = one_point_ders(knots, k, float(x), 1)
            assert first[i] == ref_first
            assert ders[i].tobytes() == ref.tobytes()

    def test_end_and_breakpoint_spans(self):
        kv = validate_knots([0, 0, 0, 0.25, 0.25, 0.5, 1, 1, 1], 2)
        first, ders = eval_basis_many(kv, [0.0, 0.25, 0.5, 1.0])
        # right-continuous at interior breakpoints, left limit at 1
        assert list(first) == [0, 2, 3, kv.dimension - 3]
        assert np.array_equal(ders[0, 0], [1.0, 0.0, 0.0])
        assert np.array_equal(ders[-1, 0], [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("bad", [-1e-12, 1.0 + 1e-12, np.nan, np.inf])
    def test_one_bad_point_rejects_the_batch(self, bad):
        kv = uniform_open_knots(2, 4)
        xs = np.linspace(0.0, 1.0, 9)
        xs[5] = bad
        with pytest.raises(OutOfDomain):
            eval_basis_many(kv, xs)

    @pytest.mark.parametrize("k", [1, 3])
    def test_empty_input(self, k):
        kv = uniform_open_knots(k, 3)
        first, ders = eval_basis_many(kv, np.empty(0))
        assert first.shape == (0,)
        assert ders.shape == (0, 2, k + 1)


class TestCollocation:
    @pytest.mark.parametrize("knots,k", BATCH_KNOTS)
    def test_rows_are_eval_basis_scattered(self, knots, k, rng):
        kv = validate_knots(knots, k)
        xs = batch_points(kv, rng)
        C = collocation(kv, xs)
        assert C.shape == (2, len(xs), kv.dimension)
        for i, x in enumerate(xs):
            first, ders = one_point_ders(knots, k, float(x), 1)
            cols = first + np.arange(k + 1)
            assert np.array_equal(C[:, i, cols], ders)
            assert np.count_nonzero(np.delete(C[:, i], cols, axis=1)) == 0
        # partition of unity and its derivative
        assert np.max(np.abs(C[0].sum(axis=1) - 1.0)) < 1e-14
        assert np.max(np.abs(C[1].sum(axis=1))) < 1e-10

