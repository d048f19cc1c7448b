"""The element kernels under the one block budget, ``assembly.BLOCK_BYTES``.

Every kernel runs over blocks of elements, edges, span rows, pattern rows
or points and must give the same bits for any block size: one item per
block, and blocks that leave a shorter last one, of elements or of span
rows, against the default budget.  On the largest mesh the benchmark solves
(``steady_reaction`` on the annulus, k = 3, 32 spans), what a kernel
allocates beyond what it returns or keeps is bounded by tracemalloc: a few
budgets of temporaries, plus what a closure it calls allocates.
"""

import tracemalloc

import numpy as np
import pytest

from nitsche_iga import analysis, assembly, builtin_case
from nitsche_iga.analysis import TIME_QUAD_POINTS
from nitsche_iga.linalg import BandLayout
from nitsche_iga.timestepping import SolutionTrajectory, TimeGrid

from conftest import make_disc, span_tables

CASES = {"square_gm": "paper_sec8", "annulus_gm": "steady_reaction"}


def kernel_outputs(gm, degree, case):
    """Every array the blocked kernels produce on a 5 x 5 mesh, with the
    sparsity pattern and the scatter indices."""
    disc = make_disc(gm, degree, 5)
    p = case.problem
    A, F = assembly.AssembledForms(disc, p).at(0.3 * p.T)
    coefs = np.random.default_rng(degree).standard_normal((3, disc.dimension))
    traj = SolutionTrajectory(coefs, TimeGrid(2, p.T), disc)
    out = {
        f"{name}.{key}": getattr(cache, key)
        for name, cache in (("elements", disc.elements), ("boundary", disc.boundary))
        for key in ("table", "x", "w", "gidx")
    }
    out["boundary.normal"] = disc.boundary.normal
    for key in ("_indptr", "_indices", "_slots", "_gidx"):
        out["pattern." + key] = getattr(disc, key)
    out["band._slot"] = disc.band._slot
    out["mass"] = disc.mass.data
    out["units"] = np.stack(assembly._unit_data(disc, assembly.UNIT_PAIRS[1:]))
    out["vh_gram"] = disc.vh_gram.data
    out["trace_constant"] = np.array(disc.trace_constant)
    out["stiffness"] = A.data
    out["load"] = F
    out["functional"] = assembly.assemble_functional(disc, p.u0)
    out["space_time_errors"] = np.array(analysis.space_time_errors(traj, case))
    return out


@pytest.fixture
def block_sizes(monkeypatch):
    """The block sizes of every ``block_slices`` call, as lists."""
    calls = []
    real = assembly.block_slices

    def logged(n, item_bytes):
        slices = real(n, item_bytes)
        calls.append([s.stop - s.start for s in slices])
        return slices

    for module in (assembly, analysis):
        monkeypatch.setattr(module, "block_slices", logged)
    return calls


@pytest.mark.parametrize("geometry", sorted(CASES))
@pytest.mark.parametrize("degree", [1, 2, 3, 4])
@pytest.mark.parametrize("budget", ["one item", "ragged", "ragged rows"])
def test_outputs_bit_equal_for_any_block_size(
    request, monkeypatch, block_sizes, geometry, degree, budget
):
    gm = request.getfixturevalue(geometry)
    case = builtin_case(CASES[geometry])
    want = kernel_outputs(gm, degree, case)
    block_sizes.clear()

    # two element tables and a byte: 25 elements in blocks of 2 and a last
    # of 1; the J (four doubles a point) of two span rows of 5 elements and a
    # byte: 5 span rows in blocks of 2 and a last of 1
    nq, nloc = (degree + 2) ** 2, (degree + 1) ** 2
    budget_bytes = {
        "one item": 1,
        "ragged": 2 * nq * 3 * nloc * 8 + 1,
        "ragged rows": 2 * 5 * nq * 4 * 8 + 1,
    }[budget]
    monkeypatch.setattr(assembly, "BLOCK_BYTES", budget_bytes)
    got = kernel_outputs(gm, degree, case)
    if budget == "one item":
        assert all(set(sizes) == {1} for sizes in block_sizes)
    elif budget == "ragged":
        assert [2] * 12 + [1] in block_sizes
    else:
        assert [2, 2, 1] in block_sizes
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert got[key].dtype == value.dtype and got[key].shape == value.shape, key
        assert got[key].tobytes() == value.tobytes(), key


@pytest.mark.parametrize("n, item_bytes, sizes", [
    (5, assembly.BLOCK_BYTES, [1] * 5),
    (5, assembly.BLOCK_BYTES + 1, [1] * 5),
    (5, assembly.BLOCK_BYTES // 2, [2, 2, 1]),
    (4, assembly.BLOCK_BYTES // 2, [2, 2]),
    (3, 1, [3]),
    (0, 8, []),
])
def test_block_slices_cover_the_range(n, item_bytes, sizes):
    slices = assembly.block_slices(n, item_bytes)
    assert [s.stop - s.start for s in slices] == sizes
    assert [s.start for s in slices] == [sum(sizes[:i]) for i in range(len(sizes))]


# -- transient memory ----------------------------------------------------------

FEW_BUDGETS = 4 * assembly.BLOCK_BYTES


def traced(fn, *args):
    """``(result, excess)``: the bytes ``fn`` allocated at its peak beyond what
    it still holds when it returns (its result)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn(*args)
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current >= base
    return result, peak - current


@pytest.fixture(scope="module")
def annulus_k3(annulus_gm):
    """The ``reaction_annulus_k3`` discretization and the arguments of the
    calls that fill its element table, one block of span rows each, caught
    on the way in."""
    calls = []
    real = assembly._basis_table

    def spy(d1, d2, jac, out=None):
        if out is not None:
            calls.append((d1, d2, jac, out))
        return real(d1, d2, jac, out=out)

    assembly._basis_table = spy
    try:
        disc = make_disc(annulus_gm, 3, 32)
    finally:
        assembly._basis_table = real
    return disc, calls


def test_element_table_allocates_only_block_temporaries(annulus_k3):
    # each block of span rows fills its slice of a table made beforehand
    disc, calls = annulus_k3
    table = np.empty_like(disc.elements.table)
    start = 0
    for d1, d2, jac, out in calls:
        rows = table[start : start + len(out)]
        (filled, _, _), excess = traced(assembly._basis_table, d1, d2, jac, rows)
        assert filled is rows
        assert excess <= FEW_BUDGETS
        start += len(out)
    assert table.tobytes() == disc.elements.table.tobytes()


def test_element_cache_allocates_only_block_temporaries(annulus_gm, annulus_k3):
    # beyond the arrays it keeps: the grid is evaluated and reordered one
    # block of span rows at a time, with no array over all Gauss points
    disc, _ = annulus_k3
    spans = span_tables(disc.space, disc.quadrature_order)
    cache, excess = traced(assembly.ElementCache, disc.space, annulus_gm, spans)
    assert cache.table.tobytes() == disc.elements.table.tobytes()
    assert excess <= FEW_BUDGETS


def test_matrices_allocate_their_blocks_and_block_temporaries(annulus_k3):
    # the parent's stiffness peaked at 12.2 MB and the Gram at 12.3 MB beyond
    # their 0.5 MB results, on element and edge blocks of 2.4 MB; each block
    # is now added into the matrix data as it is made; the stiffness keeps
    # its sample copies and edge blocks
    disc, _ = annulus_k3
    p = builtin_case("steady_reaction").problem
    coefficients = assembly._operator_coefficients(disc, p, 0.5)
    stiffness = assembly._Stiffness(disc, 10.0)
    for fn, args in (
        (stiffness.at, (coefficients, 0.5)),
        (assembly.assemble_vh_gram, (disc,)),
        (assembly.assemble_mass, (disc,)),
    ):
        _, excess = traced(fn, *args)
        assert excess <= FEW_BUDGETS, fn.__name__


def test_unit_matrices_allocate_their_data_and_block_temporaries(annulus_k3):
    # the element Grams of all table rows, one block of elements at a time;
    # with paper_sec8's uniform coefficients the stiffness makes the four
    # units of its nonzero b and mu and sums them a block of entries at a time
    disc, _ = annulus_k3
    _, excess = traced(assembly._unit_data, disc, assembly.UNIT_PAIRS[1:])
    assert excess <= FEW_BUDGETS
    p = builtin_case("paper_sec8").problem
    coefficients = assembly._operator_coefficients(disc, p, 0.5)
    assert all(map(assembly._uniform, coefficients[:3]))
    for _ in range(2):
        stiffness = assembly._Stiffness(disc, 10.0)
        _, excess = traced(stiffness.at, coefficients, 0.5)
        assert excess <= FEW_BUDGETS


def test_trace_constant_allocates_only_block_temporaries(annulus_k3):
    # the parent's trace constant made (128, 15, 15) stacks of Grams and
    # eigenpairs over all edges; it now forms the owners' Grams and the
    # eigenpairs one block of edges at a time
    disc, _ = annulus_k3
    _, excess = traced(assembly.trace_constant, disc)
    assert excess <= FEW_BUDGETS


def test_band_layout_allocates_only_block_temporaries(annulus_k3):
    # beyond the slots it keeps; the parent made two more arrays of them
    disc, _ = annulus_k3
    layout, excess = traced(BandLayout, disc._indptr, disc._indices)
    assert np.array_equal(layout._slot, disc.band._slot)
    assert excess <= FEW_BUDGETS


def test_volume_sums_allocate_only_what_the_closure_does(annulus_k3):
    # the closure runs once over all points; the weighting and the
    # contraction add no more than the vector they fill and block temporaries
    disc, _ = annulus_k3
    p = builtin_case("steady_reaction").problem
    x, y = disc.elements.x.reshape(-1, 2).T
    values = disc._gidx.size * 8
    coefficients = assembly._operator_coefficients(disc, p, 0.5)
    _, dirichlet = assembly._Stiffness(disc, 10.0).at(coefficients, 0.5)
    for closure, args, kernel, kernel_args in (
        (p.f, (x, y, 0.5), assembly._load_from, (disc, p, dirichlet, 0.5)),
        (p.u0, (x, y), assembly.assemble_functional, (disc, p.u0)),
    ):
        result, closure_excess = traced(closure, *args)
        _, excess = traced(kernel, *kernel_args)
        assert excess <= closure_excess + result.nbytes + values + FEW_BUDGETS, kernel.__name__


def test_space_time_errors_allocate_their_sums_and_block_temporaries(square_gm, annulus_k3):
    # two (3s, ne) arrays of per-element sums, s = min(nq / 2, N), and the
    # temporaries of one step block and element block; no array over all
    # points and no field over all elements
    for disc, name, steps in (
        (make_disc(square_gm, 2, 24), "paper_sec8", 24),
        (annulus_k3[0], "steady_reaction", 1),
    ):
        case = builtin_case(name)
        coefs = np.random.default_rng(0).standard_normal((steps + 1, disc.dimension))
        traj = SolutionTrajectory(coefs, TimeGrid(steps, case.problem.T), disc)
        ne, nq = disc.elements.w.shape
        sums = 2 * TIME_QUAD_POINTS * min(nq // 2, steps) * ne * 8
        _, excess = traced(analysis.space_time_errors, traj, case)
        assert excess <= sums + FEW_BUDGETS, name
