"""Every workload of the benchmark passes its case check and its gate.

Each workload named in ``BENCHMARK.json`` runs once through
``perfbench/workloads.py``, the module ``perfbench/run.py`` times, so a
result that moves off its recorded reference fails here too.  So does
``calibrate_annulus_k2``, which ``BENCHMARK.json`` leaves out: it is the only
workload that runs the dense coercivity audit.  A traced repetition, under
``perfbench/tracing.py``, must pass its gate too, see every factorization
and sample the problem's coefficients once per time step.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from nitsche_iga import assembly, geometry, timestepping

from conftest import reference_space_time_errors

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
NAMES = BENCHMARKED + ["calibrate_annulus_k2"]

# SparseFactor constructions of one repetition: the mass matrix's, and one
# per step whose operator changed (every step of the rotating field)
FACTORIZATIONS = {"sec8_square_k2": 2, "rotating_square_k2": 65, "reaction_annulus_k3": 2}

# coefficient closure calls of one repetition: 7 per step (mu, b at the volume
# and the edge points, c, f at the volume points, g at the edge points)
COEFFICIENT_CALLS = {"sec8_square_k2": 168, "rotating_square_k2": 448, "reaction_annulus_k3": 7}


# whether the volume form of every step is a sum of unit matrices: mu, b
# and c each hold one value at every volume point
UNIT_PATH = {"sec8_square_k2": True, "rotating_square_k2": True, "reaction_annulus_k3": False}


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return load_perfbench("workloads")


@pytest.fixture(scope="module")
def tracing():
    return load_perfbench("tracing")


# names that perfbench/tracing.py wraps and the package no longer has; the
# benchmark change that edits the tracing list drops them
STALE_TRACED = {"assembly.assemble_load", "linalg.solve_sparse", "GeometryMap.evaluate_many"}


def test_every_other_traced_name_resolves(tracing):
    # instrument skips a missing name without a sound, which would read 0 on
    # its row; deleting geometry.build_mesh, say, must fail here
    missing = {
        f"{module.__name__.rsplit('.', 1)[-1]}.{name}"
        for module, name, _ in tracing.FUNCTIONS
        if not hasattr(module, name)
    }
    missing |= {
        f"{cls.__name__}.{name}" for cls, name, _ in tracing.METHODS if not hasattr(cls, name)
    }
    assert missing == STALE_TRACED


@pytest.mark.parametrize("name", NAMES)
def test_workload_passes_its_gate(workloads, name):
    w = workloads.WORKLOADS[name]
    case = workloads.make_case(w)
    assert workloads.check_case(case, 0) == []
    assert workloads.run_once(w, case, geometry.load_geometry(w.geometry)).failures == []


@pytest.mark.parametrize("name", [n for n in NAMES if n != "calibrate_annulus_k2"])
def test_gate_values_match_the_per_time_loop(workloads, name):
    # the space-time errors of run_once, bit for bit against one call of the
    # exact solution per Gauss time on the same trajectory
    w = workloads.WORKLOADS[name]
    case = workloads.make_case(w)
    gm = geometry.load_geometry(w.geometry)
    space = geometry.uniform_space(w.degree, w.spans)
    disc = assembly.Discretization(space, gm)
    u0 = timestepping.project_initial(disc, case.problem.u0)
    forms = assembly.AssembledForms(disc, case.problem)
    traj = timestepping.march(forms, timestepping.TimeGrid(w.steps, case.problem.T), u0)
    err_h1, err_l2 = reference_space_time_errors(traj, case)
    values = workloads.run_once(w, case, gm).values
    assert values == {"err_l2h1": err_h1, "err_l2l2": err_l2}


@pytest.mark.parametrize("name", BENCHMARKED)
def test_traced_repetition_sees_every_factorization(workloads, tracing, name):
    w = workloads.WORKLOADS[name]
    case = workloads.make_case(w)
    with tracing.instrument(tracing.Tracer()) as tracer:
        rep = workloads.run_once(w, tracer.trace_case(case), geometry.load_geometry(w.geometry))
    assert rep.failures == []
    assert tracer.max_nnz > 0
    assert tracer.table()["linalg.SparseFactor"]["calls"] == FACTORIZATIONS[name]


@pytest.mark.parametrize("name", BENCHMARKED)
def test_traced_repetition_samples_the_problem_once_per_step(workloads, tracing, name):
    w = workloads.WORKLOADS[name]
    case = workloads.make_case(w)
    with tracing.instrument(tracing.Tracer()) as tracer:
        workloads.run_once(w, tracer.trace_case(case), geometry.load_geometry(w.geometry))
    assert COEFFICIENT_CALLS[name] == 7 * w.steps
    assert tracer.table()["problem.coefficients"]["calls"] == COEFFICIENT_CALLS[name]


def test_each_workload_takes_its_pinned_volume_path(workloads):
    # rotating_square_k2 and sec8_square_k2 assemble from unit matrices at
    # every step; reaction_annulus_k3, whose b varies, by points
    assert sorted(UNIT_PATH) == sorted(BENCHMARKED)
    for name in BENCHMARKED:
        w = workloads.WORKLOADS[name]
        p = workloads.make_case(w).problem
        disc = assembly.Discretization(
            geometry.uniform_space(w.degree, w.spans), geometry.load_geometry(w.geometry)
        )
        paths = {
            assembly._uniform_terms(*assembly._operator_coefficients(disc, p, t)[:3]) is not None
            for t in timestepping.TimeGrid(w.steps, p.T).nodes[1:]
        }
        assert paths == {UNIT_PATH[name]}, name
