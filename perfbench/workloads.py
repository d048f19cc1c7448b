"""The benchmark's four workloads, their correctness gate and their checks.

Each workload run makes, from outside, the public calls that
``analysis.run_level`` (the three marching workloads) or the CLI's
``calibrate`` command (``calibrate_annulus_k2``) make, and times the
phases.  Names are looked up on the modules at call time, so that a traced
run sees the wrapped entry points of ``tracing.instrument``.
"""

import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from nitsche_iga import analysis, assembly, geometry, problem, timestepping

# mirrors the CLI's penalty factor sweep for `calibrate`
CALIBRATE_FACTORS = (0.5, 1.0, 1.25, 2.0)

# a result passes when |value - reference| <= GATE_RTOL * |reference|: a relative
# 1e-13 perturbation of every stiffness matrix and load moves the checked
# values by at most 2e-10, while a real defect moves them far more
GATE_RTOL = 1e-6

# a case's forcing must match its closed-form solution to roundoff
CONSISTENCY_RTOL = 1e-11
CONSISTENCY_POINTS = 256
CONSISTENCY_TIMES = 16


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stresses: str
    case: str
    geometry: str
    degree: int
    spans: int
    steps: int  # 0 for the calibration sequence, which does not march
    reference: dict


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="sec8_square_k2",
            why="the paper's section 8 case on the unit square; an autonomous operator "
            "marched step by step, the case operator reuse should speed up",
            stresses="assembly.assemble_stiffness and linalg.SparseFactor in the march",
            case="paper_sec8",
            geometry="square",
            degree=2,
            spans=24,
            steps=24,
            reference={
                "err_l2h1": 0.523250106059482,
                "err_l2l2": 0.05982292928862171,
            },
        ),
        Workload(
            name="rotating_square_k2",
            why="a rotating advection field changes the operator every step (and the "
            "inflow set every quarter turn), so operator reuse must not apply; many "
            "steps of a small system",
            stresses="per-step assembly, coefficient evaluation and factorization set-up",
            case="rotating_sec8",
            geometry="square",
            degree=2,
            spans=12,
            steps=64,
            reference={
                "err_l2h1": 0.20076431731656671,
                "err_l2l2": 0.022295304561947834,
            },
        ),
        Workload(
            name="reaction_annulus_k3",
            why="a steady solution on the curved NURBS annulus at k=3, one step; "
            "set-up dominates and the curved domain is under the accuracy gate",
            stresses="splines.eval_basis_many, geometry.evaluate_many and the "
            "Discretization caches",
            case="steady_reaction",
            geometry="quarter_annulus",
            degree=3,
            spans=32,
            steps=1,
            reference={
                "err_l2h1": 6.662434348119163e-05,
                "err_l2l2": 9.436155449292236e-07,
            },
        ),
        Workload(
            name="calibrate_annulus_k2",
            why="the penalty calibration sequence at 400 dof, the only user of the "
            "dense coercivity audit",
            stresses="assembly.trace_constant and analysis.coercivity_audit",
            case="steady_reaction",
            geometry="quarter_annulus",
            degree=2,
            spans=18,
            steps=0,
            reference={
                "trace_constant": 13.338333440539296,
                "alpha_min_0.5": 0.12917401282356755,
                "alpha_min_1": 0.5649807870197998,
                "alpha_min_1.25": 0.6542518272322074,
                "alpha_min_2": 0.7872907536915381,
            },
        ),
    ]
}


def rotating_sec8():
    """``paper_sec8`` with the advection field b(t) = (cos pi t/2, sin pi t/2).

    The exact solution is unchanged; the forcing gains (b(t) - (1, 1)) . grad u.
    """
    base = problem.builtin_case("paper_sec8")
    p = base.problem

    def b(x, y, t):
        a = 0.5 * np.pi * t
        return np.broadcast_to(np.array([np.cos(a), np.sin(a)]), (len(np.atleast_1d(x)), 2))

    def f(x, y, t):
        a = 0.5 * np.pi * t
        g = base.grad_u(x, y, t)
        return p.f(x, y, t) + (np.cos(a) - 1.0) * g[:, 0] + (np.sin(a) - 1.0) * g[:, 1]

    return replace(base, name="rotating_sec8", problem=replace(p, b=b, f=f))


def make_case(w):
    if w.case == "rotating_sec8":
        return rotating_sec8()
    return problem.builtin_case(w.case)


def check_case(case, seed):
    """Problems with the case itself, checked at points drawn from ``seed``.

    The forcing must satisfy the PDE for the stored exact solution
    (``consistency_residual``) and the coefficients must satisfy the
    ellipticity hypotheses (``coefficient_audit``).
    """
    rng = np.random.default_rng(seed)
    p = case.problem
    worst = 0.0
    scale = 1.0
    for t in rng.random(CONSISTENCY_TIMES) * p.T:
        x, y = rng.random((2, CONSISTENCY_POINTS))
        worst = max(worst, float(np.abs(problem.consistency_residual(case, x, y, t)).max()))
        scale = max(scale, float(np.abs(p.f(x, y, t)).max()))
    failures = []
    if not worst <= CONSISTENCY_RTOL * scale:
        failures.append(f"consistency residual {worst:.3e} against |f| <= {scale:.3e}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        audit = problem.coefficient_audit(p, seed=seed)
    failures += [f"coefficient audit: {key}" for key, ok in audit.items() if not ok]
    return failures


def gate(reference, values):
    """One message per value that misses its reference (empty when all pass)."""
    return [
        f"{key} = {values.get(key)!r}, reference {ref!r}"
        for key, ref in reference.items()
        if key not in values or not abs(values[key] - ref) <= GATE_RTOL * abs(ref)
    ]


@dataclass
class Rep:
    """One workload run: the start and end of each phase, and checked values.

    ``setup`` is the set-up, ``solve`` the march or the audits, and ``check``
    what follows (error norms and the gate); each is a pair of
    ``time.perf_counter`` readings.
    """

    setup: tuple
    solve: tuple
    check: tuple
    values: dict
    failures: list


def run_march(w, case, gm, pause):
    """``run_level``'s sequence: set up, march, measure the space-time errors."""
    p = case.problem
    t0 = time.perf_counter()
    space = geometry.uniform_space(w.degree, w.spans)
    mesh = geometry.build_mesh(gm, space)
    disc = assembly.Discretization(space, mesh)
    forms = assembly.AssembledForms(disc, p)
    u0 = timestepping.project_initial(disc, p.u0)
    t1 = time.perf_counter()
    pause()
    t1b = time.perf_counter()
    traj = timestepping.march(forms, timestepping.TimeGrid(w.steps, p.T), u0)
    t2 = time.perf_counter()
    err_h1, err_l2 = analysis.space_time_errors(traj, case)
    values = {"err_l2h1": err_h1, "err_l2l2": err_l2}
    failures = gate(w.reference, values)
    t3 = time.perf_counter()
    return Rep((t0, t1), (t1b, t2), (t2, t3), values, failures)


def run_calibrate(w, case, gm, pause):
    """``calibrate``'s sequence: trace constant, penalty floor, coercivity audits."""
    p = case.problem
    t0 = time.perf_counter()
    space = geometry.uniform_space(w.degree, w.spans)
    mesh = geometry.build_mesh(gm, space)
    disc = assembly.Discretization(space, mesh)
    c_star = assembly.trace_constant(disc)
    floor = assembly.penalty_floor(disc, p)
    t1 = time.perf_counter()
    pause()
    t1b = time.perf_counter()
    times = sorted({0.0, 0.5 * p.T, p.T})
    values = {"trace_constant": c_star}
    for factor in CALIBRATE_FACTORS:
        alphas = [analysis.coercivity_audit(disc, p, factor * floor, t)[0] for t in times]
        values[f"alpha_min_{factor:g}"] = min(alphas)
    t2 = time.perf_counter()
    failures = gate(w.reference, values)
    t3 = time.perf_counter()
    return Rep((t0, t1), (t1b, t2), (t2, t3), values, failures)


def run_once(w, case, gm, pause=lambda: None):
    """One repetition; ``pause()`` is called between set-up and solve, in no phase."""
    return (run_march if w.steps else run_calibrate)(w, case, gm, pause)


def operator_properties(w, case, gm):
    """Workload properties that operator reuse depends on, counted from outside.

    ``operator_change_share`` is the share of steps after the first whose
    mu, b, c (at the volume quadrature points) and inflow mask differ bit-wise
    from the previous step's; ``inflow_change_share`` counts the inflow mask
    alone.
    """
    p = case.problem
    space = geometry.uniform_space(w.degree, w.spans)
    out = {"dof": space.dimension, "steps": w.steps}
    if not w.steps:
        zero = ("operator_change_share", "inflow_change_share", "inflow_points_min", "inflow_points_max")
        return {**out, **dict.fromkeys(zero, 0)}
    disc = assembly.Discretization(space, geometry.build_mesh(gm, space))
    x, y = disc.elements.x.reshape(-1, 2).T
    nodes = timestepping.TimeGrid(w.steps, p.T).nodes[1:]
    changed = mask_changed = 0
    inflow = []
    last = None
    for t in nodes:
        mask, _ = assembly.inflow_mask(disc, p, t)
        state = [np.asarray(fn(x, y, t)).tobytes() for fn in (p.mu, p.b, p.c)]
        state.append(mask.tobytes())
        if last is not None:
            changed += state != last
            mask_changed += state[-1] != last[-1]
        last = state
        inflow.append(int(mask.sum()))
    out["operator_change_share"] = changed / max(1, len(nodes) - 1)
    out["inflow_change_share"] = mask_changed / max(1, len(nodes) - 1)
    out["inflow_points_min"] = min(inflow)
    out["inflow_points_max"] = max(inflow)
    return out
