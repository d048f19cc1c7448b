"""Spline-based Galerkin solver with weakly imposed Dirichlet conditions.

Evolutionary diffusion-advection-reaction problems are discretized with
tensor-product B-splines on (possibly NURBS-mapped) domains; Dirichlet
data enters through boundary consistency, symmetrization, inflow, and
penalty terms instead of constrained degrees of freedom, and time is
advanced by implicit Euler.

Typical flow: pick a manufactured case, a geometry, and a space; build the
discretization of the space over the geometry and the assembled forms;
project the initial datum; march; measure.

    from nitsche_iga import (
        builtin_case, load_geometry, uniform_space,
        Discretization, AssembledForms, TimeGrid,
        project_initial, march, space_time_errors,
    )

    case = builtin_case("paper_sec8")
    gm = load_geometry("square")
    space = uniform_space(degree=2, num_spans=8)
    disc = Discretization(space, gm)
    forms = AssembledForms(disc, case.problem)
    u0 = project_initial(disc, case.problem.u0)
    traj = march(forms, TimeGrid(64, case.problem.T), u0)
    err_h1, err_l2 = space_time_errors(traj, case)
"""

from .analysis import (
    ErrorReport,
    LevelRecord,
    boundary_trace_sq,
    coercivity_audit,
    convergence_study,
    fit_slope,
    run_level,
    sample_on_grid,
    space_time_errors,
    vh_norm,
)
from .assembly import (
    AssembledForms,
    Discretization,
    assemble_mass,
    assemble_stiffness,
    assemble_vh_gram,
    inflow_mask,
    penalty_floor,
    trace_constant,
)
from .errors import NitscheIgaError
from .geometry import (
    GeometryMap,
    TensorSpace,
    load_geometry,
    parse_geometry,
    uniform_space,
)
from .linalg import BandLayout, SparseFactor, generalized_symmetric_eig
from .problem import (
    ManufacturedCase,
    Problem,
    builtin_case,
    coefficient_audit,
    consistency_residual,
)
from .quadrature import QuadratureRule, gauss_rule
from .splines import (
    KnotVector,
    parse_knot_vector,
    uniform_open_knots,
    validate_knots,
)
from .timestepping import (
    SolutionTrajectory,
    TimeGrid,
    march,
    project_initial,
)

__version__ = "0.1.0"
