"""Run one benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload sec8_square_k2 --seed 1 --seconds 40 --trace 0

The solver is imported from ``src/`` of the checkout this file sits in.
A run repeats the workload while another repetition still ends within
``--seconds`` (at least MIN_REPS times), checks every result against its
reference, and prints the medians.  Each phase's time is scaled to a host
of nominal speed by reference work timed around and inside it
(``hostspeed.py``); the raw times are in the record.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics.  A record of the
run is written to ``perfbench/results/``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
MIN_REPS = 3
M_MMAP_THRESHOLD = -3  # glibc's mallopt parameter
MMAP_THRESHOLD = 128 * 1024  # glibc's default, which it raises as large blocks are freed

# one BLAS thread, so that timings do not depend on how many cores are idle;
# the solver's dense work is small, and the record states the count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
# no transparent huge pages for numpy's large arrays: whether the host has
# one free decides, run by run, whether peak_rss_mb rounds up by 2 MB steps
os.environ.setdefault("NUMPY_MADVISE_HUGEPAGE", "0")

import hostspeed  # noqa: E402  (numpy reads the thread counts when first imported)

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
}

# (metric, span name, column of the trace table)
LAYER_COLUMNS = [
    ("splines.eval_basis_many.calls", "splines.eval_basis_many", "calls"),
    ("splines.eval_basis_many.points", "splines.eval_basis_many", "points"),
    ("splines.eval_basis_many.s", "splines.eval_basis_many", "self_s"),
    ("geometry.build_mesh.s", "geometry.build_mesh", "self_s"),
    ("geometry.evaluate_many.calls", "geometry.evaluate_many", "calls"),
    ("geometry.evaluate_many.points", "geometry.evaluate_many", "points"),
    ("geometry.evaluate_many.s", "geometry.evaluate_many", "self_s"),
    ("assembly.Discretization.s", "assembly.Discretization", "self_s"),
    ("assembly.trace_constant.s", "assembly.trace_constant", "self_s"),
    ("assembly.assemble_stiffness.calls", "assembly.assemble_stiffness", "calls"),
    ("assembly.assemble_stiffness.s", "assembly.assemble_stiffness", "self_s"),
    ("assembly.assemble_load.calls", "assembly.assemble_load", "calls"),
    ("assembly.assemble_load.s", "assembly.assemble_load", "self_s"),
    ("problem.coefficients.calls", "problem.coefficients", "calls"),
    ("problem.coefficients.points", "problem.coefficients", "points"),
    ("problem.coefficients.s", "problem.coefficients", "self_s"),
    ("linalg.SparseFactor.factorizations", "linalg.SparseFactor", "calls"),
    ("linalg.SparseFactor.factor_s", "linalg.SparseFactor", "self_s"),
    ("linalg.SparseFactor.solve.calls", "linalg.SparseFactor.solve", "calls"),
    ("linalg.SparseFactor.solve.s", "linalg.SparseFactor.solve", "self_s"),
    ("linalg.generalized_symmetric_eig.calls", "linalg.generalized_symmetric_eig", "calls"),
    ("linalg.generalized_symmetric_eig.s", "linalg.generalized_symmetric_eig", "self_s"),
    ("timestepping.project_initial.s", "timestepping.project_initial", "total_s"),
    ("timestepping.march.s", "timestepping.march", "total_s"),
    ("analysis.space_time_errors.s", "analysis.space_time_errors", "self_s"),
    ("analysis.coercivity_audit.calls", "analysis.coercivity_audit", "calls"),
    ("analysis.coercivity_audit.s", "analysis.coercivity_audit", "self_s"),
]

SOLVE_PHASES = ("timestepping.march", "analysis.coercivity_audit")

COLUMN_UNITS = {"calls": "count", "points": "count", "self_s": "s", "total_s": "s"}

DERIVED_UNITS = {
    "linalg.matrix_nnz": "count",
    "linalg.factorizations_per_step": "ratio",
    "assembly.stiffness_per_step": "ratio",
    "trace.run_s": "s",
    "trace.setup_s": "s",
    "trace.solve_s": "s",
    "trace.untraced_run_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "host.reference_s": "s",
    "share.stiffness_factor_of_solve": "ratio",
    "share.eval_basis_of_setup": "ratio",
    "share.stiffness_of_run": "ratio",
    "problem.dof": "count",
    "problem.steps": "count",
    "problem.operator_change_share": "ratio",
    "problem.inflow_points_min": "count",
    "problem.inflow_points_max": "count",
    "problem.inflow_change_share": "ratio",
}

PER_LAYER = {
    **{metric: COLUMN_UNITS[column] for metric, _, column in LAYER_COLUMNS},
    **DERIVED_UNITS,
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_solver():
    """Import the package from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "nitsche_iga" / "__init__.py").is_file():
        raise SystemExit(f"no solver sources under {src}")
    sys.path.insert(0, str(src))
    import nitsche_iga

    if Path(nitsche_iga.__file__).resolve().parent != (src / "nitsche_iga").resolve():
        raise SystemExit(f"imported nitsche_iga from {nitsche_iga.__file__}, not {src}")
    return nitsche_iga


def commit_id():
    """HEAD of the checkout's git directory, read from files; 'unknown' without one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    import ctypes
    import glob

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(lib, fn):
                return int(getattr(lib, fn)())
    return None


def fix_mmap_threshold():
    """Keep glibc's mmap threshold at its default; False when that is not possible.

    glibc raises the threshold each time a large block is freed, so whether
    an array is mapped or carved from the heap depends on what ran before
    it; with the threshold free to move, peak_rss_mb of sec8_square_k2 read
    between 82 and 92 MB from run to run.
    """
    try:
        libc = ctypes.CDLL("libc.so.6")
        mallopt = libc.mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1


def environment():
    import numpy as np
    import scipy

    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": np.__config__.CONFIG["Build Dependencies"]["blas"]["name"],
        "blas_threads": blas_threads(),
        "numpy_madvise_hugepage": os.environ.get("NUMPY_MADVISE_HUGEPAGE"),
    }


def median(values):
    return statistics.median(values) if values else 0.0


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # KiB on Linux


def main(argv=None):
    args = parse_args(argv)
    mmap_fixed = fix_mmap_threshold()
    import_solver()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        known = ", ".join(workloads.WORKLOADS)
        raise SystemExit(f"unknown workload {args.workload!r}; known: {known}")
    w = workloads.WORKLOADS[args.workload]
    from nitsche_iga import geometry

    case = workloads.make_case(w)
    gm = geometry.load_geometry(w.geometry)
    case_failures = workloads.check_case(case, args.seed)
    props = workloads.operator_properties(w, case, gm) if args.trace == 1 else None

    hostspeed.reference_work()  # the first call loads scipy's LU; not a sample
    pacer = hostspeed.Pacer()
    reps, failures = [], []  # reps: (tracer or None, rep) of each that completed
    attempted = failed = 0
    start = time.perf_counter()
    last = 0.0
    while attempted < MIN_REPS or time.perf_counter() - start + last <= args.seconds:
        rep_start = time.perf_counter()
        gc.collect()  # the last repetition's garbage is not this one's cost
        pacer.sample()
        # untraced repetitions get the pacer's sampling points, traced ones the spans
        tracer = tracing.Tracer() if args.trace == 1 and attempted % 2 == 1 else None
        try:
            with tracing.instrument(tracer or pacer):
                rep = workloads.run_once(
                    w, tracer.trace_case(case) if tracer else case, gm, pacer.sample
                )
            reps.append((tracer, rep))
            problems = case_failures + rep.failures
        except Exception as exc:  # a run that raises is counted, not fatal
            problems = [f"{type(exc).__name__}: {exc}"]
        attempted += 1
        if problems:
            failed += 1
            failures += [f"rep {attempted}: {msg}" for msg in problems]
        last = time.perf_counter() - rep_start
    gc.collect()
    pacer.sample()

    def times(rep, measure):
        setup, solve, check = (measure(*bounds) for bounds in (rep.setup, rep.solve, rep.check))
        return {"run_s": setup + solve + check, "setup_s": setup, "solve_s": solve}

    plain = [(times(r, pacer.raw), times(r, pacer.scaled)) for t, r in reps if t is None]
    traced = [(t, times(r, pacer.raw), times(r, pacer.scaled)) for t, r in reps if t is not None]
    if not plain or (args.trace == 1 and not traced):
        raise SystemExit("no repetition completed: " + "; ".join(failures[:3]))

    phases = ("run_s", "setup_s", "solve_s")
    raw = {name: [r[name] for r, _ in plain] for name in phases}
    samples = {name: [s[name] for _, s in plain] for name in phases}
    if args.trace == 0:
        metrics = {name: median(values) for name, values in samples.items()}
        metrics["peak_rss_mb"] = peak_rss_mb()
        units = END_TO_END
    else:
        metrics = layer_metrics(w, plain, traced)
        metrics["host.reference_s"] = median(pacer.seconds())
        metrics.update({f"problem.{k}": v for k, v in props.items()})
        units = PER_LAYER
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": {k: v for k, v in vars(w).items() if k != "reference"},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit_id(),
        "environment": {**environment(), "mmap_threshold_fixed": mmap_fixed},
        "loop": "closed: one repetition at a time, the next starts when the last is checked",
        "nominal_reference_s": hostspeed.NOMINAL_S,
        "reference_s": pacer.seconds(),
        "failed_frac": failed / attempted,
        "failures": failures,
        "samples": {name: len(values) for name, values in samples.items()},
        "untraced": samples,
        "untraced_raw": raw,
        "traced_samples": len(traced),
        "values": reps[-1][1].values,
        "reference": w.reference,
        "result": result,
    }
    if traced:
        record["trace_table_last"] = traced[-1][0].table()
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for k, v in metrics.items():
        print(f"{w.name} {k} = {v:.6g} {units[k]}")
    for k, v in raw.items():
        print(f"{w.name} raw {k} = {median(v):.6g} s (unscaled)")
    print(f"{w.name} failed_frac = {failed / attempted:g} ({failed} of {attempted})")
    print(json.dumps(result))
    return 0


def layer_metrics(w, plain, traced):
    """Medians over the traced repetitions of each layer's counts and self times.

    Span times and ``trace.*_s`` are raw seconds, except ``trace.overhead_s``,
    which compares traced and untraced ``run_s`` scaled to nominal speed.
    """
    rows = [tracer.table() for tracer, _, _ in traced]
    empty = {"calls": 0, "points": 0, "total_s": 0.0, "self_s": 0.0}
    out = {}
    for metric, span, column in LAYER_COLUMNS:
        out[metric] = median([row.get(span, empty)[column] for row in rows])
    out["linalg.matrix_nnz"] = traced[-1][0].max_nnz
    # the factorizations of the march or the audits, not the L2 projection's
    solve = [tracer.self_within("linalg.SparseFactor", SOLVE_PHASES) for tracer, _, _ in traced]
    steps = max(w.steps, 1)
    out["linalg.factorizations_per_step"] = median([n for n, _ in solve]) / steps
    out["assembly.stiffness_per_step"] = out["assembly.assemble_stiffness.calls"] / steps
    out["trace.run_s"] = median([r["run_s"] for _, r, _ in traced])
    out["trace.setup_s"] = median([r["setup_s"] for _, r, _ in traced])
    out["trace.solve_s"] = median([r["solve_s"] for _, r, _ in traced])
    out["trace.untraced_run_s"] = median([r["run_s"] for r, _ in plain])
    out["trace.overhead_s"] = median([s["run_s"] for _, _, s in traced]) - median(
        [s["run_s"] for _, s in plain]
    )
    out["trace.unattributed_s"] = median(
        [r["run_s"] - tracer.root_seconds() for tracer, r, _ in traced]
    )
    stiff_factor = out["assembly.assemble_stiffness.s"] + median([s for _, s in solve])
    out["share.stiffness_factor_of_solve"] = stiff_factor / out["trace.solve_s"]
    out["share.eval_basis_of_setup"] = out["splines.eval_basis_many.s"] / out["trace.setup_s"]
    out["share.stiffness_of_run"] = out["assembly.assemble_stiffness.s"] / out["trace.run_s"]
    return out


if __name__ == "__main__":
    sys.exit(main())
