"""Command-line harness: solve / convergence / calibrate.

Run files are flat ``key = value`` text with ``#`` comments.  Exactly one
of ``epsilon`` / ``epsilon_factor`` and exactly one of ``tau_rule`` /
``num_steps`` may be set.  Keys that older run files set and that no
longer do anything are ignored with a one-line notice on stderr that gives
the reason (``_IGNORED_KEYS``): the operator-reuse switch, the solver's
iteration limit and tolerance, the thread count, and the quadrature order,
which the discretization takes as the largest degree plus two.  ``solve``
and ``calibrate`` take exactly one entry in ``levels``; ``solve`` refuses a
snapshot time outside [0, T]; ``convergence`` refuses a case whose
Dirichlet datum is not the trace of its exact solution on the
chosen geometry or whose error is 0 on a level.  Warnings, such as a
penalty below its floor, are printed on stderr as one ``warning:`` line
each and change no output file.  Exit codes: 0 success,
2 configuration error (also unknown names, unparsable geometry files, and
values that parse but cannot run: a penalty eps, or an eps/h_E, that
overflows, a trajectory of more steps than can be allocated), 3 numerical
failure.

The pipeline is deterministic: identical configurations produce identical
output files byte for byte.
"""

import argparse
import csv
import math
import re
import sys
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import analysis
from .assembly import (
    PENALTY_FACTOR_DEFAULT, AssembledForms, Discretization, penalty_floor,
)
from .errors import ConfigError, InsufficientLevels, NitscheIgaError, UnknownCase
from .geometry import load_geometry, uniform_space
from .problem import builtin_case
from .splines import MAX_DEGREE
from .timestepping import TimeGrid, march, project_initial

CALIBRATE_FACTORS = (0.5, 1.0, 1.25, 2.0)
CALIBRATE_DOF_LIMIT = 400

# keys of older run files that no longer do anything, with the reason
_IGNORED_KEYS = {
    "freeze_operator": "operator reuse is now automatic",
    "solver_maxit": "the sparse direct solver has no iteration limit",
    "solver_tol": "the solver's residual bounds are fixed",
    "threads": "levels always run in order on one thread",
    "quadrature_order": "the quadrature order is the largest degree plus two",
}


@dataclass
class RunConfig:
    case: str
    geometry: str
    degree: int
    levels: list
    epsilon: float = None
    epsilon_factor: float = None
    tau_rule: tuple = None  # (coefficient, exponent)
    num_steps: int = None
    snapshot_times: list = field(default_factory=list)
    out: str = "out"

    def steps_for_level(self, spans, T):
        """Step count on [0, T] at ``spans`` spans: ``num_steps``, or the
        ``tau_rule`` target C * h^p with h = 1/spans, rounded up."""
        if self.num_steps is not None:
            return self.num_steps
        coef, power = self.tau_rule
        return analysis.steps_for(coef * (1.0 / spans) ** power, T)


# the run-file keys: the fields of a RunConfig
_KNOWN_KEYS = {f.name for f in fields(RunConfig)}


def parse_config_file(path):
    """Read the flat key = value format; unknown keys are config errors.

    A retired key is dropped with a notice on stderr.
    """
    raw = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {body!r}")
        key, _, val = body.partition("=")
        key, val = key.strip(), val.strip()
        if key in _IGNORED_KEYS:
            reason = _IGNORED_KEYS[key]
            print(f"{path}:{lineno}: ignoring '{key}': {reason}", file=sys.stderr)
            continue
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key '{key}'")
        if key in raw:
            raise ConfigError(f"{path}:{lineno}: duplicate key '{key}'")
        raw[key] = val
    return raw


def _number(key, text, kind, ok, requirement):
    """``text`` converted by ``kind``; a config error unless ``ok`` holds."""
    try:
        value = kind(text)
        if ok(value):
            return value
    except ValueError:
        pass
    raise ConfigError(f"'{key}' must be {requirement}, got {text!r}")


def _count(key, text, high=math.inf):
    """``text`` as an integer in 1..high; a config error otherwise."""
    bound = "a positive integer" if high == math.inf else f"an integer in 1..{high}"
    return _number(key, text, int, lambda n: 1 <= n <= high, bound)


def _positive(value):
    return 0 < value < math.inf


def parse_tau_rule(text):
    """Parse 'h^p' or 'C*h^p' (for example '0.25*h^1') with C > 0."""
    m = re.fullmatch(r"(?:([0-9.eE+-]+)\s*\*\s*)?h(?:\^([0-9.]+))?", text.strip())
    coef = power = math.nan
    if m:
        try:
            coef, power = float(m.group(1) or 1), float(m.group(2) or 1)
        except ValueError:
            pass
    if not (_positive(coef) and math.isfinite(power)):
        raise ConfigError(f"tau_rule must look like 'C*h^p' with C > 0, got {text!r}")
    return coef, power


def _require(raw, key):
    if key not in raw:
        raise ConfigError(f"missing config key '{key}'")
    return raw[key]


def build_run_config(raw, overrides=None):
    """Validate raw key/value pairs (plus CLI overrides) into a RunConfig.

    Every number is range-checked here, so a bad value is a config error.
    """
    raw = dict(raw)
    for key, val in (overrides or {}).items():
        if val is not None:
            raw[key] = str(val)

    if "epsilon" in raw and "epsilon_factor" in raw:
        raise ConfigError("set exactly one of 'epsilon' / 'epsilon_factor', not both")
    if "tau_rule" in raw and "num_steps" in raw:
        raise ConfigError("set exactly one of 'tau_rule' / 'num_steps', not both")
    if "tau_rule" not in raw and "num_steps" not in raw:
        raise ConfigError("missing config key 'tau_rule' (or 'num_steps')")

    def optional(key, parse, *args):
        return parse(key, raw[key], *args) if key in raw else None

    levels = [_count("levels", t) for t in _require(raw, "levels").replace(",", " ").split()]
    if not levels or any(b <= a for a, b in zip(levels, levels[1:])):
        raise ConfigError("'levels' must be a strictly increasing list of span counts")

    cfg = RunConfig(
        case=_require(raw, "case"),
        geometry=raw.get("geometry", "square"),
        degree=_count("degree", _require(raw, "degree"), MAX_DEGREE),
        levels=levels,
        epsilon=optional("epsilon", _number, float, _positive, "a positive number"),
        epsilon_factor=optional(
            "epsilon_factor", _number, float, _positive, "a positive number"
        ),
        tau_rule=parse_tau_rule(raw["tau_rule"]) if "tau_rule" in raw else None,
        num_steps=optional("num_steps", _count),
        snapshot_times=[
            _number("snapshot_times", t, float, math.isfinite, "a list of finite times")
            for t in raw.get("snapshot_times", "").replace(",", " ").split()
        ],
        out=raw.get("out", "out"),
    )
    if cfg.epsilon is None and cfg.epsilon_factor is None:
        cfg.epsilon_factor = PENALTY_FACTOR_DEFAULT
    return cfg


def _write_manifest(cfg, path, extra):
    lines = [
        f"case = {cfg.case}",
        f"geometry = {cfg.geometry}",
        f"degree = {cfg.degree}",
        f"levels = {' '.join(str(s) for s in cfg.levels)}",
        f"epsilon_config = {cfg.epsilon if cfg.epsilon is not None else ''}",
        f"epsilon_factor = {cfg.epsilon_factor if cfg.epsilon_factor is not None else ''}",
        f"tau_rule = {cfg.tau_rule if cfg.tau_rule else ''}",
        f"num_steps = {cfg.num_steps if cfg.num_steps is not None else ''}",
        "quadrature_order = default",
    ]
    lines += [f"{k} = {v}" for k, v in extra.items()]
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_solve(cfg):
    """March one level and write solution snapshots plus the run manifest."""
    if len(cfg.levels) != 1:
        raise ConfigError("'levels' must contain exactly one entry for solve")
    case = builtin_case(cfg.case)
    T = case.problem.T
    for t_req in cfg.snapshot_times:
        if not 0.0 <= t_req <= T:
            raise ConfigError(
                f"snapshot time {t_req:g} lies outside the time interval [0, {T:g}]"
            )
    gm = load_geometry(cfg.geometry)
    spans = cfg.levels[0]
    disc = Discretization(uniform_space(cfg.degree, spans), gm)
    forms = AssembledForms(
        disc, case.problem, epsilon=cfg.epsilon, epsilon_factor=cfg.epsilon_factor
    )

    n_steps = cfg.steps_for_level(spans, T)
    grid = TimeGrid(n_steps, T)
    u0 = project_initial(disc, case.problem.u0)
    traj = march(forms, grid, u0)

    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    # each requested time snaps to its nearest node; a node is written once
    nodes = dict.fromkeys(
        int(np.argmin(np.abs(grid.nodes - t_req))) for t_req in cfg.snapshot_times or [T]
    )
    written = []
    for idx in nodes:
        t_snap = grid.nodes[idx]
        x, y, vals = analysis.sample_on_grid(disc, traj.coefs[idx])
        fname = out / f"solution_t{t_snap:g}.csv"
        with open(fname, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "value"])
            for row in zip(x, y, vals):
                writer.writerow([f"{v:.12e}" for v in row])
        written.append(fname.name)

    _write_manifest(
        cfg,
        out / "manifest.txt",
        {
            "spans": spans,
            "dof": disc.dimension,
            "tau": f"{grid.tau:.10g}",
            "penalty_floor": f"{forms.floor:.10g}",
            "eps_used": f"{forms.eps:.10g}",
            "snapshots": " ".join(written),
        },
    )
    print(f"solve: {spans} spans, dof={disc.dimension}, eps={forms.eps:.6g} "
          f"(floor {forms.floor:.6g}), wrote {len(written)} snapshot(s) to {out}")
    return 0


def cmd_convergence(cfg):
    """Run all levels, write the rate table and the log-log data file."""
    case = builtin_case(cfg.case)
    gm = load_geometry(cfg.geometry)

    report = analysis.convergence_study(
        case, gm, cfg.degree, cfg.levels, cfg.steps_for_level,
        epsilon=cfg.epsilon, epsilon_factor=cfg.epsilon_factor,
    )

    slope = report.slope_l2h1()  # refuses a level without a rate before any output
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    analysis.write_report_csv(report, out / "report.csv")
    analysis.write_loglog_data(report, out / "err_vs_h.dat")
    for i, rec in enumerate(report.levels):
        print(
            f"level {i}: spans={rec.spans} h={rec.h:.5g} tau={rec.tau:.5g} "
            f"dof={rec.dof} err_l2h1={rec.err_l2h1:.6e} err_bdry={rec.err_bdry:.3e}"
        )
    print(f"fitted L2(J;H1) slope: {slope:.4f}")
    return 0


def cmd_calibrate(cfg):
    """Report the penalty floor and coercivity audits for a factor sweep."""
    if len(cfg.levels) != 1:
        raise ConfigError("'levels' must contain exactly one entry for calibrate")
    case = builtin_case(cfg.case)
    gm = load_geometry(cfg.geometry)
    spans = cfg.levels[0]
    space = uniform_space(cfg.degree, spans)
    if space.dimension > CALIBRATE_DOF_LIMIT:
        raise ConfigError(
            f"calibrate uses dense audits; {space.dimension} dof exceeds "
            f"{CALIBRATE_DOF_LIMIT} (use a coarser level)"
        )
    disc = Discretization(space, gm)
    p = case.problem
    floor = penalty_floor(disc, p)

    lines = [
        f"case = {cfg.case}, degree = {cfg.degree}, spans = {spans}, dof = {space.dimension}",
        f"trace_constant = {disc.trace_constant:.10g}",
        f"penalty_floor = {floor:.10g}  (alpha = {p.alpha:g}, mu1 = {p.mu1:g})",
    ]
    times = sorted({0.0, 0.5 * p.T, p.T})
    for factor in CALIBRATE_FACTORS:
        eps = factor * floor
        alphas = [analysis.coercivity_audit(disc, p, eps, t)[0] for t in times]
        worst = min(alphas)
        status = "pass" if worst > 0 else "FAIL"
        lines.append(
            f"factor {factor:>4}: eps = {eps:.6g}, min alpha_hat over t = {worst:.6e} [{status}]"
        )
    text = "\n".join(lines)
    print(text)
    if cfg.out:
        out = Path(cfg.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "calibrate.txt").write_text(text + "\n")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="nitsche-iga",
        description="Galerkin solver with weakly imposed Dirichlet data "
        "on spline discretizations",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "march one level and write snapshots"),
        ("convergence", "run a refinement study and fit rates"),
        ("calibrate", "report the penalty floor and coercivity audits"),
    ):
        s = sub.add_parser(name, help=help_text)
        s.add_argument("--config", required=True, help="flat key = value run file")
        s.add_argument("--out", default=None, help="output directory")
        s.add_argument("--case", default=None, help="override the configured case")
        s.add_argument("--geometry", default=None, help="override the configured geometry")
    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        raw = parse_config_file(args.config)
        cfg = build_run_config(
            raw,
            overrides={
                "out": args.out,
                "case": args.case,
                "geometry": args.geometry,
            },
        )
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            if args.command == "solve":
                return cmd_solve(cfg)
            if args.command == "convergence":
                return cmd_convergence(cfg)
            return cmd_calibrate(cfg)
    except (ConfigError, InsufficientLevels, UnknownCase) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NitscheIgaError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
