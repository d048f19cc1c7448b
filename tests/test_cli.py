import csv
import dataclasses

import numpy as np
import pytest

from nitsche_iga import assembly, cli
from nitsche_iga.cli import build_run_config, main, parse_config_file, parse_tau_rule
from nitsche_iga.errors import ConfigError
from nitsche_iga.splines import MAX_DEGREE

BASE = """
# demo run file
case = zero
geometry = square
degree = 1
levels = 4
num_steps = 3
epsilon_factor = 1.25
"""


def write_config(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestConfigParsing:
    def test_comments_and_values(self, tmp_path):
        raw = parse_config_file(write_config(tmp_path, BASE))
        assert raw["case"] == "zero"
        assert raw["levels"] == "4"

    def test_unknown_key(self, tmp_path):
        path = write_config(tmp_path, BASE + "\nwibble = 3\n")
        with pytest.raises(ConfigError, match="wibble"):
            parse_config_file(path)

    def test_duplicate_key(self, tmp_path):
        path = write_config(tmp_path, BASE + "\ncase = zero\n")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_file(path)

    def test_missing_required_key_is_named(self):
        with pytest.raises(ConfigError, match="'case'"):
            build_run_config({"degree": "1", "levels": "4", "num_steps": "2"})

    def test_both_epsilon_keys_rejected(self):
        with pytest.raises(ConfigError, match="epsilon"):
            build_run_config(
                {
                    "case": "zero",
                    "degree": "1",
                    "levels": "4",
                    "num_steps": "2",
                    "epsilon": "1.0",
                    "epsilon_factor": "1.0",
                }
            )

    def test_both_time_keys_rejected(self):
        with pytest.raises(ConfigError, match="tau_rule"):
            build_run_config(
                {
                    "case": "zero",
                    "degree": "1",
                    "levels": "4",
                    "num_steps": "2",
                    "tau_rule": "h^1",
                }
            )

    def test_levels_must_increase(self):
        with pytest.raises(ConfigError, match="levels"):
            build_run_config(
                {"case": "zero", "degree": "1", "levels": "8 4", "num_steps": "2"}
            )

    def test_default_epsilon_factor(self):
        cfg = build_run_config(
            {"case": "zero", "degree": "1", "levels": "4", "num_steps": "2"}
        )
        assert cfg.epsilon_factor == 1.25

    def test_tau_rule_forms(self):
        assert parse_tau_rule("h^2") == (1.0, 2.0)
        assert parse_tau_rule("0.25*h^1") == (0.25, 1.0)
        assert parse_tau_rule("h") == (1.0, 1.0)
        with pytest.raises(ConfigError):
            parse_tau_rule("tau=h/4")


class TestRetiredKeys:
    def test_ignored_with_a_notice(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            BASE
            + "freeze_operator = true\nsolver_maxit = 50\nsolver_tol = 1e-9\n"
            + "threads = 2\n",
        )
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 4
        assert "ignoring 'freeze_operator': operator reuse is now automatic" in err[0]
        assert "ignoring 'solver_maxit'" in err[1]
        assert "ignoring 'solver_tol'" in err[2]
        assert "ignoring 'threads': levels always run in order on one thread" in err[3]
        manifest = (out / "manifest.txt").read_text()
        assert "freeze_operator" not in manifest
        assert "solver_tol" not in manifest
        assert "threads" not in manifest

    def test_quadrature_order_changes_no_output(self, tmp_path, capsys):
        # the discretization takes the largest degree plus two: a run file
        # that sets the order writes the bytes of one that does not
        cfg = BASE.replace("case = zero", "case = steady_reaction")
        cfg = cfg.replace("degree = 1", "degree = 3")
        outputs = []
        for name, extra in (("plain", ""), ("keyed", "quadrature_order = 7\n")):
            path = write_config(tmp_path, cfg + extra, name=f"{name}.cfg")
            out = tmp_path / name
            argv = ["solve", "--config", path, "--out", str(out), "--geometry", "quarter_annulus"]
            assert main(argv) == 0
            err = capsys.readouterr().err.splitlines()
            assert len(err) == len(extra.splitlines()), err
            outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
        reason = "the quadrature order is the largest degree plus two"
        assert f"ignoring 'quadrature_order': {reason}" in err[0]
        assert sorted(outputs[0]) == ["manifest.txt", "solution_t1.csv"]
        assert outputs[0] == outputs[1]
        assert b"quadrature_order = default\n" in outputs[0]["manifest.txt"]

    def test_every_known_key_is_a_config_field(self):
        # a key that parses must reach the run; a retired key is not known
        fields = {f.name for f in dataclasses.fields(cli.RunConfig)}
        assert cli._KNOWN_KEYS == fields
        assert len(fields) == 10
        assert not fields & set(cli._IGNORED_KEYS)


class TestExitCodes:
    def test_missing_key_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, "case = zero\nlevels = 4\nnum_steps = 2\n")
        assert main(["solve", "--config", path]) == 2
        assert "'degree'" in capsys.readouterr().err

    def test_unreadable_config_exits_2(self, tmp_path):
        assert main(["solve", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_single_level_convergence_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, BASE)
        assert main(["convergence", "--config", path, "--out", str(tmp_path / "o")]) == 2
        assert "level" in capsys.readouterr().err

    def test_multi_level_solve_exits_2(self, tmp_path):
        cfg = BASE.replace("levels = 4", "levels = 4 8")
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 2

    def test_multi_level_calibrate_exits_2(self, tmp_path, capsys):
        cfg = BASE.replace("levels = 4", "levels = 2 4")
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["calibrate", "--config", path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "'levels'" in captured.err and "calibrate" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_boundary_datum_off_the_geometry_exits_2(self, tmp_path, capsys):
        # paper_sec8 has g = 0, the trace of u only on the unit square
        cfg = (
            "case = paper_sec8\ngeometry = quarter_annulus\ndegree = 1\n"
            "levels = 2 4\nnum_steps = 1\n"
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main(["convergence", "--config", path, "--out", str(out)]) == 2
        assert "Dirichlet datum" in capsys.readouterr().err
        assert not (out / "report.csv").exists()

    @pytest.mark.parametrize(
        "line",
        [
            "num_steps = 0",
            "levels = 0",
            f"degree = {MAX_DEGREE + 1}",
            "epsilon = -1",
            "epsilon_factor = 0",
            "tau_rule = 0*h^1",
            "degree = two",
            "num_steps = 1.5",
        ],
    )
    def test_bad_value_exits_2(self, tmp_path, capsys, line):
        # the line replaces BASE's setting of its key, or of the one it excludes
        key = line.split(" = ")[0]
        replaced = {key, {"epsilon": "epsilon_factor", "tau_rule": "num_steps"}.get(key)}
        kept = [ln for ln in BASE.splitlines() if ln.split(" = ")[0] not in replaced]
        path = write_config(tmp_path, "\n".join(kept + [line]) + "\n")
        assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err
        assert key in err[0]

    @pytest.mark.parametrize("rule", ["h^2000", "1e-320*h^1"])
    def test_underflowing_tau_rule_exits_2(self, tmp_path, capsys, rule):
        # the target step is 0 or subnormal: T / tau is not finite
        cfg = BASE.replace("num_steps = 3", f"tau_rule = {rule}")
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err
        assert "target time step" in err[0]

    @pytest.mark.parametrize("command", ["solve", "convergence"])
    @pytest.mark.parametrize(
        "line, named",
        [
            ("epsilon_factor = 1e308", "penalty parameter must be a positive finite number"),
            ("epsilon = 1e308", "penalty eps/h_E overflows: eps = 1e+308"),
            ("num_steps = 100000000000000000000", "N = 100000000000000000000 steps"),
            ("tau_rule = 1e-300*h^1", "cannot allocate the trajectory"),
        ],
        ids=["eps_overflows", "eps_over_h_E_overflows", "huge_num_steps", "tiny_tau_rule"],
    )
    def test_value_that_parses_but_cannot_run_exits_2(self, tmp_path, capsys, command, line, named):
        # eps = factor x floor overflows to inf; eps = 1e308 is finite, but
        # not over h_E = 1/4 or 1/2, and is refused before numpy divides; the
        # (N + 1, dof) trajectory exceeds numpy's largest array
        key = line.split(" = ")[0]
        excluded = {"tau_rule": "num_steps", "epsilon": "epsilon_factor"}
        replaced = {key, excluded.get(key), "levels"}
        kept = [ln for ln in BASE.splitlines() if ln.split(" = ")[0] not in replaced]
        levels = "levels = 4" if command == "solve" else "levels = 2 4"
        path = write_config(tmp_path, "\n".join(kept + [line, levels]) + "\n")
        assert main([command, "--config", path, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err
        assert named in err[0], err
        assert not (tmp_path / "o").exists()

    def test_penalty_too_large_to_norm_exits_2(self, tmp_path, capsys):
        # eps/h_E is finite at h_E = 1/4, but eps times the 16 boundary
        # edges, a bound on the penalty term's Frobenius norm, does not square
        # to a finite number: refused before assembly, with no numpy warning
        text = "case = paper_sec8\ngeometry = square\ndegree = 2\nlevels = 4\nnum_steps = 4\n"
        for eps in ("1e300", "1e307", "2e307"):
            path = write_config(tmp_path, text + f"epsilon = {eps}\n")
            out = tmp_path / "o"
            assert main(["solve", "--config", path, "--out", str(out)]) == 2
            err = capsys.readouterr().err.splitlines()
            assert len(err) == 1 and err[0].startswith("config error:"), err
            assert f"penalty eps = {float(eps):g} is too large to norm" in err[0], err
            assert not out.exists()

    def test_degenerate_geometry_exits_3(self, tmp_path):
        geo = tmp_path / "collapsed.txt"
        geo.write_text(
            "degrees: 1 1\nknots1: 1; 0 0 1 1\nknots2: 1; 0 0 1 1\n"
            "0 0 1\n1 0 1\n0 0 1\n1 0 1\n"
        )
        path = write_config(tmp_path, BASE)
        code = main(
            ["solve", "--config", path, "--out", str(tmp_path / "o"),
             "--geometry", str(geo)]
        )
        assert code == 3

    @pytest.mark.parametrize("command", ["solve", "calibrate"])
    def test_small_geometry_runs(self, tmp_path, command):
        # the unit square scaled by 1e-6: det J = 1e-12 lies above the floor
        # of a net of that size
        geo = tmp_path / "small.txt"
        geo.write_text(
            "degrees: 1 1\nknots1: 1; 0 0 1 1\nknots2: 1; 0 0 1 1\n"
            "0 0 1\n1e-6 0 1\n0 1e-6 1\n1e-6 1e-6 1\n"
        )
        path = write_config(tmp_path, BASE)
        argv = [command, "--config", path, "--out", str(tmp_path / "o"), "--geometry", str(geo)]
        assert main(argv) == 0

    @pytest.mark.parametrize("command", ["solve", "convergence", "calibrate"])
    @pytest.mark.parametrize("option", ["--case", "--geometry"])
    def test_unknown_name_exits_2(self, tmp_path, capsys, command, option):
        cfg = BASE if command != "convergence" else BASE.replace("levels = 4", "levels = 2 4")
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        assert main([command, "--config", path, "--out", str(out), option, "moebius"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err
        assert "'moebius'" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "text, named",
        [
            ("degrees: 1 1\nknots2: 1; 0 0 1 1\n0 0 1\n1 0 1\n0 1 1\n1 1 1\n", "knots1"),
            ("degrees: 1 1\nknots1: 1; 0 0 1 1\nknots2: 1; 0 0 1 1\n0 0 1\n", "rows"),
            ("degrees: 1 1\nknots1: 1; 0 0 1 1\nknots2: 1; 0 0 1 1\n"
             "0 0 1\n1 0 1\n0 1 1\n1 one 1\n", "float"),
            ("degrees: 1 1\nknots1: 1; 0 1 0 1\nknots2: 1; 0 0 1 1\n"
             "0 0 1\n1 0 1\n0 1 1\n1 1 1\n", "nondecreasing"),
            ("degrees: 1 1\nknots1: 1; 0 0 1 1\nknots2: 1; 0 0 1 1\n"
             "0 0 1\n1 0 1\n0 1 1\n1 1 0\n", "weights"),
            ("degrees: 1 1\nknots1: 1; 0 0 1 1\nknots2: 1; 0 0 1 1\nknots1: 1; 0 0 1 1\n"
             "0 0 1\n1 0 1\n0 1 1\n1 1 1\n", "line 4: header key 'knots1' repeats line 2"),
            ("degrees: 1 1\nknots1: 1; 0 0 1 1\nknots2: 1; 0 0 1 1\ncolour: red\n"
             "0 0 1\n1 0 1\n0 1 1\n1 1 1\n", "line 4: unknown header key 'colour'"),
            ("degrees: 1 1\nknots1: 1; 0 0 1 1\nknots2: 1; 0 0 1 1\n"
             "2 3 1\n2 3 1\n2 3 1\n2 3 1\n", "control points must not all coincide"),
        ],
        ids=["missing_line", "row_count", "bad_number", "bad_knots", "zero_weight",
             "repeated_key", "unknown_key", "one_point"],
    )
    def test_malformed_geometry_file_exits_2(self, tmp_path, capsys, text, named):
        geo = tmp_path / "broken.txt"
        geo.write_text(text)
        path = write_config(tmp_path, BASE)
        out = tmp_path / "o"
        code = main(["solve", "--config", path, "--out", str(out), "--geometry", str(geo)])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err
        assert str(geo) in err[0] and named in err[0]
        assert not out.exists()

    @pytest.mark.parametrize(
        "geometry, settings, named",
        [
            ("degrees: 1 1\nknots1: 1; 0 0 nan 1 1\nknots2: 1; 0 0 1 1\n"
             "0 0 1\n0.5 0 1\n1 0 1\n0 1 1\n0.5 1 1\n1 1 1\n", "", ["line 2", "knots1"]),
            ("degrees: 1 1\nknots1: 1; 0 0 1 1\nknots2: 1; 0 0 1 1\n"
             "0 0 1\n1 0 1\n0 1 1\n1 1 nan\n", "", ["weights"]),
            ("degrees: 1 1\nknots1: 1; 0 0 1 1\nknots2: 1; 0 0 1 1\n"
             "0 0 1\n1 0 1\n0 nan 1\n1 1 1\n", "", ["control points"]),
            ("degrees: 1 1\nknots1: 1; 0 1 0 1\nknots2: 1; 0 0 1 1\n"
             "0 0 1\n1 0 1\n0 1 1\n1 1 1\n", "", ["line 2", "knots1"]),
            ("degrees: 1 1\nknots1: 1; 0 0 1 1\nknots2: 1; 0 0 1 1\n"
             "# control points\n0 0 1\n1 0 1\n0 1 1\n1 one 1\n", "", ["line 8"]),
        ],
        ids=["nan_knot", "nan_weight", "nan_point", "unsorted_knots", "bad_row"],
    )
    def test_malformed_input_names_the_culprit(self, tmp_path, capsys, geometry, settings, named):
        if "\n" in geometry:
            (tmp_path / "geo.txt").write_text(geometry)
            geometry = str(tmp_path / "geo.txt")
        cfg = BASE.replace("degree = 1\n", "") + (settings or "degree = 1\n")
        path = write_config(tmp_path, cfg)
        out = tmp_path / "o"
        code = main(["solve", "--config", path, "--out", str(out), "--geometry", geometry])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err
        assert all(name in err[0] for name in named), err
        assert not out.exists()

    def test_zero_error_study_exits_2(self, tmp_path, capsys):
        # the zero case is solved exactly: no level has an error to take a rate of
        path = write_config(tmp_path, BASE.replace("levels = 4", "levels = 2 4"))
        out = tmp_path / "o"
        assert main(["convergence", "--config", path, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error:"), err
        assert "level 0 (2 spans)" in err[0] and "err_l2h1 = 0" in err[0]
        assert captured.out == ""
        assert not out.exists()


class TestSolveCommand:
    def test_zero_case_snapshots_vanish(self, tmp_path):
        path = write_config(tmp_path, BASE)
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
        csvs = sorted(out.glob("solution_t*.csv"))
        assert len(csvs) == 1
        with open(csvs[0]) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y", "value"]
        vals = np.array([float(r[2]) for r in rows[1:]])
        assert len(vals) == 64 * 64
        assert np.max(np.abs(vals)) < 1e-13

    def test_manifest_always_records_floor(self, tmp_path):
        cfg = BASE.replace("epsilon_factor = 1.25", "epsilon = 9.0")
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
        manifest = (out / "manifest.txt").read_text()
        assert "penalty_floor" in manifest
        assert "eps_used = 9" in manifest

    @pytest.mark.filterwarnings("default:penalty eps")
    def test_sub_floor_penalty_warns_on_stderr(self, tmp_path, capsys):
        # one warning line on stderr; the manifest differs from that of a run
        # above the floor in its epsilon lines only
        cfg = (
            "case = paper_sec8\ngeometry = square\ndegree = 2\nlevels = 4\n"
            "num_steps = 8\nepsilon = {}\n"
        )
        runs = {}
        for eps in ("0.5", "9.0"):
            path = write_config(tmp_path, cfg.format(eps), name=f"{eps}.cfg")
            out = tmp_path / eps
            assert main(["solve", "--config", path, "--out", str(out)]) == 0
            runs[eps] = capsys.readouterr().err, (out / "manifest.txt").read_text()
        err, manifest = runs["0.5"]
        assert err.splitlines() == [
            "warning: penalty eps = 0.5 lies below the floor 8 of the 36-dof "
            "discretization (eps/floor = 0.0625); coercivity is not guaranteed"
        ]
        assert runs["9.0"][0] == ""
        lines = zip(manifest.splitlines(), runs["9.0"][1].splitlines(), strict=True)
        assert [a.split(" = ")[0] for a, b in lines if a != b] == ["epsilon_config", "eps_used"]

    def test_snapshot_times_snap_to_nodes(self, tmp_path):
        cfg = BASE + "snapshot_times = 0 0.5 1\n"
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
        names = {p.name for p in out.glob("solution_t*.csv")}
        # nodes are multiples of 1/3; 0.5 snaps to one of them
        assert "solution_t0.csv" in names
        assert "solution_t1.csv" in names
        assert len(names) == 3

    @pytest.mark.parametrize("t_req", ["-3", "100", "1.0001"])
    def test_snapshot_time_outside_interval_exits_2(self, tmp_path, capsys, t_req):
        # case zero runs on [0, 1]
        path = write_config(tmp_path, BASE + f"snapshot_times = 0.5 {t_req}\n")
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"snapshot time {float(t_req):g}" in err and "[0, 1]" in err
        assert not out.exists()

    def test_times_on_one_node_write_one_file(self, tmp_path, capsys):
        # nodes are multiples of 0.5 on [0, 4]; 0.25 snaps to 0
        cfg = (
            "case = paper_sec8\ngeometry = square\ndegree = 1\nlevels = 4\n"
            "num_steps = 8\nsnapshot_times = 0 0.25 0.5 1\n"
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
        assert "wrote 3 snapshot(s)" in capsys.readouterr().out
        names = ["solution_t0.csv", "solution_t0.5.csv", "solution_t1.csv"]
        assert {p.name for p in out.glob("solution_t*.csv")} == set(names)
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert f"snapshots = {' '.join(names)}" in manifest

    def test_case_override(self, tmp_path):
        path = write_config(tmp_path, BASE + "snapshot_times = 1\n")
        out = tmp_path / "out"
        code = main(
            ["solve", "--config", path, "--out", str(out), "--case", "steady_reaction"]
        )
        assert code == 0
        with open(next(iter(out.glob("solution_t*.csv")))) as fh:
            rows = list(csv.reader(fh))[1:]
        vals = np.array([float(r[2]) for r in rows])
        assert vals.max() > 1.0  # steady_reaction is nowhere zero

    def test_benchmark_final_profile(self, tmp_path):
        # at the final time the solution peaks toward the upper-right corner
        # region and the weakly imposed boundary value is small but nonzero
        cfg = (
            "case = paper_sec8\ngeometry = square\ndegree = 2\n"
            "levels = 10\nnum_steps = 20\nepsilon_factor = 1.25\n"
            "snapshot_times = 4\n"
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["solve", "--config", path, "--out", str(out)]) == 0
        with open(out / "solution_t4.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        x = np.array([float(r[0]) for r in rows])
        y = np.array([float(r[1]) for r in rows])
        v = np.array([float(r[2]) for r in rows])
        peak = np.argmax(v)
        assert 0.55 < x[peak] < 0.95 and 0.55 < y[peak] < 0.95
        on_boundary = (x == 0) | (x == 1) | (y == 0) | (y == 1)
        bmax = np.abs(v[on_boundary]).max()
        assert 0 < bmax < 0.1 * v.max()


class TestConvergenceCommand:
    def run(self, tmp_path, subdir="out", steps="tau_rule = h^1"):
        cfg = (
            "case = paper_sec8\ngeometry = square\ndegree = 1\n"
            f"levels = 2 4\n{steps}\nepsilon_factor = 1.25\n"
        )
        path = write_config(tmp_path, cfg, name=f"{subdir}.cfg")
        out = tmp_path / subdir
        code = main(["convergence", "--config", path, "--out", str(out)])
        return code, out

    def test_writes_report_and_loglog(self, tmp_path, capsys):
        code, out = self.run(tmp_path)
        assert code == 0
        assert "fitted" in capsys.readouterr().out
        with open(out / "report.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "level", "h", "tau", "dof", "err_l2h1", "err_l2l2", "err_bdry", "rate_l2h1",
        ]
        assert len(rows) == 3
        assert rows[1][7] == ""  # no rate at the first level
        assert float(rows[2][7]) > 0
        dat = (out / "err_vs_h.dat").read_text().splitlines()
        assert dat[0].startswith("#")
        assert len(dat) == 3

    def test_bitwise_reproducible(self, tmp_path):
        _, out1 = self.run(tmp_path, subdir="a")
        _, out2 = self.run(tmp_path, subdir="b")
        assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()
        assert (out1 / "err_vs_h.dat").read_bytes() == (out2 / "err_vs_h.dat").read_bytes()

    def test_num_steps_levels_share_one_step_count(self, tmp_path):
        code, out = self.run(tmp_path, steps="num_steps = 3")
        assert code == 0
        with open(out / "report.csv") as fh:
            taus = [row[2] for row in list(csv.reader(fh))[1:]]
        assert taus == ["1.333333333", "1.333333333"]  # T = 4 in 3 steps


class TestCalibrateCommand:
    def test_reports_floor_and_factors(self, tmp_path, capsys):
        cfg = (
            "case = paper_sec8\ngeometry = square\ndegree = 1\n"
            "levels = 4\nnum_steps = 1\nepsilon_factor = 1.25\n"
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["calibrate", "--config", path, "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "penalty_floor" in text
        assert "trace_constant" in text
        for fac in ("0.5", "1.0", "1.25", "2.0"):
            assert f"factor  {fac}" in text or f"factor {fac}" in text
        # audits must pass at and above the floor
        for line in text.splitlines():
            if "factor" in line and ("1.0" in line or "1.25" in line or "2.0" in line):
                assert "pass" in line
        assert (out / "calibrate.txt").exists()

    def test_gram_assembled_once(self, tmp_path, monkeypatch, capsys):
        # the V_h Gram depends on neither eps nor t: the four factors at
        # three times share the matrix cached on the discretization
        calls = []
        original = assembly.assemble_vh_gram
        monkeypatch.setattr(
            assembly, "assemble_vh_gram", lambda disc: calls.append(disc) or original(disc)
        )
        cfg = (
            "case = paper_sec8\ngeometry = square\ndegree = 1\n"
            "levels = 4\nnum_steps = 1\n"
        )
        path = write_config(tmp_path, cfg)
        assert main(["calibrate", "--config", path, "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_trace_constant_computed_once(self, tmp_path, monkeypatch, capsys):
        # the report line and the penalty floor read the value cached on the
        # discretization; every module's binding of the function is counted
        calls = []
        original = assembly.trace_constant
        for module in (assembly, cli):
            if getattr(module, "trace_constant", None) is original:
                monkeypatch.setattr(
                    module, "trace_constant", lambda disc: calls.append(disc) or original(disc)
                )
        cfg = (
            "case = paper_sec8\ngeometry = square\ndegree = 1\n"
            "levels = 4\nnum_steps = 1\n"
        )
        path = write_config(tmp_path, cfg)
        assert main(["calibrate", "--config", path, "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    def test_dense_limit_enforced(self, tmp_path):
        cfg = (
            "case = paper_sec8\ngeometry = square\ndegree = 1\n"
            "levels = 40\nnum_steps = 1\n"
        )
        path = write_config(tmp_path, cfg)
        assert main(["calibrate", "--config", path]) == 2
