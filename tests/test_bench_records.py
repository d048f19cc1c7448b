"""The committed benchmark trajectory: every ``BENCH_*.json`` at the root of
the repository, checked against ``BENCHMARK.json``.

A record holds interleaved pairs of ``perfbench/run.py`` runs of a parent
commit and of a change, taken in one session.  Per workload and end-to-end
metric it keeps each side's run values with their median and quartiles
(``statistics.quantiles``, inclusive method); it also names the seeds, both
commits and the run record's ``environment`` block.  With no record at the
root the check passes: it has nothing to read.
"""

import copy
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def summary(runs):
    """The median and quartiles of the run values ``runs``."""
    q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def record_errors(record, bench):
    """What is wrong with the parsed record ``record`` against the parsed
    ``BENCHMARK.json`` ``bench``: one message each, none for a sound one."""
    errors = []
    seeds = record.get("seeds")
    if not (isinstance(seeds, list) and seeds and all(isinstance(s, int) for s in seeds)):
        errors.append(f"seeds must be a list of integers, got {seeds!r}")
    commits = record.get("commits", {})
    for side in SIDES:
        if not (isinstance(commits.get(side), str) and commits[side]):
            errors.append(f"no {side} commit")
    if not (isinstance(record.get("environment"), dict) and record["environment"]):
        errors.append("no environment block")
    names = {w["name"] for w in bench["workloads"]}
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    workloads = record.get("workloads")
    if not (isinstance(workloads, dict) and workloads):
        return errors + ["no workloads"]
    for workload, metrics in workloads.items():
        if workload not in names:
            errors.append(f"{workload} is not a workload of BENCHMARK.json")
        for metric, row in metrics.items():
            where = f"{workload} {metric}"
            if metric not in units:
                errors.append(f"{where}: not an end-to-end metric of BENCHMARK.json")
            elif row.get("unit") != units[metric]:
                errors.append(f"{where}: unit {row.get('unit')!r}, not {units[metric]!r}")
            lengths = set()
            for side in SIDES:
                runs = row.get(side, {}).get("runs")
                if not (isinstance(runs, list) and len(runs) >= 2):
                    errors.append(f"{where}: {side} has fewer than two runs")
                    continue
                lengths.add(len(runs))
                want = summary(runs)
                got = {key: row[side].get(key) for key in want}
                if got != pytest.approx(want, rel=1e-12):
                    errors.append(f"{where}: {side} summary {got} is not that of its runs {want}")
            if len(lengths) > 1:
                errors.append(f"{where}: the sides have different run counts")
    return errors


def test_every_record_parses_and_names_the_benchmark():
    bench = benchmark()
    for path in sorted(ROOT.glob("BENCH_*.json")):
        errors = record_errors(json.loads(path.read_text()), bench)
        assert not errors, f"{path.name}: " + "; ".join(errors)


SOUND = {
    "seeds": [1, 2],
    "commits": {"parent": "abc", "change": "def"},
    "environment": {"cores": 2},
    "workloads": {
        "sec8_square_k2": {
            "solve_s": {
                "unit": "s",
                "parent": {**summary([1.0, 2.0, 4.0]), "runs": [1.0, 2.0, 4.0]},
                "change": {**summary([0.5, 1.0, 3.0]), "runs": [0.5, 1.0, 3.0]},
            }
        }
    },
}


def _with(path, value):
    """A copy of ``SOUND`` with the item at the key path ``path`` set to
    ``value``, or removed when ``value`` is ``KeyError``."""
    record = copy.deepcopy(SOUND)
    *head, last = path
    node = record
    for key in head:
        node = node[key]
    if value is KeyError:
        del node[last]
    else:
        node[last] = value
    return record


ROW = ("workloads", "sec8_square_k2", "solve_s")


@pytest.mark.parametrize("path, value, message", [
    (("seeds",), KeyError, "seeds"),
    (("commits", "change"), "", "no change commit"),
    (("environment",), KeyError, "no environment"),
    (("workloads", "sec8_square_k2", "solve_ms"), SOUND["workloads"]["sec8_square_k2"]["solve_s"],
     "not an end-to-end metric"),
    (("workloads", "square"), {}, "not a workload"),
    (ROW + ("unit",), "ms", "unit 'ms'"),
    (ROW + ("change", "median"), 0.9, "summary"),
    (ROW + ("parent", "runs"), [1.0, 2.0, 4.0, 5.0], "summary"),
    (ROW + ("change", "runs"), KeyError, "fewer than two runs"),
])
def test_check_refuses_a_broken_record(path, value, message):
    assert record_errors(SOUND, benchmark()) == []
    errors = record_errors(_with(path, value), benchmark())
    assert any(message in e for e in errors), errors
