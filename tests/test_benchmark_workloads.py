"""Every workload of the benchmark passes its case check and its gate.

Each workload named in ``BENCHMARK.json`` runs once through
``perfbench/workloads.py``, the module ``perfbench/run.py`` times, so a
result that moves off its recorded reference fails here too.  So does
``calibrate_annulus_k2``, which ``BENCHMARK.json`` leaves out: it is the only
workload that runs the dense coercivity audit.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from nitsche_iga import geometry

ROOT = Path(__file__).resolve().parents[1]
NAMES = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
NAMES.append("calibrate_annulus_k2")


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", NAMES)
def test_workload_passes_its_gate(workloads, name):
    w = workloads.WORKLOADS[name]
    case = workloads.make_case(w)
    assert workloads.check_case(case, 0) == []
    assert workloads.run_once(w, case, geometry.load_geometry(w.geometry)).failures == []
