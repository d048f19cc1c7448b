"""Self-test of the benchmark's correctness gate.

    python3 perfbench/selftest.py

Checks three things and exits 0 when all hold:

1. one run of every workload passes the gate against its recorded reference;
2. the same result fails the gate once each reference is moved by a
   relative 1e-4;
3. a wrong program is counted as failed by ``run.py``: the rotating case
   with its forcing correction left out fails the case check and every
   repetition counts in ``failed``.
"""

import io
import json
import sys
from contextlib import redirect_stdout
from dataclasses import replace

import run

run.import_solver()
import workloads  # noqa: E402  (imports the solver found by import_solver)

PERTURBATION = 1e-4
ROTATING = workloads.rotating_sec8


def uncorrected_rotating():
    """The rotating advection field with paper_sec8's forcing: inconsistent."""
    from nitsche_iga import problem

    case = ROTATING()
    base = problem.builtin_case("paper_sec8")
    return replace(case, problem=replace(case.problem, f=base.problem.f))


def main():
    from nitsche_iga import geometry

    ok = True
    for w in workloads.WORKLOADS.values():
        case = workloads.make_case(w)
        rep = workloads.run_once(w, case, geometry.load_geometry(w.geometry))
        moved = {k: v * (1 + PERTURBATION) for k, v in w.reference.items()}
        tripped = workloads.gate(moved, rep.values)
        passed = not rep.failures and len(tripped) == len(moved)
        ok &= passed
        print(f"{w.name}: gate {'passes' if not rep.failures else 'FAILS'} on the reference, "
              f"trips on {len(tripped)} of {len(moved)} moved values -> {'ok' if passed else 'BAD'}")

    workloads.rotating_sec8 = uncorrected_rotating
    run.RESULTS = run.RESULTS / "selftest"
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            run.main(["--workload", "rotating_square_k2", "--seed", "0", "--seconds", "0"])
    finally:
        workloads.rotating_sec8 = ROTATING
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    counted = not result["correct"] and result["failed"] == result["attempted"] >= 1
    ok &= counted
    print(f"uncorrected rotating case: {result['failed']} of {result['attempted']} runs "
          f"counted failed -> {'ok' if counted else 'BAD'}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
