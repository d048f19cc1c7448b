"""Golden outputs: three CLI runs compared byte for byte with ``tests/golden/``.

The deterministic outputs (``report.csv``, ``err_vs_h.dat``, ``manifest.txt``,
the solution snapshot and ``calibrate.txt``) are promised to stay
byte-identical across refactors.  A change that alters any of them on
purpose replaces the files in ``tests/golden/`` in the same commit and
states the reason in CHANGES.md.  To rewrite them from the current code::

    PYTHONPATH=src python tests/test_golden.py
"""

from pathlib import Path

import pytest

from nitsche_iga.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

# name -> (command, run file, files the run writes)
RUNS = {
    "convergence": (
        "convergence",
        "case = steady_reaction\ngeometry = quarter_annulus\ndegree = 2\n"
        "levels = 2 4\ntau_rule = h^1\n",
        ("report.csv", "err_vs_h.dat"),
    ),
    "solve": (
        "solve",
        "case = paper_sec8\ngeometry = square\ndegree = 2\n"
        "levels = 4\nnum_steps = 8\n",
        ("manifest.txt", "solution_t4.csv"),
    ),
    "calibrate": (
        "calibrate",
        "case = steady_reaction\ngeometry = quarter_annulus\ndegree = 2\n"
        "levels = 4\nnum_steps = 1\n",
        ("calibrate.txt",),
    ),
}


def run(name, workdir):
    """Run one golden configuration; returns its output directory."""
    command, text, _ = RUNS[name]
    config = workdir / f"{name}.cfg"
    config.write_text(text)
    out = workdir / name
    assert main([command, "--config", str(config), "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_golden_files(name, tmp_path, capsys):
    out = run(name, tmp_path)
    capsys.readouterr()
    for fname in RUNS[name][2]:
        expected = (GOLDEN / name / fname).read_bytes()
        assert (out / fname).read_bytes() == expected, f"{name}/{fname} changed"


if __name__ == "__main__":
    for name in RUNS:
        run(name, GOLDEN)
        (GOLDEN / f"{name}.cfg").unlink()
