"""Every script in demos/ runs its ``main()`` to the end and prints what
it printed when its golden file was taken.

A demo that writes files writes them under its module-level ``OUT``
directory, which is pointed at a temporary directory here; that path is
replaced by ``OUT_PLACEHOLDER`` before stdout is compared with
``tests/golden/demos/<stem>.txt``.  A golden file is a demo's stdout with
that replacement made, so a demo whose output changes on purpose needs its
file taken afresh in the same change.  To rewrite them all from the
current code::

    PYTHONPATH=src python tests/test_demos.py
"""

import contextlib
import importlib.util
import io
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"
OUT_PLACEHOLDER = "<OUT>"


def demo_output(path, out):
    """``(stdout, writes)`` of the demo at ``path`` run in a fresh module:
    its stdout with the directory ``out``, at which its ``OUT`` is pointed
    when it has one, replaced by ``OUT_PLACEHOLDER``, and whether it has."""
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    writes = hasattr(module, "OUT")
    if writes:
        module.OUT = out
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        module.main()
    return stdout.getvalue().replace(str(out), OUT_PLACEHOLDER), writes


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_main_runs(path, tmp_path):
    out, writes = demo_output(path, tmp_path / "demo_out")
    assert out
    if writes:
        assert any((tmp_path / "demo_out").iterdir())
    assert out == (GOLDEN / f"{path.stem}.txt").read_text()


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for path in DEMOS:
            (GOLDEN / f"{path.stem}.txt").write_text(demo_output(path, Path(tmp) / "demo_out")[0])
