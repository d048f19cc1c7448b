"""Every script in demos/ runs its ``main()`` to the end and prints what
it printed when its golden file was taken.

A demo that writes files writes them under its module-level ``OUT``
directory, which is pointed at a temporary directory here; that path is
replaced by ``OUT_PLACEHOLDER`` before stdout is compared with
``tests/golden/demos/<stem>.txt``.  A golden file is a demo's stdout with
that replacement made, so a demo whose output changes on purpose needs its
file taken afresh in the same change.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"
OUT_PLACEHOLDER = "<OUT>"


def test_demos_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_main_runs(path, tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    writes = hasattr(module, "OUT")
    if writes:
        monkeypatch.setattr(module, "OUT", tmp_path / "demo_out")
    module.main()
    out = capsys.readouterr().out.replace(str(tmp_path / "demo_out"), OUT_PLACEHOLDER)
    assert out
    if writes:
        assert any((tmp_path / "demo_out").iterdir())
    assert out == (GOLDEN / f"{path.stem}.txt").read_text()
