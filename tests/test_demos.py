"""Smoke test: every script in demos/ runs its ``main()`` to the end.

A demo that writes files writes them under its module-level ``OUT``
directory, which is pointed at a temporary directory here.
"""

import importlib.util
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


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
    assert capsys.readouterr().out
    if writes:
        assert any((tmp_path / "demo_out").iterdir())
