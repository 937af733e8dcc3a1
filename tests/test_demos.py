"""Smoke test: every script in ``demos/`` and every ``python`` code block of
``README.md`` runs to completion."""

import pathlib
import re
import runpy

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out


def test_readme_python_blocks_run(tmp_path, monkeypatch, capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)
    for i, source in enumerate(blocks):
        exec(compile(source, f"README.md python block {i}", "exec"), {"__name__": "__main__"})
    assert capsys.readouterr().out
