"""Every script under ``scripts/`` still imports the package names it uses.

Each one runs as ``__main__`` with ``--help``, which imports it whole and
exits 0 from its argument parser without computing anything.
"""

import runpy
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))


def test_scripts_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda p: p.name)
def test_script_help_exits_zero(path, monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", [str(path), "--help"])
    with pytest.raises(SystemExit) as info:
        runpy.run_path(str(path), run_name="__main__")
    assert info.value.code == 0
    assert "usage:" in capsys.readouterr().out
