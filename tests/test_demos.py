"""The demos run end to end: each script under demos/ is executed as
__main__ in this process, with its output captured, and must finish
without raising.  They use the public API, so a renamed or removed
function shows up here."""

import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 3


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out
