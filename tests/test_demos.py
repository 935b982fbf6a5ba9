"""Smoke test: every quick demo runs to completion against the library.

Each demo runs in its own process from a scratch directory, so the files
it writes (demo_out/) stay out of the tree.  Demo 06, the full desk run,
is left out: the runner path it drives is covered by test_driver.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0[1-57]_*.py"))


def test_demo_list():
    assert [name[:2] for name in DEMOS] == ["01", "02", "03", "04", "05", "07"]


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
