"""Every demo script, and the README's example, runs to completion against
the checkout's package."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_exits_cleanly(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    if demo.stem == "03_log_sessionization":
        # the log's ids, read through result.names, not their codes
        assert "root=http://news.example/" in proc.stdout


def test_readme_example_runs(tmp_path):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", block], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
