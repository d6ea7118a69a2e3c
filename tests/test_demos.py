"""The quick demos run end to end as scripts, with every warning an error.

Demos 04 and 05 run Monte Carlo budgets of tens of seconds and are left out;
CI runs them the same way.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
QUICK_DEMOS = sorted(
    path for prefix in ("01", "02", "03") for path in ROOT.glob(f"demos/{prefix}_*.py")
)


def test_quick_demos_found():
    assert len(QUICK_DEMOS) == 3


@pytest.mark.parametrize("demo", QUICK_DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    result = subprocess.run(
        [sys.executable, "-W", "error", str(demo)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
