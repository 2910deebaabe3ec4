"""Every script under ``examples/`` runs to completion.

Each script is copied into a temporary directory and run there in a
fresh interpreter (``TMPDIR`` points into it too), so files a script
writes, such as ``serve_session.py``'s checkpoint, land outside the
repository.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_exits_zero(script, tmp_path):
    copy = shutil.copy(script, tmp_path)
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
               TMPDIR=str(tmp_path))
    proc = subprocess.run([sys.executable, copy], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
