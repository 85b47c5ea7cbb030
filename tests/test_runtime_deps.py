"""The runtime needs numpy only: every module imports and ``verify all`` passes without scipy."""
import os
import subprocess
import sys
from pathlib import Path

import riaho

SCRIPT = """
import importlib, pkgutil, sys
sys.modules["scipy"] = None  # any import of scipy or scipy.* now raises ImportError
import riaho
for module in pkgutil.walk_packages(riaho.__path__, "riaho."):
    importlib.import_module(module.name)
from riaho import cli
sys.exit(cli.main(["verify", "all", "--outdir", sys.argv[1]]))
"""


def test_verify_all_without_scipy(tmp_path):
    src = str(Path(riaho.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", SCRIPT, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    assert any(tmp_path.glob("*.json"))
