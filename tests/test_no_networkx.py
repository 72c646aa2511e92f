"""The library runs without networkx: it is a test-only dependency, used by
the cross-check oracles."""

import os
import subprocess
import sys

from coarse_menger.acceptance import CRITERIA

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCRIPT = """
import sys
sys.modules["networkx"] = None  # any import of networkx now raises ImportError

from coarse_menger import menger_packing
from coarse_menger.cli import main
from coarse_menger.generators import grid, grid_column

assert menger_packing(grid(3, 5), grid_column(3, 5, 0), grid_column(3, 5, 4)) == 3
sys.exit(main(["run-acceptance"]))
"""


def test_library_and_cli_run_with_networkx_blocked():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for key in CRITERIA:
        assert f"PASS {key}" in proc.stderr
