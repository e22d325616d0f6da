"""Imports that ulpsim defers to their first use, each checked in a fresh interpreter.

Importing ulpsim loads numpy and the standard library only: scipy is loaded
by solve_hermitian's pivoted-LU fallback, and the process pool by run_point
with workers > 1. Inside the test session other modules (scipy.stats in
test_randomness) may have loaded them already, so every check here runs in a
new interpreter, with warnings as errors.
"""

import os
import subprocess
import sys
from pathlib import Path

import ulpsim

SRC = Path(ulpsim.__file__).parents[1]
DEFERRED = ("scipy", "concurrent.futures.process", "multiprocessing")


def run_fresh(code: str) -> str:
    """stdout of `code` run by a new interpreter with ulpsim on its path."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_loads_no_deferred_module():
    out = run_fresh(f"import sys, ulpsim.cli\n"
                    f"print([m for m in {DEFERRED!r} if m in sys.modules])")
    assert out.strip() == "[]"


def test_lu_fallback_imports_scipy_on_first_use():
    out = run_fresh("""import sys
import numpy as np
import pytest
from ulpsim.errors import SingularMatrixError
from ulpsim.linalg import solve_hermitian
assert "scipy" not in sys.modules
a = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
assert np.allclose(a @ solve_hermitian(a, np.eye(2)), np.eye(2), atol=1e-12)
with pytest.raises(SingularMatrixError, match="pivot"):
    solve_hermitian(np.zeros((3, 3)), np.eye(3))
print("scipy" in sys.modules)
""")
    assert out.strip() == "True"


def test_pool_imports_on_first_use():
    out = run_fresh("""import sys
from ulpsim.harness import SimulationConfig, run_point
from ulpsim.precoder import SchemeMode
config = SimulationConfig(realizations=6, frames=2, symbols_per_frame=10, seed=99)
scheme = SchemeMode.from_label("LMMSEP")
serial = run_point(config, scheme, 10.0, workers=1)
assert "multiprocessing" not in sys.modules
print(run_point(config, scheme, 10.0, workers=2) == serial)
""")
    assert out.strip() == "True"
