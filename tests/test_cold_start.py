"""What ulpsim imports, each checked in a fresh interpreter.

ulpsim needs numpy and the standard library only; the process pool is
imported by run_point with workers > 1, on first use. Inside the test session
other modules (scipy.stats in test_randomness) may have loaded them already,
so every check here runs in a new interpreter, with warnings as errors.
"""

import os
import re
import subprocess
import sys
import tomllib
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


def test_third_party_imports_are_the_declared_dependencies():
    # Every module, a rejected zero-forcing build, and a serial and a pooled
    # run_point: the third-party packages they load must be exactly
    # [project].dependencies.
    out = run_fresh("""import sys
before = set(sys.modules)
import importlib, pkgutil
import numpy as np
import ulpsim
for info in pkgutil.iter_modules(ulpsim.__path__):
    importlib.import_module(f"ulpsim.{info.name}")
from ulpsim import precoder
from ulpsim.errors import SingularMatrixError
from ulpsim.harness import SimulationConfig, run_point
try:
    precoder.build_conventional(np.ones((2, 2), dtype=complex), m=0.0, sigma2=0.0)
except SingularMatrixError as exc:
    assert exc.index == 0
else:
    raise AssertionError("singular build accepted")
for workers in (1, 2):
    run_point(SimulationConfig(realizations=2, frames=2, symbols_per_frame=10, seed=99),
              precoder.SchemeMode.from_label("LMMSEP"), 10.0, workers=workers)
# multiprocessing aliases the main module as __mp_main__. A compiled Cython
# extension (numpy.random's Philox) registers cython_runtime and
# _cython_<version> as modules when it loads; they are part of that
# extension's package, not packages of their own.
loaded = {name.split(".")[0] for name in set(sys.modules) - before
          if not name.startswith("__") and name != "cython_runtime"
          and not name.startswith("_cython_")}
print(sorted(loaded - set(sys.stdlib_module_names) - {"ulpsim"}))
""")
    with open(SRC.parent / "pyproject.toml", "rb") as f:
        declared = tomllib.load(f)["project"]["dependencies"]
    names = sorted(re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
                   for d in declared)
    assert out.strip() == str(names)
    assert "scipy" not in out


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
