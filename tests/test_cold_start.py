"""What ulpsim imports, each checked in a fresh interpreter.

ulpsim needs numpy and the standard library only. numpy loads with the
simulation modules, when a sweep or a point runs: importing ulpsim, building
a config, `gaps`, `--help`, `--version` and every configuration error run
without it. The process pool is imported by run_point with workers > 1, on
first use, and argparse, csv, json and hashlib by the commands that use
them. Inside the test session other modules (scipy.stats in test_randomness)
may have loaded them already, so every check here runs in a new
interpreter, with warnings as errors.
"""

import importlib
import os
import re
import subprocess
import sys
import tomllib
from pathlib import Path

import pytest

import ulpsim

SRC = Path(ulpsim.__file__).parents[1]
DEFERRED = ("scipy", "concurrent.futures.process", "multiprocessing")
NOT_AT_START = ("numpy", *DEFERRED)


def run_fresh(code: str, *argv: str) -> str:
    """stdout of `code` run with `argv` by a new interpreter with ulpsim on its path."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-W", "error", "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_loads_no_deferred_module():
    out = run_fresh(f"import sys, ulpsim.cli\n"
                    f"print([m for m in {DEFERRED!r} if m in sys.modules])")
    assert out.strip() == "[]"


# Run as `python -m ulpsim` runs: prints the exit status, then the deferred
# modules that were loaded.
MAIN = """import runpy, sys
sys.argv[0] = "ulpsim"
try:
    runpy.run_module("ulpsim", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    print(exc.code)
print([m for m in {modules!r} if m in sys.modules])
"""


@pytest.mark.parametrize("code", [
    "import ulpsim",
    # bench/run.py's set-up: imports and a validated config.
    "from ulpsim.cli import build_config, read_config_file\n"
    "build_config(read_config_file('{config}'))",
], ids=["import", "bench_setup"])
def test_setup_loads_no_numpy(code, tmp_path):
    config = tmp_path / "run.cfg"
    config.write_text("realizations = 60\nsnr_db = 14, 20\n")
    out = run_fresh(code.format(config=config)
                    + f"\nimport sys\nprint([m for m in {NOT_AT_START!r} if m in sys.modules])")
    assert out.strip() == "[]"


@pytest.mark.parametrize("argv,status", [
    (["--version"], 0), (["--help"], 0), (["gaps", "--table", "{table}"], 0),
    (["sweep", "--realizations", "0", "--out", "{out}"], 1),
    (["point", "--scheme", "DPC", "--point-snr", "20"], 1),
    (["sweep", "--config", "{table}"], 1), (["sweep", "--no-such-flag"], 1),
    (["point", "--scheme", "LZFP", "--point-snr", "20", "--workers", "0"], 1),
], ids=["version", "help", "gaps", "bad_value", "bad_scheme", "bad_config_file", "usage",
        "bad_workers"])
def test_cli_runs_without_numpy(argv, status, tmp_path):
    table = tmp_path / "results.csv"
    table.write_text("snr_db,scheme,u,m,bit_errors,bits_total\n"
                     "14.0,LZFP,0.0,0.0,30,1000\n14.0,LMMSEP,0.0,1.0,10,1000\n")
    argv = [arg.format(table=table, out=tmp_path / "out") for arg in argv]
    lines = run_fresh(MAIN.format(modules=NOT_AT_START), *argv).splitlines()
    assert lines[-2:] == [str(status), "[]"]
    if argv[0] == "gaps":
        assert lines[:-2] == ["snr_db,scheme_a,scheme_b,gap", "14.0,LZFP,LMMSEP,2.00e-2"]
    assert not (tmp_path / "out").exists()


# Standard-library modules that each command imports where it uses them:
# argparse to parse a command line, csv to read or write a table, json to
# write the run log, hashlib to digest a config.
ON_USE = ("argparse", "csv", "json", "hashlib")


def test_bench_setup_loads_no_on_use_module(tmp_path):
    # bench/run.py's set-up: a fresh interpreter imports ulpsim.cli and builds
    # a validated config from a file.
    config = tmp_path / "run.cfg"
    config.write_text("realizations = 60\nsnr_db = 14, 20\n")
    out = run_fresh(f"""import sys
from ulpsim.cli import build_config, read_config_file
build_config(read_config_file({str(config)!r}))
print([m for m in {ON_USE!r} if m in sys.modules])
""")
    assert out.strip() == "[]"


@pytest.mark.parametrize("argv,status,absent", [
    (["--version"], 0, ("csv", "json", "hashlib")),
    (["--help"], 0, ("csv", "json", "hashlib")),
    (["sweep", "--realizations", "0", "--out", "{out}"], 1, ("csv", "json", "hashlib")),
    (["sweep", "--no-such-flag"], 1, ("csv", "json", "hashlib")),
    (["gaps", "--table", "{table}"], 0, ("json",)),
    # numpy itself imports hashlib, so point is held only to csv and json.
    (["point", "--scheme", "LZFP", "--point-snr", "20", "--realizations", "2",
      "--frames", "1", "--symbols", "5"], 0, ("csv", "json")),
], ids=["version", "help", "bad_value", "usage", "gaps", "point"])
def test_command_loads_only_what_it_runs(argv, status, absent, tmp_path):
    table = tmp_path / "results.csv"
    table.write_text("snr_db,scheme,u,m,bit_errors,bits_total\n"
                     "14.0,LZFP,0.0,0.0,30,1000\n14.0,LMMSEP,0.0,1.0,10,1000\n")
    argv = [arg.format(table=table, out=tmp_path / "out") for arg in argv]
    lines = run_fresh(MAIN.format(modules=absent), *argv).splitlines()
    assert lines[-2:] == [str(status), "[]"]


# The module each public name has always been importable from; the config
# and record types, defined in config, are imported into harness and precoder.
PUBLIC = {
    "channel": ("draw_user_pool", "select_users"),
    "harness": ("BerRecord", "BerTable", "SimulationConfig", "run_point", "run_sweep",
                "snr_db_to_noise_variance"),
    "modem": ("draw_awgn", "qpsk_demodulate", "qpsk_modulate", "transmit_receive"),
    "precoder": ("Precoder", "SchemeMode", "build_conventional", "build_unified",
                 "power_scale"),
}


def test_public_names_are_their_modules():
    assert sorted(ulpsim.__all__) == sorted(n for names in PUBLIC.values() for n in names)
    for module, names in PUBLIC.items():
        for name in names:
            value = getattr(ulpsim, name)
            assert getattr(importlib.import_module(f"ulpsim.{module}"), name) is value, name
            assert getattr(sys.modules[value.__module__], name) is value, name
    from ulpsim import config, randomness
    for name in ("STREAM_LAYOUT", "frame_word", "snr_key"):
        assert getattr(randomness, name) is getattr(config, name), name
    assert set(ulpsim.__all__) <= set(dir(ulpsim))
    with pytest.raises(AttributeError, match="no attribute 'run_sweeps'"):
        ulpsim.run_sweeps


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
