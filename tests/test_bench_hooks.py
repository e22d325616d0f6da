"""The program names that the benchmark's tracer rebinds, checked in tier 1.

bench/tracing.py's patched() rebinds module attributes of ulpsim (the
precoder's build functions and solve_hermitian, harness.ProcessPoolExecutor
and harness.run_point) while it traces, and replay_sweep mirrors run_sweep
through the public layers. bench/test_bench.py checks them too, but it is
not part of tier 1, so without this test a renamed or deleted attribute
would break `bench/run.py --trace 1` unnoticed. The test can go when the
benchmark stops pinning program names.
"""

import importlib.util
from pathlib import Path

import ulpsim
from ulpsim import harness
from ulpsim.harness import run_sweep

TRACING = Path(ulpsim.__file__).parents[2] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_replay_counts_equal_run_sweep(tmp_path):
    tracing = load_tracing()
    config_path = tmp_path / "sweep.cfg"
    config_path.write_text("realizations = 2\nframes = 1\n")
    tracer = tracing.Tracer()
    try:
        with tracing.patched(tracer):
            replay, _ = tracing.replay_sweep(tracer, config_path, 42, tmp_path / "out")
            swept = run_sweep(replay.config)
    finally:
        # patched() restores harness.ProcessPoolExecutor as a plain module
        # attribute; drop it, so that the module's __getattr__ serves it again.
        vars(harness).pop("ProcessPoolExecutor", None)
    assert replay.records == swept.records
    assert sum(r.bit_errors for r in swept.records) > 0
    # The replay opens one harness.run_point span per cell, and run_sweep's
    # calls through the rebound module global open one more each.
    names = [span[0] for span in tracer.spans]
    assert names.count("harness.run_point") == 2 * len(swept.records)
    assert "linalg.solve_hermitian" in names
