#!/usr/bin/env python3
"""ulpsim benchmark: three closed-loop workloads, checked outputs, traced layers.

Run from the repository root:

    python3 bench/run.py --workload sweep_frames --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py): sweep_frames, sweep_channels, point_grid;
`--workload all` runs the three one after another.
`--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
spends half the time untraced and half traced, and reports the per-layer
metrics; per-layer `.calls` and byte counts are exact counts per table (one
sweep, or one pass over the point grid). `--smoke` shrinks every workload
so that a run of a second or two still reports every metric.

End-to-end metrics (tracing off). A table is one sweep or one grid pass.
- wall_s: median wall time of a table.
- sim_bits_per_s, realizations_per_s: simulated bits, and (scheme, SNR,
  realization) evaluations, per table over the median table time.
- point_ms_p50: median latency of the `harness.run_point` calls the run
  made (the sweeps' calls come from inside `run_sweep`).
- setup_s: median over fresh interpreters of imports plus build_config,
  timed between tables at even intervals over the run.
- peak_rss_mb: peak RSS of this process or any child, whichever is larger.
Printed but not tracked in BENCHMARK.json:
- point_ms_p90, with its sample count (refused with fewer than 10 samples
  beyond it). On a shared 2-vCPU VM it follows the hypervisor's stolen time
  too widely for any bound.
- failed_frac (failed / attempted records), which decides the exit status;
  it is 0 whenever all is well, so it cannot be a ratio-bounded metric.

Every table's records are checked (checks.py); the stored reference lives
in reference.json (make_reference.py rebuilds it). Human-readable lines go
first; the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Exit status: 0 when every record passed,
1 when any failed, 2 when `ulpsim` cannot be imported from ./src.
Spans and a full result record are written under bench/out/.
"""

import os

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Pinned before numpy loads; inherited by set-up children and pool workers.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(SRC))

try:
    import ulpsim
    if not Path(ulpsim.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"ulpsim imported from {ulpsim.__file__}, not from {SRC}")
    import numpy as np
    import scipy

    from checks import Checker, Record, exact_share, load_reference, percentile, record_counts
    from tracing import HARNESS_LOOP_SPANS, Tracer, patched, replay_sweep
    from workloads import (DEFAULT_SEED, NPROC, SIZES, Table, exact_check_table,
                           run_grid_table, run_table, table_seed)
except ImportError as exc:
    print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
    raise SystemExit(2)

END_TO_END = {
    "wall_s": "s", "sim_bits_per_s": "bit/s", "realizations_per_s": "1/s",
    "point_ms_p50": "ms", "setup_s": "s", "peak_rss_mb": "MB",
}
SPAN_US = ("randomness.derived_stream", "randomness.bits", "channel.draw_user_pool",
           "channel.select_users", "precoder.build_conventional", "precoder.build_unified",
           "linalg.solve_hermitian", "modem.qpsk_modulate", "modem.draw_awgn",
           "modem.transmit_receive", "modem.qpsk_demodulate", "harness.error_count")
SPAN_MS = ("harness.run_point", "cli.emit")
SPAN_CALLS = {
    "randomness.derived_stream.calls": "randomness.derived_stream",
    "channel.draw_user_pool.calls": "channel.draw_user_pool",
    "precoder.build.calls": "precoder.build",
    "linalg.solve_hermitian.calls": "linalg.solve_hermitian",
    "modem.frames.calls": "randomness.bits",
    "harness.pools_started": "harness.pool",
}
PER_LAYER = {
    **{f"{name}.us": "us" for name in SPAN_US},
    **{f"{name}.ms": "ms" for name in SPAN_MS},
    **{name: "count" for name in SPAN_CALLS},
    "linalg.cholesky_accept_ratio": "ratio", "harness.self_share": "ratio",
    "cli.bytes_written": "bytes", "trace.overhead_frac": "ratio",
    "trace.replica_exact": "bool", "check.results_exact": "ratio",
}
SETUP_REPS = 11
MIN_CALLS = 100  # run_point calls, so that 10 latencies lie beyond p90
MIN_TRACED_SWEEPS = 20  # so that 10 cli.emit spans lie beyond p50
# Fresh interpreter -> validated SimulationConfig: imports plus build_config.
SETUP_CODE = """import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from ulpsim.cli import build_config, read_config_file
build_config(read_config_file(sys.argv[2]))
print(time.perf_counter() - t0)
"""


def setup_once(config_path: Path) -> float:
    """Set-up time of one fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(config_path)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def closed_loop(workload, config_path: Path, seed: int, seconds: float, work: Path,
                min_calls: int = 1, setup_reps: int = 0):
    """Whole tables, back to back, until `seconds` have passed and `min_calls` were made.

    Between tables it also times `setup_reps` fresh-interpreter set-ups (after
    one warm-up) at even intervals over the run, so that their median samples
    the same stretch of machine time as the tables. Returns (tables, set-up times).
    """
    tables, setups = [], []
    if setup_reps:
        setup_once(config_path)
    calls = 0
    start = perf_counter()
    while (calls < min_calls or perf_counter() - start < seconds
           or len(setups) < setup_reps):
        if (len(setups) < setup_reps
                and perf_counter() - start >= len(setups) * seconds / setup_reps):
            setups.append(setup_once(config_path))
            continue
        tables.append(run_table(workload, config_path,
                                table_seed(workload.name, seed, len(tables)), work))
        calls += len(tables[-1].point_s)
    return tables, setups


def traced_loop(workload, config_path: Path, seed: int, seconds: float, work: Path):
    """Traced tables with the same seeds as `closed_loop`: (tracer, tables, bytes).

    At least MIN_TRACED_SWEEPS sweeps, so that cli.emit has a median.
    """
    tracer = Tracer()
    tables, written = [], 0
    start = perf_counter()
    with patched(tracer):
        while (len(tables) < (MIN_TRACED_SWEEPS if workload.is_sweep else 1)
               or perf_counter() - start < seconds):
            seed_i = table_seed(workload.name, seed, len(tables))
            if workload.is_sweep:
                t0 = perf_counter()
                table, nbytes = replay_sweep(tracer, config_path, seed_i, work / "replay")
                elapsed = perf_counter() - t0
                records = [Record(r.scheme_label, r.u, r.m, r.snr_db, 0.0, r.bit_errors,
                                  r.bits_total, r.ber) for r in table.records]
                tables.append(Table(records, elapsed, []))
                written = written or nbytes
            else:
                tables.append(run_grid_table(workload, config_path, seed_i))
    return tracer, tables, written


def span_p50(tracer: Tracer, name: str, scale: float) -> float:
    """Median of a span's durations in ns / scale; 0 when it never ran."""
    durations = tracer.durations(name)
    return percentile(durations, 50) / scale if durations.size else 0.0


def per_layer_metrics(tracer: Tracer, traced: list, untraced: list, written: int,
                      results_exact: float) -> dict:
    n_tables = len(traced)
    names = Counter(s[0] for s in tracer.spans)
    metrics = {f"{n}.us": span_p50(tracer, n, 1e3) for n in SPAN_US}
    metrics.update({f"{n}.ms": span_p50(tracer, n, 1e6) for n in SPAN_MS})
    metrics.update({m: names[span] / n_tables for m, span in SPAN_CALLS.items()})
    solves = names["linalg.solve_hermitian"]
    metrics["linalg.cholesky_accept_ratio"] = names["linalg.cho_solve"] / solves if solves else 0.0
    own = tracer.self_times()
    loop_self = sum(own[i] for i, s in enumerate(tracer.spans) if s[0] in HARNESS_LOOP_SPANS)
    root_wall = sum(tracer.spans[i][2] - tracer.spans[i][1] for i in tracer.roots())
    metrics["harness.self_share"] = loop_self / root_wall
    metrics["cli.bytes_written"] = written
    metrics["trace.overhead_frac"] = (statistics.median(t.wall_s for t in traced)
                                      / statistics.median(t.wall_s for t in untraced) - 1.0)
    metrics["trace.replica_exact"] = float(all(
        record_counts(a.records) == record_counts(b.records) for a, b in zip(traced, untraced)))
    metrics["check.results_exact"] = results_exact
    return metrics


def end_to_end_metrics(workload, tables: list, setup_s: float) -> dict:
    expected = workload.expected()
    cells = len(expected.cells)
    point_ms = [1e3 * s for t in tables for s in t.point_s]
    # Rates at the median table time: a table's work is fixed by the workload,
    # and the median is robust to time stolen from a few tables.
    table_s = statistics.median(t.wall_s for t in tables)
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "wall_s": table_s,
        "sim_bits_per_s": cells * expected.bits_total / table_s,
        "realizations_per_s": cells * workload.realizations / table_s,
        "point_ms_p50": percentile(point_ms, 50),
        "point_ms_p90": percentile(point_ms, 90),
        "point_samples": len(point_ms),
        "setup_s": setup_s,
        "peak_rss_mb": usage / 1024.0,  # ru_maxrss is in KiB on Linux
    }


def environment(seed: int) -> dict:
    def blas(cfg):
        return cfg.get("Build Dependencies", {}).get("blas", {})
    np_blas = blas(np.show_config(mode="dicts"))
    sp_blas = blas(scipy.show_config(mode="dicts"))
    return {
        "nproc": NPROC, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "numpy_blas": f"{np_blas.get('name')} {np_blas.get('version')}",
        "scipy_blas": f"{sp_blas.get('name')} {sp_blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "workload_seed": seed, "ulpsim": ulpsim.__version__,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*SIZES["full"], "all"],
                        help="one workload, or all three one after another")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one set-up run")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
    return max(subprocess.run([sys.executable, __file__, "--workload", name, *common]).returncode
               for name in SIZES["full"])


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    size = "smoke" if args.smoke else "full"
    workload = SIZES[size][args.workload]
    reference = load_reference()
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        config_path = work / "workload.cfg"
        config_path.write_text(workload.config_text())
        checker = Checker(reference, workload.expected())
        if args.trace:
            setup_s = None
            untraced, _ = closed_loop(workload, config_path, args.seed, args.seconds / 2, work)
            tracer, traced, written = traced_loop(workload, config_path, args.seed,
                                                  args.seconds / 2, work)
        else:
            untraced, setups = closed_loop(workload, config_path, args.seed, args.seconds, work,
                                           min_calls=MIN_CALLS,
                                           setup_reps=1 if args.smoke else SETUP_REPS)
            setup_s = statistics.median(setups)
        for table in untraced:
            checker.check_table(table.records)
            if table.error:
                checker.failures.append(table.error)
        checker.check_pooled()
        results_exact = exact_share(exact_check_table(workload, config_path, work).records,
                                    reference["exact"][f"{size}/{workload.name}"])
        if args.trace:
            metrics = per_layer_metrics(tracer, traced, untraced, written, results_exact)
            tracer.write(OUT / f"spans-{workload.name}.tsv")
            units = PER_LAYER
        else:
            metrics = end_to_end_metrics(workload, untraced, setup_s)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed)
    failed, attempted = checker.failed, checker.attempted
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()}}
    (OUT / f"result-{workload.name}-trace{args.trace}.json").write_text(json.dumps({
        **result, "workload": workload.name, "size": size, "tables": len(untraced),
        "results_exact": results_exact, "failures": checker.failures, "environment": env,
    }, indent=1))
    print(f"ulpsim benchmark: {workload.name} ({size}) seed={args.seed} trace={args.trace} "
          f"tables={len(untraced)}")
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, unit in units.items():
        print(f"  {name:34s} {metrics[name]:.6g} {unit}")
    if "point_ms_p90" in metrics:
        print(f"  {'point_ms_p90 (untracked)':34s} {metrics['point_ms_p90']:.6g} ms "
              f"({metrics['point_samples']} samples)")
    print(f"  {'failed_frac':34s} {failed / max(attempted, 1):.6g} ({failed} of {attempted})")
    print(f"  {'results_exact':34s} {results_exact:.6g} (default-seed table vs stored counts)")
    for message in checker.failures:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
