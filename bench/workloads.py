"""The three benchmark workloads, their generated inputs and their calls.

All three are closed loops with one client: the next call starts when the
previous one returns. A table is one unit of results: one CLI sweep, or one
pass over the point grid. Table i of a run uses config seed
`table_seed(workload, seed, i)`, so the same benchmark seed gives the same
inputs, and no two tables of a run repeat a computation.

- sweep_frames: `ulpsim sweep` at the paper geometry (8 tx, 8 of 20 users,
  4 schemes, 14/20/30 dB) with 10 frames x 100 symbol vectors per
  realization, workers=1. Per-frame work (bit draw, QPSK, AWGN, demod)
  dominates: the default sweep users run, single-threaded.
- sweep_channels: the same sweep with 1 frame x 1 symbol vector. Per-
  realization work (stream derivation, pool draw, selection, precoder
  build) dominates and the frame stages stay small.
- point_grid: `harness.run_point` over 4 schemes x 3 SNRs x 3 SNR offsets,
  plus a SchemeMode(0, 0) twin of LZFP per SNR, with few realizations per
  point and workers=nproc. This is the acceptance suite's offset calibration
  pattern, where process-pool start-up dominates each call. It is not listed
  in BENCHMARK.json: pool start-up latency follows the CPU time a shared VM
  steals, and its wall-clock metrics spread 0.22 (IQR / median) over ten
  runs, against 0.05-0.12 for the sweeps.
"""

from __future__ import annotations

import contextlib
import csv
import io
import os
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

from checks import Expected, Record
from ulpsim import cli, harness
from ulpsim.precoder import SchemeMode

LABELS = ("LZFP", "LMMSEP", "ULZFP", "ULMMSEP")
SNRS = (14.0, 20.0, 30.0)
GRID_OFFSETS = (-15.0, -7.5, 0.0)
DEFAULT_SEED = 1
NPROC = len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    realizations: int
    frames: int
    symbols_per_frame: int
    offsets: tuple = ()  # SNR offsets of the point grid
    workers: int = 1

    @property
    def is_sweep(self) -> bool:
        return self.name.startswith("sweep")

    def config_text(self) -> str:
        """Flat key=value config file; the seed is given per table."""
        return "".join(f"{k} = {v}\n" for k, v in (
            ("tx_antennas", 8), ("pool_users", 20), ("active_users", 8),
            ("snr_db", ", ".join(f"{s:g}" for s in SNRS)), ("schemes", ", ".join(LABELS)),
            ("u", 1.0), ("m", 1.0), ("realizations", self.realizations),
            ("frames", self.frames), ("symbols_per_frame", self.symbols_per_frame)))

    def grid(self) -> list[tuple[SchemeMode, float, float]]:
        """(scheme, snr_db, offset_db) per point of one point_grid pass."""
        points = [(SchemeMode.from_label(label), snr, off)
                  for off in self.offsets for snr in SNRS for label in LABELS]
        return points + [(SchemeMode(0.0, 0.0), snr, 0.0) for snr in SNRS]

    def expected(self) -> Expected:
        if self.is_sweep:
            cells = tuple((label, snr, 0.0) for snr in SNRS for label in sorted(LABELS))
        else:
            cells = tuple((s.label, snr, off) for s, snr, off in self.grid())
        return Expected(cells=cells, realizations=self.realizations, frames=self.frames,
                        symbols_per_frame=self.symbols_per_frame)


# Full sizes keep one sweep near 0.2 s on one core, so that a run makes
# well over the 100 calls a p90 needs even on a slowed machine.
SIZES = {
    "full": {
        "sweep_frames": Workload("sweep_frames", realizations=6, frames=10, symbols_per_frame=100),
        "sweep_channels": Workload("sweep_channels", realizations=40, frames=1,
                                   symbols_per_frame=1),
        "point_grid": Workload("point_grid", realizations=20, frames=10, symbols_per_frame=100,
                               offsets=GRID_OFFSETS, workers=NPROC),
    },
    # Small enough that a one-second run still makes 100 calls per sweep.
    "smoke": {
        "sweep_frames": Workload("sweep_frames", realizations=1, frames=2, symbols_per_frame=10),
        "sweep_channels": Workload("sweep_channels", realizations=2, frames=1,
                                   symbols_per_frame=1),
        "point_grid": Workload("point_grid", realizations=2, frames=1, symbols_per_frame=10,
                               offsets=GRID_OFFSETS, workers=NPROC),
    },
}


def table_seed(workload: str, seed: int, index: int) -> int:
    """Config seed of table `index` of a run with benchmark seed `seed`."""
    return zlib.crc32(f"{workload}:{seed}:{index}".encode())


@dataclass
class Table:
    """One table's records, its wall time and the latency of each run_point call."""

    records: list
    wall_s: float
    point_s: list
    error: str = ""


@contextlib.contextmanager
def timed_run_point(durations: list):
    """Append the wall time of every `harness.run_point` call to `durations`.

    `run_sweep` looks `run_point` up as a module global of `ulpsim.harness`,
    so rebinding it there reaches the calls a sweep makes.
    """
    original = harness.run_point

    def timed(*args, **kwargs):
        start = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            durations.append(perf_counter() - start)

    harness.run_point = timed
    try:
        yield
    finally:
        harness.run_point = original


def read_results_csv(path: Path) -> list[Record]:
    with open(path, newline="") as fh:
        return [Record(scheme=row["scheme"], u=float(row["u"]), m=float(row["m"]),
                       snr_db=float(row["snr_db"]), offset_db=0.0,
                       bit_errors=int(row["bit_errors"]), bits_total=int(row["bits_total"]),
                       ber=float(row["ber"]))
                for row in csv.DictReader(fh)]


def run_sweep_table(config_path: Path, seed: int, out: Path) -> Table:
    """One `ulpsim sweep` call through `cli.main`; records read back from its CSV."""
    argv = ["sweep", "--config", str(config_path), "--seed", str(seed),
            "--out", str(out), "--workers", "1"]
    (out / "results.csv").unlink(missing_ok=True)  # never read a previous table back
    points = []
    with contextlib.redirect_stdout(io.StringIO()), timed_run_point(points):
        start = perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # counted as missing records
            return Table([], perf_counter() - start, points, f"ulpsim sweep raised {exc!r}")
        elapsed = perf_counter() - start
    if code != 0:
        return Table([], elapsed, points, f"ulpsim sweep exited with {code}")
    try:
        return Table(read_results_csv(out / "results.csv"), elapsed, points)
    except (OSError, KeyError, ValueError) as exc:
        return Table([], elapsed, points, f"unreadable results.csv: {exc!r}")


def run_grid_table(workload: Workload, config_path: Path, seed: int) -> Table:
    """One pass over the point grid, one `harness.run_point` call per point."""
    values = cli.read_config_file(config_path)
    values["seed"] = seed
    base = cli.build_config(values)
    table = Table([], 0.0, [])
    start = perf_counter()
    with timed_run_point(table.point_s):
        for scheme, snr, offset in workload.grid():
            config = replace(base, snr_offset_db=offset)
            try:
                rec = harness.run_point(config, scheme, snr, workers=workload.workers)
            except Exception as exc:  # counted as a missing record
                table.error = table.error or f"run_point({scheme}, {snr}, {offset}) raised {exc!r}"
                continue
            table.records.append(Record(scheme=rec.scheme_label, u=rec.u, m=rec.m,
                                        snr_db=rec.snr_db, offset_db=offset,
                                        bit_errors=rec.bit_errors, bits_total=rec.bits_total,
                                        ber=rec.ber))
    table.wall_s = perf_counter() - start
    return table


def run_table(workload: Workload, config_path: Path, seed: int, work: Path) -> Table:
    if workload.is_sweep:
        return run_sweep_table(config_path, seed, work / "sweep")
    return run_grid_table(workload, config_path, seed)


def exact_check_table(workload: Workload, config_path: Path, work: Path) -> Table:
    """The default seed's first table, whose counts reference.json stores.

    Made with one worker: counts do not depend on the worker count.
    """
    return run_table(replace(workload, workers=1), config_path,
                     table_seed(workload.name, DEFAULT_SEED, 0), work)
