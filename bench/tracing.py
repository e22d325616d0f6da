"""In-memory span tracer and a traced replay of the sweep loop.

Spans are recorded from the benchmark's own files, around calls into the
layers' public functions; nothing inside `ulpsim` is edited. The replay
mirrors `harness._realization_errors` and `cli._cmd_sweep` stage by stage,
so its error counts must equal `run_sweep`'s for the same config (checked
as `trace.replica_exact`). Calls made inside the program (the precoder's
build functions, `solve_hermitian`, the harness's process pool) are reached by
rebinding module attributes for the duration of the traced phase only.
"""

from __future__ import annotations

import contextlib
from pathlib import Path
from time import perf_counter_ns

import numpy as np
import scipy.linalg

import ulpsim
from ulpsim import channel as chan
from ulpsim import cli, harness, modem, precoder
from ulpsim.harness import BerRecord, BerTable, snr_db_to_noise_variance
from ulpsim.randomness import derived_stream, snr_key

# Spans whose own (self) time is harness loop work, for harness.self_share.
HARNESS_LOOP_SPANS = ("harness.run_sweep", "harness.run_point", "harness.realization")


class Tracer:
    """Spans as [name, start_ns, end_ns, parent_index, group] lists.

    A span's index in `spans` is its id. `group` is shared by every span of
    one realization (and, outside realizations, by every span of one table).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.group = 0
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter_ns(), 0, parent, self.group])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, span_id: int) -> None:
        self.spans[span_id][2] = perf_counter_ns()
        self._stack.pop()

    def call(self, name: str, fn, *args):
        return self.wrap(name, fn)(*args)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            span_id = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span_id)
        return traced

    def durations(self, name: str) -> np.ndarray:
        return np.array([s[2] - s[1] for s in self.spans if s[0] == name], dtype=float)

    def self_times(self) -> np.ndarray:
        """Each span's duration minus the time its children cover."""
        own = np.array([s[2] - s[1] for s in self.spans], dtype=float)
        for s in self.spans:
            if s[3] >= 0:
                own[s[3]] -= s[2] - s[1]
        return own

    def roots(self) -> list[int]:
        return [i for i, s in enumerate(self.spans) if s[3] < 0]

    def write(self, path: Path) -> None:
        """Tab-separated spans, one per line, ids implicit in line order."""
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\tgroup\n")
            for i, span in enumerate(self.spans):
                fh.write(f"{i}\t" + "\t".join(map(str, span)) + "\n")


def _count_errors(decided, bits) -> int:
    return int(np.count_nonzero(decided != bits))


def _plain(name, fn, *args):
    return fn(*args)


def realization_errors(config, scheme, snr_db: float, index: int, call=_plain) -> int:
    """`harness._realization_errors` through public functions, one call per stage."""
    rng = call("randomness.derived_stream", derived_stream, config.seed, snr_key(snr_db), index)
    pool = call("channel.draw_user_pool", chan.draw_user_pool,
                rng, config.pool_users, config.tx_antennas)
    channel = call("channel.select_users", chan.select_users, pool, config.active_users)
    n0 = snr_db_to_noise_variance(snr_db + config.snr_offset_db)
    prec = call("precoder.build", precoder.build, channel, scheme, n0,
                config.normalize_data_block_only)
    k = config.active_users
    n_sym = config.symbols_per_frame
    errors = 0
    for _ in range(config.frames):
        bits = call("randomness.bits", rng.integers, 0, 2, 2 * k * n_sym)
        x = call("modem.qpsk_modulate", modem.qpsk_modulate, bits).reshape(n_sym, k).T
        z = call("modem.draw_awgn", modem.draw_awgn, rng, (k, n_sym), n0)
        est = call("modem.transmit_receive", modem.transmit_receive, channel, prec, x, z)
        decided = call("modem.qpsk_demodulate", modem.qpsk_demodulate, est.T.reshape(-1))
        errors += call("harness.error_count", _count_errors, decided, bits)
    return errors


def replay_sweep(tracer: Tracer, config_path: Path, seed: int, out: Path) -> tuple[BerTable, int]:
    """Traced replay of `ulpsim sweep --config config_path --seed seed --out out`.

    Returns the table and the bytes the emitters wrote.
    """
    root = tracer.open("cli.sweep")
    argv = ["sweep", "--config", str(config_path), "--seed", str(seed), "--out", str(out),
            "--workers", "1"]
    args = tracer.call("cli.parse_args", cli.make_parser().parse_args, argv)
    values = cli.read_config_file(args.config)
    values["seed"] = args.seed
    config = cli.build_config(values)
    out.mkdir(parents=True, exist_ok=True)
    sweep = tracer.open("harness.run_sweep")
    table_group = tracer.group
    records = []
    for snr_db in config.snr_db:
        for scheme in sorted(config.schemes, key=lambda s: s.label):
            point = tracer.open("harness.run_point")
            errors = 0
            for index in range(config.realizations):
                tracer.group += 1
                span = tracer.open("harness.realization")
                errors += realization_errors(config, scheme, snr_db, index, tracer.call)
                tracer.close(span)
            tracer.group = table_group
            records.append(BerRecord(scheme_label=scheme.label, u=scheme.u, m=scheme.m,
                                     snr_db=float(snr_db), bit_errors=errors,
                                     bits_total=config.bits_per_point))
            tracer.close(point)
    table = BerTable(records=tuple(records), config=config, version=ulpsim.__version__)
    tracer.close(sweep)
    emit = tracer.open("cli.emit")
    cli.emit_table(table, out / "results.csv", out / "gaps.csv")
    cli.emit_plot_data(table, out / "plot.csv")
    cli.emit_run_log(table, out / "run_log.jsonl")
    tracer.close(emit)
    tracer.close(root)
    tracer.group += 1
    written = sum((out / name).stat().st_size
                  for name in ("results.csv", "gaps.csv", "plot.csv", "run_log.jsonl"))
    return table, written


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Rebind the in-program calls the replay cannot reach, then restore them.

    - precoder's build functions and its `solve_hermitian` import become spans;
    - `scipy.linalg.cho_solve`, which `solve_hermitian` calls only when it
      accepts the Cholesky factor, becomes a span;
    - `ulpsim.harness.ProcessPoolExecutor` opens a `harness.pool` span
      from construction to shutdown;
    - `ulpsim.harness.run_point`, which point_grid calls, becomes a span.
    """
    base_pool = harness.ProcessPoolExecutor

    class TracedPool(base_pool):
        def __init__(self, *args, **kwargs):
            self._span = tracer.open("harness.pool")
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                if self._span is not None:
                    tracer.close(self._span)
                    self._span = None

    targets = [
        (precoder, "build_conventional", tracer.wrap("precoder.build_conventional",
                                                     precoder.build_conventional)),
        (precoder, "build_unified", tracer.wrap("precoder.build_unified",
                                                precoder.build_unified)),
        (precoder, "solve_hermitian", tracer.wrap("linalg.solve_hermitian",
                                                  precoder.solve_hermitian)),
        (scipy.linalg, "cho_solve", tracer.wrap("linalg.cho_solve", scipy.linalg.cho_solve)),
        (harness, "ProcessPoolExecutor", TracedPool),
        (harness, "run_point", tracer.wrap("harness.run_point", harness.run_point)),
    ]
    saved = [(obj, name, getattr(obj, name)) for obj, name, _ in targets]
    try:
        for obj, name, replacement in targets:
            setattr(obj, name, replacement)
        yield
    finally:
        for obj, name, original in saved:
            setattr(obj, name, original)
