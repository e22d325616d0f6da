"""Deterministic Monte Carlo BER sweeps over SNR x scheme.

Each channel realization gets its own counter-based random stream: the
Philox key comes from (master seed, SNR) and the realization index goes in
the counter, so error counts are a pure function of the configuration: any
worker count, any scheduling order, same table. The stream is read as raw
Philox words in a fixed per-realization layout (pool, then each frame's bits
and noise; see _range_errors), the same words derived_stream would draw.
The scheme is deliberately left out of the key: all schemes at one SNR see
identical channels, bits, and noise (common random numbers), so pairwise
BER gaps are paired comparisons and reduction gaps are exactly zero.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import channel as chan
from . import modem, precoder
from .errors import ConfigurationError, SingularMatrixError
from .randomness import (STREAM_LAYOUT, bit_pairs, box_muller, snr_key, start_stream,
                         stream_key, uniforms)

LOW_CONFIDENCE_ERRORS = 10
# Entries per array of the realization engine (see _range_errors): a block's
# stacked pools, and one realization's share of a frame group. Small enough
# that the arrays stay in cache, large enough that the per-call overhead of
# each numpy stage is shared by many realizations or frames.
BLOCK_ENTRIES = 2048
# A block's frame group, over all its realizations, holds at most this many
# times BLOCK_ENTRIES entries (or one frame of one realization), so a small
# pool cannot fill a block with more frames than memory should hold.
FRAME_GROUP_BLOCKS = 16


@dataclass(frozen=True)
class SimulationConfig:
    """Full experiment description; results depend on nothing else."""

    tx_antennas: int = 8
    pool_users: int = 20
    active_users: int = 8
    snr_db: tuple[float, ...] = (14.0, 20.0, 30.0)
    schemes: tuple[precoder.SchemeMode, ...] = tuple(
        precoder.SchemeMode.from_label(s) for s in precoder.LABELS
    )
    realizations: int = 1000
    frames: int = 10
    symbols_per_frame: int = 100
    seed: int = 20240817
    snr_offset_db: float = 0.0
    normalize_data_block_only: bool = False

    def validate(self) -> None:
        for name in ("tx_antennas", "pool_users", "active_users", "realizations",
                     "frames", "symbols_per_frame"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.active_users > self.pool_users:
            raise ConfigurationError(
                f"active_users={self.active_users} exceeds pool_users={self.pool_users}"
            )
        if self.active_users != self.tx_antennas:
            raise ConfigurationError(
                f"active_users must equal tx_antennas "
                f"(got {self.active_users} vs {self.tx_antennas})"
            )
        if not self.snr_db:
            raise ConfigurationError("snr_db list is empty")
        keys = [_snr_stream_key(s, self.snr_offset_db) for s in self.snr_db]
        if len(set(keys)) != len(keys):
            raise ConfigurationError(
                f"snr_db values must differ by at least 1 milli-dB, got {self.snr_db}")
        if not self.schemes:
            raise ConfigurationError("schemes list is empty")
        labels = [s.label for s in self.schemes]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(f"scheme labels must not repeat, got {labels}")

    @property
    def bits_per_point(self) -> int:
        return (self.realizations * self.frames * self.symbols_per_frame
                * self.active_users * 2)

    def digest(self) -> str:
        """Stable hash of every field and the stream layout, for provenance logs.

        A scheme counts as [u, m]. The layout is not a field: one program
        draws in one layout, but a config's results differ between layouts.
        """
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["schemes"] = [[s.u, s.m] for s in self.schemes]
        payload["stream_layout"] = STREAM_LAYOUT
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@dataclass(frozen=True)
class BerRecord:
    scheme_label: str
    u: float
    m: float
    snr_db: float
    bit_errors: int
    bits_total: int

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits_total

    @property
    def standard_error(self) -> float:
        p = self.ber
        return float(np.sqrt(p * (1.0 - p) / self.bits_total))

    @property
    def low_confidence(self) -> bool:
        return self.bit_errors < LOW_CONFIDENCE_ERRORS


@dataclass(frozen=True)
class BerTable:
    records: tuple[BerRecord, ...]
    config: SimulationConfig
    version: str = ""

    def lookup(self, scheme_label: str, snr_db: float) -> BerRecord:
        for r in self.records:
            if r.scheme_label == scheme_label and r.snr_db == snr_db:
                return r
        raise KeyError(f"no record for scheme {scheme_label!r} at {snr_db} dB")


def snr_db_to_noise_variance(snr_db: float) -> float:
    """Per-stream Es/N0 convention with unit symbol energy: N0 = 10^(-SNR/10)."""
    return float(10.0 ** (-snr_db / 10.0))


def _snr_stream_key(snr_db: float, offset_db: float) -> int:
    """snr_key of a finite SNR whose noise variance is finite (0 is the noiseless limit)."""
    try:
        if (np.isfinite(snr_db + offset_db)
                and snr_db_to_noise_variance(snr_db + offset_db) < np.inf):
            return snr_key(snr_db)
    except OverflowError:
        pass
    raise ConfigurationError(
        f"SNR {snr_db} dB at offset {offset_db} dB must be finite, with a finite noise variance")


def _range_errors(config: SimulationConfig, scheme: precoder.SchemeMode,
                  snr_db: float, start: int, stop: int) -> int:
    """Bit errors of realizations [start, stop), evaluated a block at a time.

    A block holds as many realizations as fit their pools in BLOCK_ENTRIES
    entries and their frame groups in FRAME_GROUP_BLOCKS * BLOCK_ENTRIES
    (at least one). The pool draw, user selection and the precoder build run
    once per block on stacked arrays. The frame stage then walks the block's
    frames in groups: as many frames as fit one realization's symbols in
    BLOCK_ENTRIES entries (at least one), taken for all the block's
    realizations at once.

    Draw phase: the Philox key of (seed, SNR) is derived once per call, and
    realization r reads stream r of that key (r in the counter) as raw
    64-bit words in a fixed layout: the pool's u1 and u2 (n_pool * n_tx
    words each), then per frame k * n_sym bit words, k * n_sym noise u1 and
    k * n_sym noise u2.
    Each realization takes its pool and first frame group in one call, so a
    realization whose frames fit one group takes all its words in one call.
    Each later group is read from the stream word where it starts. The
    layout is the order in which derived_stream's generator draws them
    (draw_user_pool, then per frame integers(0, 2) and draw_awgn), so counts
    do not depend on the blocking.
    """
    k, n_sym, n_tx, n_pool = (config.active_users, config.symbols_per_frame,
                              config.tx_antennas, config.pool_users)
    per_frame = k * n_sym
    group = min(config.frames, max(1, BLOCK_ENTRIES // per_frame))
    per_block = max(1, min(BLOCK_ENTRIES // (n_pool * n_tx),
                           FRAME_GROUP_BLOCKS * BLOCK_ENTRIES // (group * per_frame)))
    n0 = snr_db_to_noise_variance(snr_db + config.snr_offset_db)
    philox = np.random.Philox(0)
    pool_words = 2 * n_pool * n_tx
    words = np.empty((min(per_block, stop - start), pool_words + 3 * group * per_frame),
                     dtype=np.uint64)
    key = stream_key(config.seed, snr_key(snr_db))
    errors = 0
    for first in range(start, stop, per_block):
        n_real = min(per_block, stop - first)
        for i in range(n_real):
            words[i] = start_stream(philox, key, first + i).random_raw(words.shape[1])
        pool_u = uniforms(words[:n_real, :pool_words]).reshape(n_real, 2, n_pool, n_tx)
        h = chan.select_users(box_muller(pool_u[:, 0], pool_u[:, 1], 1.0), k)
        try:
            prec = precoder.build(h, scheme, n0, config.normalize_data_block_only)
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                f"precoder build failed at realization {first + exc.index} "
                f"(scheme {scheme.label}, {snr_db} dB): {exc}"
            ) from exc
        for done in range(0, config.frames, group):
            n_frames = min(group, config.frames - done)
            frame_words = words[:n_real, pool_words:pool_words + 3 * n_frames * per_frame]
            if done:
                word = pool_words + 3 * done * per_frame
                for i in range(n_real):
                    frame_words[i] = start_stream(philox, key, first + i, word).random_raw(
                        frame_words.shape[1])
            frame_words = frame_words.reshape(n_real, n_frames, 3, per_frame)
            # One realization's frames side by side as (k, n_frames * n_sym)
            # columns. A frame's bit words hold its symbols in (symbol, user)
            # order and its noise is drawn as (user, symbol).
            uses = n_frames * n_sym
            x = (modem.QPSK_SYMBOLS[bit_pairs(frame_words[:, :, 0])]
                 .reshape(n_real, uses, k).swapaxes(-1, -2))
            noise_u = uniforms(frame_words[:, :, 1:]).reshape(n_real, n_frames, 2, k, n_sym)
            z = (box_muller(noise_u[:, :, 0], noise_u[:, :, 1], n0)
                 .swapaxes(1, 2).reshape(n_real, k, uses))
            est = modem.transmit_receive(h, prec, x, z)
            # qpsk_demodulate's decisions: a bit is wrong where the sign of
            # its part of est differs from the sign it was sent with.
            errors += int(np.count_nonzero((est.real < 0) != (x.real < 0))
                          + np.count_nonzero((est.imag < 0) != (x.imag < 0)))
    return errors


def run_point(config: SimulationConfig, scheme: precoder.SchemeMode, snr_db: float,
              workers: int = 1) -> BerRecord:
    """Monte Carlo BER for one (scheme, SNR) cell; exact integer error counts."""
    config.validate()
    _snr_stream_key(snr_db, config.snr_offset_db)
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    n = config.realizations
    # One chunk per worker, none empty: a pool starts all its workers at once.
    workers = min(workers, n)
    if workers == 1:
        errors = _range_errors(config, scheme, snr_db, 0, n)
    else:
        # Read through the module, whose __getattr__ imports it on first use.
        pool_type = sys.modules[__name__].ProcessPoolExecutor
        bounds = np.linspace(0, n, workers + 1, dtype=int)
        with pool_type(max_workers=workers) as pool:
            chunks = [pool.submit(_range_errors, config, scheme, snr_db, int(a), int(b))
                      for a, b in zip(bounds[:-1], bounds[1:])]
            errors = sum(chunk.result() for chunk in chunks)
    return BerRecord(
        scheme_label=scheme.label, u=scheme.u, m=scheme.m, snr_db=float(snr_db),
        bit_errors=errors, bits_total=config.bits_per_point,
    )


def __getattr__(name: str):
    """ProcessPoolExecutor, imported when first read.

    Only workers > 1 needs it, so importing ulpsim skips multiprocessing. It
    stays a module attribute that run_point reads, so that bench/tracing.py
    can rebind it to trace the pools.
    """
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run_sweep(config: SimulationConfig, workers: int = 1) -> BerTable:
    """run_point over the full SNR x scheme grid, ordered by (snr, label)."""
    from . import __version__

    config.validate()
    records = []
    for snr_db in config.snr_db:
        for scheme in sorted(config.schemes, key=lambda s: s.label):
            records.append(run_point(config, scheme, snr_db, workers=workers))
    return BerTable(records=tuple(records), config=config, version=__version__)


def ber_gap(table: BerTable, scheme_a: str, scheme_b: str, snr_db: float) -> float:
    """BER(a) - BER(b) at the given SNR."""
    return table.lookup(scheme_a, snr_db).ber - table.lookup(scheme_b, snr_db).ber
