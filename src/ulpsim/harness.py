"""Deterministic Monte Carlo BER sweeps over SNR x scheme.

Realization r of an SNR reads stream r of the (seed, SNR) key in the layout
randomness describes, so counts are a pure function of the configuration,
whatever the worker count, blocking or scheduling order. The scheme is left
out of the key: all schemes at one SNR see identical channels, bits, and
noise (common random numbers), so pairwise BER gaps are paired comparisons
and reduction gaps are exactly zero.

Every cell, LZFP's included, takes its gains from its SNR's one spectrum:
np.linalg.eigh of the Gram stack H H^H of the channels draw_channels drew
(16 * active_users * tx_antennas bytes per realization), which a sweep
shares among its schemes and a lone run_point computes for its cell. The
engine, _range_errors, takes gains and streams only.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from . import channel as chan
from . import modem, precoder
from .errors import ConfigurationError, SingularMatrixError
from .randomness import (STREAM_LAYOUT, draw_frame, draw_pools, frame_buffer, snr_key,
                         stream_key)

LOW_CONFIDENCE_ERRORS = 10
# Entry budget of a block of realizations. draw_channels stacks as many pools
# (pool users x tx antennas each) as fit in it. _range_errors takes as many
# realizations at a time as fit by the larger of a pool and one frame (users
# x symbols), and holds only their frames. Large enough that the per-call
# overhead of each numpy stage is shared by many realizations, small enough
# that the arrays stay in cache and a block's memory does not grow with its
# range.
BLOCK_ENTRIES = 20480


@dataclass(frozen=True)
class SimulationConfig:
    """Full experiment description, checked when built; results depend on nothing else."""

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

    def __post_init__(self) -> None:
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError(f"seed must be in [0, 2**64), got {self.seed}")
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
        # The pool's words, then 3 per (user, symbol) of each frame.
        words = (2 * self.pool_users * self.tx_antennas
                 + 3 * self.frames * self.active_users * self.symbols_per_frame)
        if words > 2**66:
            raise ConfigurationError(
                f"{self.frames} frames of {self.symbols_per_frame} symbols end at word "
                f"{words} of a stream, past the 2**66 words the stream layout addresses")
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
    """Error count of one (scheme, SNR) cell, checked when built."""

    scheme_label: str
    u: float
    m: float
    snr_db: float
    bit_errors: int
    bits_total: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.snr_db):
            raise ConfigurationError(f"snr_db must be finite, got {self.snr_db}")
        if self.bits_total < 1:
            raise ConfigurationError(f"bits_total must be >= 1, got {self.bits_total}")
        if not 0 <= self.bit_errors <= self.bits_total:
            raise ConfigurationError(
                f"bit_errors must be between 0 and bits_total {self.bits_total}, "
                f"got {self.bit_errors}")
        label = precoder.SchemeMode(self.u, self.m).label
        if label != self.scheme_label:
            raise ConfigurationError(
                f"scheme {self.scheme_label} has u = {self.u}, m = {self.m}, which make {label}")

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


def _stream_key(config: SimulationConfig, snr_db: float) -> np.ndarray:
    """The Philox key of (seed, SNR), whose stream r realization r reads."""
    return stream_key(config.seed, _snr_stream_key(snr_db, config.snr_offset_db))


def draw_channels(config: SimulationConfig, snr_db: float) -> np.ndarray:
    """The read-only (realizations, active_users, tx_antennas) channels of one SNR.

    Entry r is the channel stream r of the (seed, SNR) key selects, so every
    scheme at this SNR shares them. They are drawn a block of pools at a
    time, as many as fit BLOCK_ENTRIES.
    """
    key, philox = _stream_key(config, snr_db), np.random.Philox(0)
    n, n_pool, n_tx = config.realizations, config.pool_users, config.tx_antennas
    per_block = max(1, BLOCK_ENTRIES // (n_pool * n_tx))
    try:
        channels = np.empty((n, config.active_users, n_tx), dtype=np.complex128)
    except (MemoryError, ValueError) as exc:  # ValueError: more entries than numpy indexes
        raise MemoryError(f"the channels of {n} realizations do not fit: {exc}") from None
    for first in range(0, n, per_block):
        pools = draw_pools(philox, key, first, min(first + per_block, n), n_pool, n_tx)
        channels[first:first + per_block] = chan.select_users(pools, config.active_users)
    channels.flags.writeable = False
    return channels


def _spectrum(channels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh of the Gram stack H H^H of channels: (eigenvalues, eigenvectors)."""
    return np.linalg.eigh(channels @ channels.conj().swapaxes(-1, -2))


def _cell_gains(config: SimulationConfig, scheme: precoder.SchemeMode, snr_db: float,
                spectrum: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """The cell's spectral_gains; a rejected matrix's index is its realization."""
    n0 = snr_db_to_noise_variance(snr_db + config.snr_offset_db)
    try:
        return precoder.spectral_gains(spectrum, scheme, n0, config.tx_antennas,
                                       config.normalize_data_block_only)
    except SingularMatrixError as exc:
        raise SingularMatrixError(f"precoder build failed at realization {exc.index} "
                                  f"(scheme {scheme.label}, {snr_db} dB): {exc}") from exc


def _range_errors(config: SimulationConfig, snr_db: float, start: int,
                  gains: np.ndarray) -> int:
    """Bit errors of realizations [start, start + len(gains)), a block at a time.

    gains is their slice of _cell_gains, (beta H F_data)^T, and blocks are
    sized by BLOCK_ENTRIES: 25 realizations of the paper's 20 x 8 pools and
    100-symbol frames, or 128 of 1-symbol frames. Per frame, draw_frame draws
    the block's bits and noise, which no scheme changes; the scheme's stage
    maps the bits, takes them to y = H F_data x in one batched matmul, adds
    the noise and counts the wrong decisions. The receiver's division by
    beta > 0 changes no decision, so it is skipped.
    """
    k, n_sym, n_tx, n_pool = (config.active_users, config.symbols_per_frame,
                              config.tx_antennas, config.pool_users)
    per_block = max(1, BLOCK_ENTRIES // max(n_pool * n_tx, k * n_sym))
    key, philox = _stream_key(config, snr_db), np.random.Philox(0)
    n0 = snr_db_to_noise_variance(snr_db + config.snr_offset_db)
    try:
        block_words = frame_buffer(min(per_block, len(gains)), k, n_sym)
    except (MemoryError, ValueError) as exc:  # ValueError: more entries than numpy indexes
        raise MemoryError(f"the frames of {n_sym} symbols do not fit: {exc}") from None
    errors = 0
    for first in range(start, start + len(gains), per_block):
        gain_t = gains[first - start:first - start + per_block]
        words = block_words[:len(gain_t)]
        for frame in range(config.frames):
            sent, noise = draw_frame(philox, key, first, frame, n_pool, n_tx, n_sym, n0, words)
            y = modem.qpsk_modulate(sent) @ gain_t
            y += noise
            del noise  # held into the next draw, it nearly tripled the default sweep's page faults
            errors += int(np.count_nonzero(modem.qpsk_demodulate(y) != sent))
    return errors


def run_point(config: SimulationConfig, scheme: precoder.SchemeMode, snr_db: float,
              workers: int = 1, *, gains: np.ndarray | None = None) -> BerRecord:
    """Monte Carlo BER for one (scheme, SNR) cell; exact integer error counts.

    gains are the cell's _cell_gains, which run_sweep computes from its
    SNR's shared spectrum; a lone cell computes them here, in the calling
    process. Each worker chunk gets its slice.
    """
    _snr_stream_key(snr_db, config.snr_offset_db)
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    n = config.realizations
    shape = (n, config.active_users, config.active_users)
    if gains is None:
        gains = _cell_gains(config, scheme, snr_db, _spectrum(draw_channels(config, snr_db)))
    elif np.shape(gains) != shape:
        raise ConfigurationError(f"gains must have shape {shape} (realizations, "
                                 f"active_users, active_users), got {np.shape(gains)}")
    # One chunk per requested worker, none empty. A pool starts all its
    # processes at the first submit, so it holds no more than the CPUs.
    workers = min(workers, n)
    if workers == 1:
        errors = _range_errors(config, snr_db, 0, gains)
    else:
        # Read through the module, whose __getattr__ imports it on first use.
        pool_type = sys.modules[__name__].ProcessPoolExecutor
        bounds = np.linspace(0, n, workers + 1, dtype=int)
        with pool_type(max_workers=min(workers, os.cpu_count() or 1)) as pool:
            chunks = [pool.submit(_range_errors, config, snr_db, int(a), gains[a:b])
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
    """run_point over the full SNR x scheme grid, ordered by (snr, label).

    Each SNR's channels are drawn, and their Gram stack decomposed, once;
    every scheme's gains come from that spectrum, outside its run_point call.
    """
    from . import __version__

    records = []
    for snr_db in config.snr_db:
        spectrum = _spectrum(draw_channels(config, snr_db))
        for scheme in sorted(config.schemes, key=lambda s: s.label):
            gains = _cell_gains(config, scheme, snr_db, spectrum)
            records.append(run_point(config, scheme, snr_db, workers=workers, gains=gains))
    return BerTable(records=tuple(records), config=config, version=__version__)


def ber_gap(table: BerTable, scheme_a: str, scheme_b: str, snr_db: float) -> float:
    """BER(a) - BER(b) at the given SNR."""
    return table.lookup(scheme_a, snr_db).ber - table.lookup(scheme_b, snr_db).ber
