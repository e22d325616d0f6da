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

import os
import sys

import numpy as np

from . import channel as chan
from . import modem, precoder
# The config and record types are imported from here too.
from .config import (BerRecord, BerTable, SimulationConfig, _snr_stream_key, _worker_count,
                     snr_db_to_noise_variance)
from .errors import ConfigurationError, SingularMatrixError
from .randomness import draw_frame, draw_pools, frame_buffer, stream_key

# Entry budget of a block of realizations. draw_channels stacks as many pools
# (pool users x tx antennas each) as fit in it, and _range_errors as many
# frames (users x symbols each). Large enough that the per-call overhead of
# each numpy stage is shared by many realizations, small enough that the
# arrays stay in cache and a block's memory does not grow with its range.
BLOCK_ENTRIES = 20480


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

    gains is their slice of _cell_gains, (beta H F_data)^T, and a block holds
    as many realizations as their frames fit BLOCK_ENTRIES: 25 of the paper's
    8 users and 100 symbols. Per frame, draw_frame draws the block's bits and
    noise, which no scheme changes; the scheme's stage maps the bits, takes
    them to y = H F_data x in one batched matmul, adds the noise and counts
    the wrong decisions. The receiver's division by beta > 0 changes no
    decision, so it is skipped.
    """
    k, n_sym, n_tx, n_pool = (config.active_users, config.symbols_per_frame,
                              config.tx_antennas, config.pool_users)
    per_block = max(1, BLOCK_ENTRIES // (k * n_sym))
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
    workers = _worker_count(workers)
    n = config.realizations
    shape = (n, config.active_users, config.active_users)
    if gains is None:
        gains = _cell_gains(config, scheme, snr_db, _spectrum(draw_channels(config, snr_db)))
    elif np.shape(gains) != shape:
        raise ConfigurationError(f"gains must have shape {shape} (realizations, "
                                 f"active_users, active_users), got {np.shape(gains)}")
    else:
        finite = np.isfinite(gains).all(axis=(-2, -1))
        if not finite.all():
            raise ConfigurationError(f"gains of realization {int(np.argmin(finite))} "
                                     "hold a non-finite entry")
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

    _worker_count(workers)  # before the first SNR's channels are drawn
    records = []
    for snr_db in config.snr_db:
        spectrum = _spectrum(draw_channels(config, snr_db))
        for scheme in sorted(config.schemes, key=lambda s: s.label):
            gains = _cell_gains(config, scheme, snr_db, spectrum)
            records.append(run_point(config, scheme, snr_db, workers=workers, gains=gains))
    return BerTable(records=tuple(records), config=config, version=__version__)
