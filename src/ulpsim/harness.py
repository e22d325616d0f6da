"""Deterministic Monte Carlo BER sweeps over SNR x scheme.

Each channel realization gets its own counter-derived random stream keyed on
(master seed, SNR, realization index), so error counts are a pure function
of the configuration: any worker count, any scheduling order, same table.
The scheme is deliberately left out of the key: all schemes at one SNR see
identical channels, bits, and noise (common random numbers), so pairwise
BER gaps are paired comparisons and reduction gaps are exactly zero.
"""

from __future__ import annotations

import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import channel as chan
from . import modem, precoder
from .errors import ConfigurationError, SingularMatrixError
from .randomness import derived_stream, snr_key

DEFAULT_SCHEMES = ("LZFP", "LMMSEP", "ULZFP", "ULMMSEP")
LOW_CONFIDENCE_ERRORS = 10


@dataclass(frozen=True)
class SimulationConfig:
    """Full experiment description; results depend on nothing else."""

    tx_antennas: int = 8
    pool_users: int = 20
    active_users: int = 8
    snr_db: tuple[float, ...] = (14.0, 20.0, 30.0)
    schemes: tuple[precoder.SchemeMode, ...] = tuple(
        precoder.SchemeMode.from_label(s) for s in DEFAULT_SCHEMES
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

    @property
    def bits_per_point(self) -> int:
        return (self.realizations * self.frames * self.symbols_per_frame
                * self.active_users * 2)

    def digest(self) -> str:
        """Stable hash of the configuration, for provenance logs."""
        payload = json.dumps(
            {
                "tx_antennas": self.tx_antennas,
                "pool_users": self.pool_users,
                "active_users": self.active_users,
                "snr_db": list(self.snr_db),
                "schemes": [[s.u, s.m] for s in self.schemes],
                "realizations": self.realizations,
                "frames": self.frames,
                "symbols_per_frame": self.symbols_per_frame,
                "seed": self.seed,
                "snr_offset_db": self.snr_offset_db,
                "normalize_data_block_only": self.normalize_data_block_only,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()


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


def _realization_errors(config: SimulationConfig, scheme: precoder.SchemeMode,
                        snr_db: float, index: int) -> int:
    """Bit errors for one channel realization (all frames)."""
    rng = derived_stream(config.seed, snr_key(snr_db), index)
    pool = chan.draw_user_pool(rng, config.pool_users, config.tx_antennas)
    channel = chan.select_users(pool, config.active_users)
    n0 = snr_db_to_noise_variance(snr_db + config.snr_offset_db)
    try:
        prec = precoder.build(channel, scheme, sigma2=n0,
                              normalize_data_block_only=config.normalize_data_block_only)
    except SingularMatrixError as exc:
        raise SingularMatrixError(
            f"precoder build failed at realization {index} "
            f"(scheme {scheme.label}, {snr_db} dB): {exc}"
        ) from exc
    k = config.active_users
    n_sym = config.symbols_per_frame
    errors = 0
    for _ in range(config.frames):
        bits = rng.integers(0, 2, size=2 * k * n_sym)
        x = modem.qpsk_modulate(bits).reshape(n_sym, k).T  # (k, n_sym)
        z = modem.draw_awgn(rng, (k, n_sym), n0)
        est = modem.transmit_receive(channel, prec, x, z)
        decided = modem.qpsk_demodulate(est.T.reshape(-1))
        errors += int(np.count_nonzero(decided != bits))
    return errors


def _point_chunk(args) -> int:
    config, scheme, snr_db, start, stop = args
    return sum(_realization_errors(config, scheme, snr_db, r) for r in range(start, stop))


def run_point(config: SimulationConfig, scheme: precoder.SchemeMode, snr_db: float,
              workers: int = 1) -> BerRecord:
    """Monte Carlo BER for one (scheme, SNR) cell; exact integer error counts."""
    config.validate()
    _snr_stream_key(snr_db, config.snr_offset_db)
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    n = config.realizations
    if workers == 1:
        errors = _point_chunk((config, scheme, snr_db, 0, n))
    else:
        bounds = np.linspace(0, n, workers + 1, dtype=int)
        tasks = [(config, scheme, snr_db, int(a), int(b))
                 for a, b in zip(bounds[:-1], bounds[1:]) if a < b]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            errors = sum(pool.map(_point_chunk, tasks))
    return BerRecord(
        scheme_label=scheme.label, u=scheme.u, m=scheme.m, snr_db=float(snr_db),
        bit_errors=errors, bits_total=config.bits_per_point,
    )


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
