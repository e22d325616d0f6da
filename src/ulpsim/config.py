"""What a run is: its validated configuration, its records and the stream
addressing that validation needs, in the standard library alone.

A SimulationConfig, a BerRecord and a BerTable check themselves when built
and hold plain Python values, so digest() and the run log serialize any
config that could be built. Nothing here imports numpy: the command line
parses, validates and reports a configuration, and reads a result table
back, before any simulation module loads.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass, fields

from .errors import ConfigurationError

LABELS = ("LZFP", "LMMSEP", "ULZFP", "ULMMSEP")
LOW_CONFIDENCE_ERRORS = 10
# Version of the mapping from a seed to the values drawn from it, written to
# the config digest and to every run_log.jsonl line. Layout 2 took the
# Box-Muller phase in float32. Layout 3 keys a stream once per (seed, key)
# and puts the realization index in the second Philox counter word.
STREAM_LAYOUT = 3
# Words a stream addresses: its counter's first word counts 2**64 blocks of 4.
STREAM_WORDS = 2**66


def frame_word(n_pool: int, n_tx: int, k: int, n_sym: int, frame: int) -> int:
    """The first word of frame `frame` of a stream, whose pool takes 2 * n_pool * n_tx
    words and each frame 3 * k * n_sym; frame = frames gives the end of the stream."""
    return 2 * n_pool * n_tx + 3 * frame * k * n_sym


def snr_key(snr_db: float) -> int:
    """Stable integer key for an SNR value (milli-dB resolution)."""
    return int(round(snr_db * 1000.0))


def _integer(name: str, value) -> int:
    """value as a Python int, by operator.index: a bool, a float, a string or None is refused."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ConfigurationError(f"{name} must be an integer, got {value!r}")


def _worker_count(workers) -> int:
    """workers as an int >= 1, by the integer rule (a bool or a float is refused)."""
    workers = _integer("workers", workers)
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    return workers


def _real(name: str, value) -> float:
    """value as a Python float; a bool, a string or a number no float holds is refused."""
    if type(value) is float:  # the common case, spared the slower ABC check below
        return value
    try:
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            return float(value)
    except OverflowError:
        pass
    raise ConfigurationError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class SchemeMode:
    """Precoding scheme knobs: augmentation weight u and regularizer multiplier m."""

    u: float
    m: float

    def __post_init__(self):
        object.__setattr__(self, "u", _real("u", self.u))
        object.__setattr__(self, "m", _real("m", self.m))
        # Written so that NaN fails too.
        if not (0 <= self.u < math.inf and 0 <= self.m < math.inf):
            raise ConfigurationError(
                f"scheme parameters must be finite and nonnegative: u={self.u}, m={self.m}")

    @property
    def label(self) -> str:
        if self.u == 0:
            return "LZFP" if self.m == 0 else "LMMSEP"
        return "ULZFP" if self.m == 0 else "ULMMSEP"

    @classmethod
    def from_label(cls, label: str, u: float = 1.0, m: float = 1.0) -> "SchemeMode":
        """Mode for a scheme name; u and m apply only where the name allows them.

        Both weights are checked whether the name uses them or not, and a
        weight the name needs may not be 0: the mode would carry another label.
        """
        name = label.strip().upper()
        if name not in LABELS:
            raise ConfigurationError(f"unknown scheme {label!r}; expected one of {LABELS}")
        cls(u, m)
        needs = [w for w, needed in (("u", name.startswith("U")), ("m", "MMSE" in name))
                 if needed]
        mode = cls(u if "u" in needs else 0.0, m if "m" in needs else 0.0)
        zero = [w for w in needs if getattr(mode, w) == 0]
        if zero:
            raise ConfigurationError(
                f"scheme {name} needs {' and '.join(f'{w} > 0' for w in zero)} "
                f"({', '.join(f'{w} = 0' for w in zero)} makes it {mode.label})")
        return mode


@dataclass(frozen=True)
class SimulationConfig:
    """Full experiment description, checked when built; results depend on nothing else."""

    tx_antennas: int = 8
    pool_users: int = 20
    active_users: int = 8
    snr_db: tuple[float, ...] = (14.0, 20.0, 30.0)
    schemes: tuple[SchemeMode, ...] = tuple(SchemeMode.from_label(s) for s in LABELS)
    realizations: int = 1000
    frames: int = 10
    symbols_per_frame: int = 100
    seed: int = 20240817
    snr_offset_db: float = 0.0
    normalize_data_block_only: bool = False

    def __post_init__(self) -> None:
        # Stored as Python ints, floats, bools and tuples, which digest()
        # serializes, numpy indexes with and hash() takes.
        for name in ("seed", "tx_antennas", "pool_users", "active_users", "realizations",
                     "frames", "symbols_per_frame"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
            if name != "seed" and getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("snr_db", "schemes"):
            try:
                object.__setattr__(self, name, tuple(getattr(self, name)))
            except TypeError:
                raise ConfigurationError(
                    f"{name} must be a sequence, got {getattr(self, name)!r}") from None
        object.__setattr__(self, "snr_db", tuple(_real("snr_db", s) for s in self.snr_db))
        object.__setattr__(self, "snr_offset_db", _real("snr_offset_db", self.snr_offset_db))
        flag = self.normalize_data_block_only
        # A bool or numpy.bool_; a number equal to 0 or 1, such as 1.0, is not a flag.
        if (isinstance(flag, numbers.Number) and not isinstance(flag, bool)
                or flag not in (False, True)):
            raise ConfigurationError(f"normalize_data_block_only must be True or False, "
                                     f"got {flag!r}")
        object.__setattr__(self, "normalize_data_block_only", bool(flag))
        if not 0 <= self.seed < 2**64:
            raise ConfigurationError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.active_users > self.pool_users:
            raise ConfigurationError(
                f"active_users={self.active_users} exceeds pool_users={self.pool_users}"
            )
        if self.active_users != self.tx_antennas:
            raise ConfigurationError(
                f"active_users must equal tx_antennas "
                f"(got {self.active_users} vs {self.tx_antennas})"
            )
        words = frame_word(self.pool_users, self.tx_antennas, self.active_users,
                           self.symbols_per_frame, self.frames)
        if words > STREAM_WORDS:
            raise ConfigurationError(
                f"{self.frames} frames of {self.symbols_per_frame} symbols end at word "
                f"{words} of a stream, past the 2**66 words the stream layout addresses")
        if not self.snr_db:
            raise ConfigurationError("snr_db list is empty")
        keys = [_snr_stream_key(s, self.snr_offset_db) for s in self.snr_db]
        first = {}
        for snr, key in zip(self.snr_db, keys):
            if key in first:
                raise ConfigurationError(
                    f"snr_db values must differ by at least 1 milli-dB after rounding: "
                    f"{first[key]} and {snr} share the key round(1000 * snr_db) = {key}, "
                    "with ties rounded half to even")
            first[key] = snr
        if not self.schemes:
            raise ConfigurationError("schemes list is empty")
        for scheme in self.schemes:
            if not isinstance(scheme, SchemeMode):
                raise ConfigurationError(f"schemes must hold SchemeMode values, got {scheme!r}")
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
        import hashlib  # here, not at the top: of all a config does, only this needs them
        import json

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
        # Stored as Python values, as SimulationConfig stores its own.
        object.__setattr__(self, "snr_db", _real("snr_db", self.snr_db))
        object.__setattr__(self, "bits_total", _integer("bits_total", self.bits_total))
        object.__setattr__(self, "bit_errors", _integer("bit_errors", self.bit_errors))
        if not math.isfinite(self.snr_db):
            raise ConfigurationError(f"snr_db must be finite, got {self.snr_db}")
        if self.bits_total < 1:
            raise ConfigurationError(f"bits_total must be >= 1, got {self.bits_total}")
        if not 0 <= self.bit_errors <= self.bits_total:
            raise ConfigurationError(
                f"bit_errors must be between 0 and bits_total {self.bits_total}, "
                f"got {self.bit_errors}")
        mode = SchemeMode(self.u, self.m)
        object.__setattr__(self, "u", mode.u)
        object.__setattr__(self, "m", mode.m)
        if mode.label != self.scheme_label:
            raise ConfigurationError(f"scheme {self.scheme_label} has u = {self.u}, "
                                     f"m = {self.m}, which make {mode.label}")

    @property
    def ber(self) -> float:
        return self.bit_errors / self.bits_total

    @property
    def standard_error(self) -> float:
        p = self.ber
        return math.sqrt(p * (1.0 - p) / self.bits_total)

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
    """snr_key of a finite SNR whose largest noise draw, -N0 log1p(-u1) at u1 = 1 - 2**-53
    or 53 ln2 N0, is finite (a noise variance N0 of 0 is the noiseless limit), and whose
    milli-dB key round(1000 * snr_db) is too."""
    try:
        drawable = math.isfinite(snr_db + offset_db) and (
            snr_db_to_noise_variance(snr_db + offset_db) * (53 * math.log(2)) < math.inf)
    except OverflowError:
        drawable = False
    if not drawable:
        raise ConfigurationError(f"SNR {snr_db} dB at offset {offset_db} dB must be finite, "
                                 f"with a noise variance N0 whose largest draw 53 ln2 N0 is "
                                 f"finite")
    try:
        return snr_key(snr_db)
    except OverflowError:
        raise ConfigurationError(f"SNR {snr_db} dB at offset {offset_db} dB has a finite noise "
                                 f"variance, but its milli-dB key round(1000 * snr_db) "
                                 f"overflows") from None
