"""Counter-based random streams for reproducible parallel Monte Carlo.

Every work unit derives its own Philox generator from a master seed plus a
tuple of integer keys, so results never depend on worker count or execution
order. Gaussian variates come from a Box-Muller transform with a fixed
consumption of two uniforms per complex entry, which keeps stream alignment
identical across platforms.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def derived_stream(master_seed: int, *keys: int) -> np.random.Generator:
    """Generator keyed on (master_seed, *keys); identical keys, identical stream."""
    entropy = [master_seed & _MASK64] + [int(k) & _MASK64 for k in keys]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def complex_normal(rng: np.random.Generator, shape, variance: float) -> np.ndarray:
    """i.i.d. CN(0, variance) samples; consumes exactly 2 uniforms per entry."""
    if variance < 0:
        raise ValueError(f"variance must be nonnegative, got {variance}")
    u1 = rng.random(shape)
    return box_muller(u1, rng.random(shape), variance)


def box_muller(u1: np.ndarray, u2: np.ndarray, variance: float) -> np.ndarray:
    """CN(0, variance) samples from two same-shape arrays of uniforms in [0, 1)."""
    if variance == 0.0:
        return np.zeros(u1.shape, dtype=np.complex128)
    # Radius from u1 (log of 1-u1 avoids log(0)), phase from u2.
    r = np.sqrt(-variance * np.log1p(-u1))
    return r * np.exp(2j * np.pi * u2)


def snr_key(snr_db: float) -> int:
    """Stable integer key for an SNR value (milli-dB resolution)."""
    return int(round(snr_db * 1000.0))
