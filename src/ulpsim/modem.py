"""QPSK mapping, AWGN, and the precoded transmit/receive chain.

Bit and symbol blocks may carry leading batch axes (realizations, frames);
the mapping acts along the last axis.
"""

from __future__ import annotations

import numpy as np

from .precoder import Precoder, per_matrix
from .randomness import complex_normal

# A symbol's real or imaginary part for bit 0 and for bit 1.
_LEVELS = np.array([1.0, -1.0]) / np.sqrt(2.0)


def qpsk_modulate(bits) -> np.ndarray:
    """Gray-map consecutive bit pairs along the last axis to unit-energy QPSK symbols.

    Pair (b0, b1) -> ((1-2*b0) + 1j*(1-2*b1)) / sqrt(2); b0 is the in-phase
    bit, so (0,0) lands on (+1+1j)/sqrt(2). Bits are bool or integer 0/1:
    each picks its part of a symbol from a 2-entry table, so the complex128
    (re, im, re, ...) of the symbols sits in the bits' order. A non-bool
    block holding any value but 0 and 1 raises ValueError naming the first
    such value, which the table would otherwise wrap around or miss; a float
    block of 0s and 1s raises TypeError.
    """
    b = np.asarray(bits)
    if b.ndim < 1 or b.shape[-1] % 2 != 0:
        raise ValueError(f"bit block must have an even-length last axis, got shape {b.shape}")
    if b.dtype != bool:
        outside = (b != 0) & (b != 1)
        if outside.any():
            raise ValueError(f"bits must be 0 or 1, got {b[outside][0]}")
    return _LEVELS.take(b).view(np.complex128)


def qpsk_demodulate(symbols) -> np.ndarray:
    """Minimum-distance decisions: sign of real/imaginary part per bit.

    Each symbol along the last axis becomes a bool bit pair in (re, im)
    order; an exact 0 or -0.0 decides bit 0 (the positive half-plane).
    """
    s = np.atleast_1d(np.asarray(symbols, dtype=np.complex128))
    return np.ascontiguousarray(s).view(np.float64) < 0


def draw_awgn(rng: np.random.Generator, n: int, n0: float) -> np.ndarray:
    """i.i.d. CN(0, N0) noise vector."""
    return complex_normal(rng, n, n0)


def transmit_receive(
    h: np.ndarray, precoder: Precoder, symbols: np.ndarray, noise: np.ndarray
) -> np.ndarray:
    """Run y = H F_data x + z and undo the power scaling at the receiver.

    H is the (..., n_active, n_tx) channel the precoder was built for.
    For a single precoder, symbols may be a vector (one channel use) or an
    (n_active, n_uses) matrix. For a stack of precoders they are
    (..., n_active, n_uses), one matrix per precoder, where the columns may
    span several frames. Noise must match the symbols' shape.
    """
    x = np.asarray(symbols, dtype=np.complex128)
    z = np.asarray(noise, dtype=np.complex128)
    f_data = precoder.data_block()
    streams = x.shape[0] if x.ndim == 1 else x.shape[-2]
    if streams != f_data.shape[-1]:
        raise ValueError(
            f"symbol vector has {streams} streams but precoder expects {f_data.shape[-1]}"
        )
    if z.shape != x.shape:
        raise ValueError(f"noise shape {z.shape} does not match symbols {x.shape}")
    # Gain control applied termwise so the noise contribution is exactly
    # additive: est(x, z) == est(x, 0) + z/beta.
    beta = per_matrix(precoder.beta)
    return (h @ (f_data @ x)) / beta + z / beta
