"""A conditional oracle for the engine's error counts.

Given the channel H, the precoder and the sent bits, each decision the
engine counts is an independent Bernoulli trial. With G = beta H F_data
and x the sent QPSK symbols, the in-phase bit of user k errs with
probability p = Q(s Re(G x)_k / sqrt(N0/2)), where s = +1 for bit 0 and -1
for bit 1; the quadrature bit uses Im. A cell's count then has mean sum p
and variance sum p (1 - p). The oracle rebuilds H and the bits through the
reference path (derived_stream, draw_user_pool, select_users,
precoder.build) and never reads the noise, so a wrong noise draw, noise
variance, gain or decision rule moves the engine's count but not the
prediction.
"""

from functools import cache

import numpy as np
import pytest
from scipy.special import ndtr

from ulpsim import precoder
from ulpsim.channel import draw_user_pool, select_users
from ulpsim.harness import SimulationConfig, run_sweep
from ulpsim.modem import draw_awgn
from ulpsim.randomness import derived_stream, snr_key

# Every cell of this config gives at least a hundred errors.
CONFIG = SimulationConfig(realizations=100, frames=4, symbols_per_frame=50, seed=7,
                          snr_db=(4.0, 8.0, 12.0))
# Each z is about N(0, 1), so one of the 12 cells passes 4 with probability about 8e-4.
Z_BOUND = 4.0


def noise_variance(snr_db):
    """N0 of an SNR, with unit symbol energy: 10^(-SNR/10)."""
    return 10.0 ** (-snr_db / 10.0)


@cache
def reference_draws(snr_db):
    """The channels (realizations, users, tx) and the sent bits (realizations, frames,
    symbols, users, 2) of CONFIG at an SNR, one realization at a time."""
    k, n_sym = CONFIG.active_users, CONFIG.symbols_per_frame
    channels, bits = [], []
    for r in range(CONFIG.realizations):
        rng = derived_stream(CONFIG.seed, snr_key(snr_db), r)
        channels.append(select_users(draw_user_pool(rng, CONFIG.pool_users,
                                                    CONFIG.tx_antennas), k))
        frames = []
        for _ in range(CONFIG.frames):
            frames.append(rng.integers(0, 2, 2 * k * n_sym).reshape(n_sym, k, 2))
            draw_awgn(rng, (k, n_sym), noise_variance(snr_db))  # keeps the stream aligned
        bits.append(frames)
    return np.stack(channels), np.array(bits, dtype=np.int8)


def predicted_errors(scheme, snr_db):
    """Mean and variance of a cell's count, given its channels and sent bits."""
    h, bits = reference_draws(snr_db)
    n0 = noise_variance(snr_db)
    g = h @ precoder.build(h, scheme, n0).data_block()
    signs = 1 - 2 * bits
    x = (signs[..., 0] + 1j * signs[..., 1]) / np.sqrt(2)
    gx = np.einsum("rkj,rfsj->rfsk", g, x)
    p = ndtr(-signs * np.stack([gx.real, gx.imag], axis=-1) / np.sqrt(n0 / 2))
    return p.sum(), (p * (1 - p)).sum()


@pytest.fixture(scope="module")
def table():
    return run_sweep(CONFIG)


@pytest.mark.parametrize("label", [s.label for s in CONFIG.schemes])
@pytest.mark.parametrize("snr_db", CONFIG.snr_db)
def test_count_matches_the_conditional_oracle(table, label, snr_db):
    scheme = next(s for s in CONFIG.schemes if s.label == label)
    mean, variance = predicted_errors(scheme, snr_db)
    count = table.lookup(label, snr_db).bit_errors
    z = (count - mean) / np.sqrt(variance)
    assert mean > 100
    assert abs(z) < Z_BOUND, f"{count} errors against {mean:.1f} predicted: z = {z:+.2f}"
