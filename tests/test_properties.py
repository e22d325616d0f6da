"""Property tests of the precoder identities over drawn channels and parameters.

Channels are plain (n, n) arrays selected from pools drawn on derived_stream
seeds, square as the harness requires. The examples are derandomized, so the
suite draws the same cases on every run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulpsim.channel import draw_user_pool, select_users
from ulpsim.precoder import SchemeMode, build_conventional, build_unified
from ulpsim.randomness import derived_stream

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60, database=None)

seeds = st.integers(0, 2**32 - 1)
sizes = st.integers(1, 8)
weights = st.one_of(st.just(0.0), st.floats(1e-3, 4.0))
noise_variances = st.floats(1e-3, 10.0)


def channel(seed: int, n: int) -> np.ndarray:
    """The n strongest of 2n users on n antennas, from the stream of one seed."""
    return select_users(draw_user_pool(derived_stream(seed), 2 * n, n), n)


def power(f: np.ndarray) -> float:
    return float(np.sum(np.abs(f) ** 2))


@PROPERTY
@given(seed=seeds, n=sizes, u=weights, m=weights, sigma2=noise_variances)
def test_full_matrix_normalization(seed, n, u, m, sigma2):
    p = build_unified(channel(seed, n), u, m, sigma2)
    assert p.F.shape == (n, 2 * n if u > 0 else n)
    assert power(p.F) == pytest.approx(n, rel=1e-9)


@PROPERTY
@given(seed=seeds, n=sizes, u=weights, m=weights, sigma2=noise_variances)
def test_data_block_only_normalization(seed, n, u, m, sigma2):
    full = build_unified(channel(seed, n), u, m, sigma2)
    p = build_unified(channel(seed, n), u, m, sigma2, normalize_data_block_only=True)
    assert power(p.data_block()) == pytest.approx(n, rel=1e-9)
    # Both normalizations scale the same raw matrix.
    assert np.allclose(p.F / p.beta, full.F / full.beta, rtol=1e-12, atol=0)


@PROPERTY
@given(seed=seeds, n=sizes, m=weights, sigma2=noise_variances,
       data_block_only=st.booleans())
def test_unified_at_u0_is_conventional_exactly(seed, n, m, sigma2, data_block_only):
    h = channel(seed, n)
    conv = build_conventional(h, m, sigma2)
    uni = build_unified(h, 0.0, m, sigma2, normalize_data_block_only=data_block_only)
    assert np.array_equal(uni.F, conv.F)
    assert uni.beta == conv.beta
    assert uni.mode == conv.mode == SchemeMode(0.0, m)


@PROPERTY
@given(seed=seeds, n=sizes, sigma2=noise_variances)
def test_zero_forcing_is_exact(seed, n, sigma2):
    # The solve goes through the Gram matrix H H^H, so its error grows with cond(H)^2.
    h = channel(seed, n)
    p = build_conventional(h, 0.0, sigma2)
    residual = np.abs(h @ p.F / p.beta - np.eye(n)).max()
    assert residual <= 1e-14 * np.linalg.cond(h) ** 2 + 1e-13


@PROPERTY
@given(u=weights, m=weights)
def test_scheme_labels_follow_zero_parameters(u, m):
    mode = SchemeMode(u, m)
    expected = {(True, True): "LZFP", (True, False): "LMMSEP",
                (False, True): "ULZFP", (False, False): "ULMMSEP"}[(u == 0, m == 0)]
    assert mode.label == expected
    assert SchemeMode.from_label(expected, u=u, m=m) == mode
