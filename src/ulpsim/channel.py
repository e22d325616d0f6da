"""Rayleigh-fading user pools and norm-based user selection.

A pool is an (n_users, n_tx) complex array with one row per candidate user,
and a channel H is the (n_active, n_tx) array of the selected rows. Both may
carry leading batch axes, one entry per realization; a single realization is
the batch-of-one case without them.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError
from .randomness import complex_normal


def draw_user_pool(rng: np.random.Generator, n_users: int, n_tx: int) -> np.ndarray:
    """Draw an i.i.d. Rayleigh-fading (n_users, n_tx) pool, entries CN(0,1)."""
    if n_users < 1 or n_tx < 1:
        raise ConfigurationError(
            f"pool dimensions must be >= 1, got {n_users} users x {n_tx} antennas"
        )
    return complex_normal(rng, (n_users, n_tx), 1.0)


def select_users(pool: np.ndarray, n_active: int) -> np.ndarray:
    """Keep the n_active rows with the largest Euclidean norms, per pool of a batch.

    Returns H of shape (..., n_active, n_tx). Ties go to the smaller original
    index; the selected rows keep their original relative order.
    """
    n_users = pool.shape[-2]
    if not 1 <= n_active <= n_users:
        raise ConfigurationError(
            f"cannot select {n_active} users from a pool of {n_users}"
        )
    norms = np.linalg.norm(pool, axis=-1)
    # Stable sort on -norm: equal norms keep ascending index order.
    ranked = np.argsort(-norms, axis=-1, kind="stable")[..., :n_active]
    chosen = np.sort(ranked, axis=-1)
    return np.take_along_axis(pool, chosen[..., None], axis=-2)
