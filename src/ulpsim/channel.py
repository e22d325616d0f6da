"""Rayleigh-fading user pools and norm-based user selection."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .randomness import complex_normal


@dataclass(frozen=True)
class UserPool:
    """Candidate single-antenna users: one CN(0,1) row of length n_tx each."""

    rows: np.ndarray  # (n_users, n_tx) complex

    @property
    def n_users(self) -> int:
        return self.rows.shape[0]


@dataclass(frozen=True)
class ChannelMatrix:
    """Active-user channel: the selected pool rows, original order preserved."""

    H: np.ndarray  # (n_active, n_tx) complex
    selected_user_indices: tuple[int, ...] = field(default=())

    @property
    def n_active(self) -> int:
        return self.H.shape[0]

    @property
    def n_tx(self) -> int:
        return self.H.shape[1]


def draw_user_pool(rng: np.random.Generator, n_users: int, n_tx: int) -> UserPool:
    """Draw an i.i.d. Rayleigh-fading pool, entries CN(0,1)."""
    if n_users < 1 or n_tx < 1:
        raise ConfigurationError(
            f"pool dimensions must be >= 1, got {n_users} users x {n_tx} antennas"
        )
    return UserPool(rows=complex_normal(rng, (n_users, n_tx), 1.0))


def select_users(pool: UserPool, n_active: int) -> ChannelMatrix:
    """Keep the n_active rows with the largest Euclidean norms.

    Ties go to the smaller original index; the selected rows keep their
    original relative order.
    """
    if not 1 <= n_active <= pool.n_users:
        raise ConfigurationError(
            f"cannot select {n_active} users from a pool of {pool.n_users}"
        )
    norms = np.linalg.norm(pool.rows, axis=1)
    # Stable sort on -norm: equal norms keep ascending index order.
    ranked = np.argsort(-norms, kind="stable")[:n_active]
    chosen = np.sort(ranked)
    return ChannelMatrix(
        H=pool.rows[chosen].copy(),
        selected_user_indices=tuple(int(i) for i in chosen),
    )

