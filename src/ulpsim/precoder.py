"""Linear precoders: plain/regularized channel inversion and the unified
(augmented-channel) family, with transmit-power normalization.

The unified precoder is computed through the column-space identity
(H_u^H H_u + m*sigma2*I)^{-1} H_u^H, which stays well defined at m = 0
(where the row-space expression is not invertible for u > 0) and equals the
Moore-Penrose pseudo-inverse of the augmented channel there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelMatrix
from .errors import ConfigurationError, DegeneratePrecoderError
from .linalg import solve_hermitian

LABELS = ("LZFP", "LMMSEP", "ULZFP", "ULMMSEP")


@dataclass(frozen=True)
class SchemeMode:
    """Precoding scheme knobs: augmentation weight u and regularizer multiplier m."""

    u: float
    m: float

    def __post_init__(self):
        # Written so that NaN fails too.
        if not (0 <= self.u < np.inf and 0 <= self.m < np.inf):
            raise ConfigurationError(
                f"scheme parameters must be finite and nonnegative: u={self.u}, m={self.m}")

    @property
    def label(self) -> str:
        if self.u == 0:
            return "LZFP" if self.m == 0 else "LMMSEP"
        return "ULZFP" if self.m == 0 else "ULMMSEP"

    @classmethod
    def from_label(cls, label: str, u: float = 1.0, m: float = 1.0) -> "SchemeMode":
        """Mode for a scheme name; u and m apply only where the name allows them."""
        name = label.strip().upper()
        if name == "LZFP":
            return cls(0.0, 0.0)
        if name == "LMMSEP":
            return cls(0.0, m)
        if name == "ULZFP":
            return cls(u, 0.0)
        if name == "ULMMSEP":
            return cls(u, m)
        raise ConfigurationError(f"unknown scheme {label!r}; expected one of {LABELS}")


@dataclass(frozen=True)
class Precoder:
    """Power-normalized precoding matrix with its scaling constant.

    F has n_tx rows; unified precoders (u > 0) carry n_active + n_tx columns
    of which only the first n_active ever multiply data symbols.
    """

    F: np.ndarray
    beta: float
    mode: SchemeMode
    sigma2: float

    @property
    def n_tx(self) -> int:
        return self.F.shape[0]

    def data_block(self) -> np.ndarray:
        """Columns that multiply the symbol vector (all of F when u = 0)."""
        if self.mode.u > 0:
            return self.F[:, : self.F.shape[1] - self.n_tx]
        return self.F


def power_scale(f_raw: np.ndarray, n_tx: int) -> tuple[np.ndarray, float]:
    """Scale so that the total power sum |F_ij|^2 = n_tx; returns (F, beta)."""
    power = float(np.sum(np.abs(f_raw) ** 2))
    if power <= 0.0 or not np.isfinite(power):
        raise DegeneratePrecoderError("raw precoder has zero (or non-finite) power")
    beta = float(np.sqrt(n_tx / power))
    return beta * f_raw, beta


def build_conventional(channel: ChannelMatrix, m: float, sigma2: float) -> Precoder:
    """Channel inversion H^H (H H^H + m*sigma2*I)^{-1}, power-normalized.

    m = 0 is plain zero-forcing; m > 0 regularizes with m*sigma2.
    """
    h = channel.H
    gram = h @ h.conj().T
    # X = (H H^H + ridge I)^{-1} H, so F_raw = X^H = H^H (H H^H + ridge I)^{-1}.
    x = solve_hermitian(gram, h, ridge=m * sigma2)
    f, beta = power_scale(x.conj().T, channel.n_tx)
    return Precoder(F=f, beta=beta, mode=SchemeMode(0.0, m), sigma2=sigma2)


def build_unified(
    channel: ChannelMatrix,
    u: float,
    m: float,
    sigma2: float,
    normalize_data_block_only: bool = False,
) -> Precoder:
    """Unified precoder (H^H H + (u^2 + m*sigma2) I)^{-1} [H^H  u*I].

    At u = 0 the trailing columns vanish and the result reduces exactly to
    build_conventional. By default the power normalization covers the full
    augmented matrix, trailing columns included; normalize_data_block_only
    restricts it to the data columns.
    """
    if u == 0:
        return build_conventional(channel, m, sigma2)
    n_tx = channel.n_tx
    hu = np.vstack([channel.H, u * np.eye(n_tx, dtype=np.complex128)])
    huh = hu.conj().T
    f_raw = solve_hermitian(huh @ hu, huh, ridge=m * sigma2)
    if normalize_data_block_only:
        _, beta = power_scale(f_raw[:, : channel.n_active], n_tx)
        f = beta * f_raw
    else:
        f, beta = power_scale(f_raw, n_tx)
    return Precoder(F=f, beta=beta, mode=SchemeMode(u, m), sigma2=sigma2)


def build(
    channel: ChannelMatrix,
    mode: SchemeMode,
    sigma2: float,
    normalize_data_block_only: bool = False,
) -> Precoder:
    """Precoder for a scheme mode; u = 0 is the conventional inversion."""
    return build_unified(channel, mode.u, mode.m, sigma2, normalize_data_block_only)


def effective_gain(channel: ChannelMatrix, precoder: Precoder) -> np.ndarray:
    """beta^{-1} H F_data: identity for exact zero-forcing, otherwise the
    residual-interference map seen at the receivers after gain control."""
    return (channel.H @ precoder.data_block()) / precoder.beta
