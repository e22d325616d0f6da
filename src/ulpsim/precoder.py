"""Linear precoders: plain/regularized channel inversion and the unified
(augmented-channel) family, with transmit-power normalization.

The unified precoder is computed through the column-space identity
(H_u^H H_u + m*sigma2*I)^{-1} H_u^H, which stays well defined at m = 0
(where the row-space expression is not invertible for u > 0) and equals the
Moore-Penrose pseudo-inverse of the augmented channel there.

Every function takes the channel H as an (..., n_active, n_tx) array, whose
leading batch axes hold one realization per entry, and builds one precoder
per matrix with its own beta; a single realization is the batch-of-one case
without them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
class Precoder:
    """Power-normalized precoding matrices with their scaling constants.

    F is (..., n_tx, cols) and beta is (...,), one per matrix (a scalar for a
    single precoder). Unified precoders (u > 0) carry n_active + n_tx columns
    of which only the first n_active ever multiply data symbols.
    """

    F: np.ndarray
    beta: float | np.ndarray
    mode: SchemeMode

    @property
    def n_tx(self) -> int:
        return self.F.shape[-2]

    def data_block(self) -> np.ndarray:
        """Columns that multiply the symbol vector (all of F when u = 0)."""
        if self.mode.u > 0:
            return self.F[..., : self.F.shape[-1] - self.n_tx]
        return self.F


def per_matrix(beta):
    """beta shaped to scale each matrix of a stack; a single beta stays a scalar."""
    beta = np.asarray(beta)
    return beta[..., None, None] if beta.ndim else beta


def power_scale(f_raw: np.ndarray, n_tx: int) -> tuple[np.ndarray, float | np.ndarray]:
    """Scale each matrix so that its total power sum |F_ij|^2 = n_tx; returns (F, beta)."""
    power = np.sum(np.abs(f_raw) ** 2, axis=(-2, -1))
    if not np.all((power > 0.0) & np.isfinite(power)):
        raise DegeneratePrecoderError("raw precoder has zero (or non-finite) power")
    beta = np.sqrt(n_tx / power)
    return per_matrix(beta) * f_raw, beta


def build_conventional(h: np.ndarray, m: float, sigma2: float) -> Precoder:
    """Channel inversion H^H (H H^H + m*sigma2*I)^{-1}, power-normalized.

    m = 0 is plain zero-forcing; m > 0 regularizes with m*sigma2.
    """
    gram = h @ h.conj().swapaxes(-1, -2)
    # X = (H H^H + ridge I)^{-1} H, so F_raw = X^H = H^H (H H^H + ridge I)^{-1}.
    x = solve_hermitian(gram, h, ridge=m * sigma2)
    f, beta = power_scale(x.conj().swapaxes(-1, -2), h.shape[-1])
    return Precoder(F=f, beta=beta, mode=SchemeMode(0.0, m))


def build_unified(
    h: np.ndarray,
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
        return build_conventional(h, m, sigma2)
    n_active, n_tx = h.shape[-2:]
    scaled_eye = np.broadcast_to(u * np.eye(n_tx, dtype=np.complex128),
                                 h.shape[:-2] + (n_tx, n_tx))
    hu = np.concatenate([h, scaled_eye], axis=-2)
    huh = hu.conj().swapaxes(-1, -2)
    f_raw = solve_hermitian(huh @ hu, huh, ridge=m * sigma2)
    if normalize_data_block_only:
        _, beta = power_scale(f_raw[..., :n_active], n_tx)
        f = per_matrix(beta) * f_raw
    else:
        f, beta = power_scale(f_raw, n_tx)
    return Precoder(F=f, beta=beta, mode=SchemeMode(u, m))


def build(
    h: np.ndarray,
    mode: SchemeMode,
    sigma2: float,
    normalize_data_block_only: bool = False,
) -> Precoder:
    """Precoder for a scheme mode; u = 0 is the conventional inversion."""
    return build_unified(h, mode.u, mode.m, sigma2, normalize_data_block_only)


def effective_gain(h: np.ndarray, precoder: Precoder) -> np.ndarray:
    """beta^{-1} H F_data: identity for exact zero-forcing, otherwise the
    residual-interference map seen at the receivers after gain control."""
    return (h @ precoder.data_block()) / per_matrix(precoder.beta)
