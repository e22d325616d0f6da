"""Linear precoders: plain/regularized channel inversion and the unified
(augmented-channel) family, with transmit-power normalization.

All four schemes are one regularized inversion with c = u^2 + m*sigma2: the
data block is H^H (H H^H + c I)^{-1}, and for u > 0 the trailing block is
u (I - F_data H) / c, which by the push-through identity equals
u (H^H H + c I)^{-1} for any n_active <= n_tx.

Every builder takes the channel H as an (..., n_active, n_tx) array, whose
leading batch axes hold one realization per entry, and builds one precoder
per matrix with its own beta; a single realization is the batch-of-one case
without them. The builders check u, m and sigma2 at entry, so c >= 0, and
solve_hermitian solves or rejects their Gram stack whole.

One decomposition and one rule serve both paths. solve_hermitian and
spectral_gains work on the spectrum H H^H = U diag(lam) U^H, and accept a matrix
where lam_min + c > 2 PIVOT_RTOL (||H H^H + c I||_F + c), taken on a spectrum scaled
by a power of two. spectral_gains gives the builders' beta H F_data from it alone.
Every refusal (that rule, zero or non-finite power, a ridge lost in the rounding
of H H^H) is a SingularMatrixError whose `index` is the stack's first refused matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# SchemeMode and LABELS are imported from here too.
from .config import LABELS, SchemeMode
from .errors import ConfigurationError, SingularMatrixError

# Relative floor of the rule: lam_min + c must clear twice this times the scale.
PIVOT_RTOL = 1e-12
_BELOW_ROUNDING = ("u^2 + m*sigma2 = {c:.3g} is below the rounding of H H^H; "
                   "u = 0 is the conventional inversion")


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
    beta = _beta(np.sum(np.abs(f_raw) ** 2, axis=(-2, -1)), n_tx)
    return per_matrix(beta) * f_raw, beta


def _refuse(accepted: bool | np.ndarray, message) -> None:
    """Raise SingularMatrixError(message(index)) for the first matrix of a stack that
    `accepted` (one flag per matrix) refuses, with `index` its flattened position."""
    if not np.all(accepted):
        index = int(np.argmin(np.reshape(accepted, -1)))
        error = SingularMatrixError(message(index))
        error.index = index
        raise error


def _beta(power: float | np.ndarray, n_tx: int) -> float | np.ndarray:
    """sqrt(n_tx / power) of each matrix's raw power, which must be finite and above
    n_tx / (the largest float), so that n_tx / power is finite."""
    floor = n_tx / np.finfo(float).max
    _refuse((power > floor) & np.isfinite(power), lambda i: (
        f"raw precoder power {np.reshape(power, -1)[i]:.3g} is so small that n_tx / power "
        "overflows" if 0 < np.reshape(power, -1)[i] <= floor
        else "raw precoder has zero (or non-finite) power"))
    return np.sqrt(n_tx / power)


def solve_hermitian(a: np.ndarray, b: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Solve (A + ridge*I) X = B for Hermitian PSD A and ridge >= 0, for each system of a stack.

    A is (..., n, n) and B is (..., n, k). One batched eigendecomposition
    A = U diag(lam) U^H gives X = U ((U^H B) / (lam + ridge)), and each matrix
    gets the same bits as if solved alone. Raises SingularMatrixError for the
    first matrix that fails the module's rule or has non-finite entries, with
    `index` set to its position in the flattened stack.
    """
    n = a.shape[-1]
    stack = a.reshape(-1, n, n)
    # eigh raises on NaN: a non-finite matrix is decomposed as zeros and named by its spectrum.
    finite = np.isfinite(stack).all(axis=(-2, -1))
    lam, vecs = np.linalg.eigh(np.where(finite[:, None, None], stack, 0.0))
    lam[~finite] = np.nan
    shifted = _accepted_shift(lam, vecs, ridge)
    rhs = b.reshape(len(stack), n, b.shape[-1])
    return (vecs @ ((vecs.conj().swapaxes(-1, -2) @ rhs) / shifted[..., None])).reshape(b.shape)


def _accepted_shift(lam: np.ndarray, vecs: np.ndarray, c: float) -> np.ndarray:
    """lam + c of a stack's spectrum (lam, vecs) of A, once the module's rule accepts each matrix.

    A matrix passes where its spectrum and c are finite and lam_min + c >
    2 PIVOT_RTOL (||A + c I||_F + c), taken on lam + c and c times 2**-e, with
    2**e above them all: exact, so no norm overflows (Blue, ACM TOMS 1978).
    Otherwise SingularMatrixError names the first that does not, with `index`
    set to its position in the flattened stack, by its floor or as non-finite.
    """
    shifted = np.reshape(lam + c, (-1, lam.shape[-1]))
    peak = np.max(np.abs(shifted), axis=-1)  # NaN or inf unless every lam + c is finite
    finite = np.isfinite(peak) & np.isfinite(vecs).all(axis=(-2, -1)).reshape(-1)
    _, e = np.frexp(np.maximum(peak, c))
    scaled = np.ldexp(shifted, -e[:, None])
    floor = 2 * PIVOT_RTOL * (np.hypot.reduce(scaled, axis=-1) + np.ldexp(c, -e))
    accepted = finite & (np.min(scaled, axis=-1) > floor)
    _refuse(accepted, lambda i: (
        "matrix is singular or indefinite within tolerance: the least eigenvalue is not "
        f"above 2 x {PIVOT_RTOL:g} x scale {math.hypot(*shifted[i]) + c:.3e}" if finite[i]
        else "matrix has non-finite entries"))
    return shifted.reshape(lam.shape)


def build_conventional(h: np.ndarray, m: float, sigma2: float) -> Precoder:
    """Channel inversion H^H (H H^H + m*sigma2*I)^{-1}, power-normalized.

    m = 0 is plain zero-forcing; m > 0 regularizes with m*sigma2.
    """
    return build_unified(h, 0.0, m, sigma2)


def build_unified(
    h: np.ndarray,
    u: float,
    m: float,
    sigma2: float,
    normalize_data_block_only: bool = False,
) -> Precoder:
    """Unified precoder (H^H H + c I)^{-1} [H^H  u*I] with c = u^2 + m*sigma2.

    At u = 0 the trailing columns vanish and the result is the conventional
    inversion. By default the power normalization covers the full matrix,
    trailing columns included; normalize_data_block_only restricts it to
    the data columns. Raises ConfigurationError for a u, m or sigma2 that is
    not finite and nonnegative, and SingularMatrixError for the first matrix
    it refuses.
    """
    mode = SchemeMode(u, m)
    n_tx, c = h.shape[-1], _ridge(mode, sigma2)
    gram = h @ h.conj().swapaxes(-1, -2)
    # X = (H H^H + c I)^{-1} H, so F_data = X^H = H^H (H H^H + c I)^{-1}.
    f_data = solve_hermitian(gram, h, ridge=c).conj().swapaxes(-1, -2)
    f_raw = f_data
    if u > 0:
        # A c lost in the rounding of H H^H leaves I - F_data H rounding noise.
        _refuse(c > np.finfo(float).eps * np.linalg.norm(gram, axis=(-2, -1)),
                lambda _: _BELOW_ROUNDING.format(c=c))
        f_raw = np.concatenate([f_data, (u / c) * (np.eye(n_tx) - f_data @ h)], axis=-1)
    _, beta = power_scale(f_data if normalize_data_block_only else f_raw, n_tx)
    return Precoder(F=per_matrix(beta) * f_raw, beta=beta, mode=mode)


def build(
    h: np.ndarray,
    mode: SchemeMode,
    sigma2: float,
    normalize_data_block_only: bool = False,
) -> Precoder:
    """Precoder for a scheme mode; u = 0 is the conventional inversion."""
    return build_unified(h, mode.u, mode.m, sigma2, normalize_data_block_only)


def _ridge(mode: SchemeMode, sigma2: float) -> float:
    """The regularizer c = u^2 + m*sigma2 of a mode, for a finite, nonnegative sigma2."""
    # Written so that NaN fails too.
    if not 0 <= sigma2 < np.inf:
        raise ConfigurationError(f"noise variance must be finite and nonnegative: sigma2={sigma2}")
    return mode.u * mode.u + mode.m * sigma2


def spectral_gains(spectrum: tuple[np.ndarray, np.ndarray], mode: SchemeMode, sigma2: float,
                   n_tx: int, normalize_data_block_only: bool = False) -> np.ndarray:
    """(beta H F_data)^T of each matrix of a stack, from its spectrum = eigh(H H^H).

    With c = u^2 + m*sigma2, H F_data = U diag(lam / (lam + c)) U^H, and the
    raw power is sum lam / (lam + c)^2 for the data block, plus u^2 times
    the squared norm of (H^H H + c I)^{-1} for the trailing block (left out
    under normalize_data_block_only). Refuses the first matrix that
    build_unified would refuse, by the same rules.
    """
    lam, vecs = spectrum
    n_active = lam.shape[-1]
    c = _ridge(mode, sigma2)
    shifted = _accepted_shift(lam, vecs, c)
    if mode.u > 0:
        _refuse(c > np.finfo(float).eps * np.sqrt(np.sum(lam**2, axis=-1)),
                lambda _: _BELOW_ROUNDING.format(c=c))
    inv = 1.0 / shifted
    power = np.sum(lam * inv**2, axis=-1)
    if mode.u > 0 and not normalize_data_block_only:
        # H^H H has the eigenvalues lam and n_tx - n_active zeros.
        # Scaled by u before squaring: a huge u overflows c**2 and underflows inv**2.
        power = power + np.sum((mode.u * inv)**2, axis=-1) + (n_tx - n_active) * (mode.u / c)**2
    weights = _beta(power, n_tx)[..., None] * lam * inv
    # The transpose of U diag(w) U^H, for real w, is conj(U) diag(w) U^T.
    return (vecs.conj() * weights[..., None, :]) @ vecs.swapaxes(-1, -2)
