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
solve_hermitian solves or rejects their Gram stack whole: a matrix that
fails the Cholesky test gets no second path.

spectral_gains gives the same beta H F_data from the spectrum H H^H =
U diag(lam) U^H alone, for every c >= 0. It accepts a matrix where lam_min +
c > 2 PIVOT_RTOL (||H H^H + c I||_F + c), and lam_min + c bounds every
Cholesky pivot squared from below, so the solve accepts it too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DegeneratePrecoderError, SingularMatrixError

LABELS = ("LZFP", "LMMSEP", "ULZFP", "ULMMSEP")

# Relative pivot threshold below which a factorization is declared singular.
PIVOT_RTOL = 1e-12
_BELOW_ROUNDING = ("u^2 + m*sigma2 = {c:.3g} is below the rounding of H H^H; "
                   "u = 0 is the conventional inversion")


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
    beta = _beta(np.sum(np.abs(f_raw) ** 2, axis=(-2, -1)), n_tx)
    return per_matrix(beta) * f_raw, beta


def _beta(power: float | np.ndarray, n_tx: int) -> float | np.ndarray:
    """sqrt(n_tx / power) of each matrix's raw power, which must be positive and finite."""
    if not np.all((power > 0.0) & np.isfinite(power)):
        raise DegeneratePrecoderError("raw precoder has zero (or non-finite) power")
    return np.sqrt(n_tx / power)


def solve_hermitian(a: np.ndarray, b: np.ndarray, ridge: float = 0.0) -> np.ndarray:
    """Solve (A + ridge*I) X = B for Hermitian PSD A and ridge >= 0, for each system of a stack.

    A is (..., n, n) and B is (..., n, k). One batched Cholesky factorization
    tests every matrix against the PIVOT_RTOL floor; if all pass, one batched
    solve of the unmodified stack serves them all, and each matrix gets the
    same bits as if solved alone. Otherwise raises SingularMatrixError for the
    first rejected matrix, with `index` set to its position in the flattened
    stack and a message naming its pivot floor or its non-finite entries.
    """
    n = a.shape[-1]
    m = (a + ridge * np.eye(n, dtype=np.complex128)).reshape(-1, n, n)
    rhs = b.reshape(len(m), n, b.shape[-1])
    # The norm of a non-finite matrix is inf or NaN, after an inf * 0 that
    # would warn; such a matrix fails the test below and is named there.
    with np.errstate(invalid="ignore"):
        scale = np.maximum(np.linalg.norm(m, axis=(-2, -1)) + ridge, 1e-300)
    accepted = _cholesky_accepts(m, PIVOT_RTOL * scale)
    if not accepted.all():
        raise _first_rejected(accepted, np.isfinite(m).all(axis=(-2, -1)), scale,
                              f"a Cholesky pivot squared is not above {PIVOT_RTOL:g}")
    return np.linalg.solve(m, rhs).reshape(b.shape)


def _first_rejected(accepted: np.ndarray, finite: np.ndarray, scale: np.ndarray,
                    floor: str) -> SingularMatrixError:
    """The error, with its `index`, of the first matrix of a flattened stack not accepted."""
    index = int(np.argmin(accepted))
    error = SingularMatrixError(
        f"matrix is singular or indefinite within tolerance: {floor} x scale "
        f"{scale[index]:.3e}" if finite[index] else "matrix has non-finite entries")
    error.index = index
    return error


def _cholesky_accepts(m: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Per matrix of the stack m: does Cholesky succeed with min pivot^2 above floor?"""
    try:
        c = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        # The stack holds a matrix that is not positive definite: test each alone.
        if len(m) == 1:
            return np.zeros(1, dtype=bool)
        return np.concatenate([_cholesky_accepts(m[i:i + 1], floor[i:i + 1])
                               for i in range(len(m))])
    return np.min(np.abs(np.diagonal(c, axis1=-2, axis2=-1)), axis=-1) ** 2 > floor


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
    not finite and nonnegative.
    """
    mode = SchemeMode(u, m)
    n_tx, c = h.shape[-1], _ridge(mode, sigma2)
    gram = h @ h.conj().swapaxes(-1, -2)
    # X = (H H^H + c I)^{-1} H, so F_data = X^H = H^H (H H^H + c I)^{-1}.
    f_data = solve_hermitian(gram, h, ridge=c).conj().swapaxes(-1, -2)
    f_raw = f_data
    if u > 0:
        # A c lost in the rounding of H H^H leaves I - F_data H rounding noise.
        if np.any(c <= np.finfo(float).eps * np.linalg.norm(gram, axis=(-2, -1))):
            raise DegeneratePrecoderError(_BELOW_ROUNDING.format(c=c))
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
    under normalize_data_block_only). Raises as solve_hermitian does for the
    first matrix that fails the module's rule, as build_unified does for a
    u > 0 whose c is lost in the rounding of H H^H, and as power_scale does
    for zero or non-finite power.
    """
    lam, vecs = spectrum
    n_active = lam.shape[-1]
    c = _ridge(mode, sigma2)
    # A huge or non-finite c or spectrum fails the test below, where it is named.
    with np.errstate(over="ignore", invalid="ignore"):
        shifted = lam + c
        scale = (np.sqrt(np.sum(shifted**2, axis=-1)) + c).reshape(-1)
        finite = (np.isfinite(shifted).all(axis=-1)
                  & np.isfinite(vecs).all(axis=(-2, -1))).reshape(-1)
        accepted = finite & (np.min(shifted, axis=-1).reshape(-1) > 2 * PIVOT_RTOL * scale)
    if not accepted.all():
        raise _first_rejected(accepted, finite, scale,
                              f"the least eigenvalue is not above 2 x {PIVOT_RTOL:g}")
    if mode.u > 0 and np.any(c <= np.finfo(float).eps * np.sqrt(np.sum(lam**2, axis=-1))):
        raise DegeneratePrecoderError(_BELOW_ROUNDING.format(c=c))
    inv = 1.0 / shifted
    power = np.sum(lam * inv**2, axis=-1)
    if mode.u > 0 and not normalize_data_block_only:
        # H^H H has the eigenvalues lam and n_tx - n_active zeros.
        power = power + mode.u**2 * (np.sum(inv**2, axis=-1) + (n_tx - n_active) / c**2)
    weights = _beta(power, n_tx)[..., None] * lam * inv
    # The transpose of U diag(w) U^H, for real w, is conj(U) diag(w) U^T.
    return (vecs.conj() * weights[..., None, :]) @ vecs.swapaxes(-1, -2)


def effective_gain(h: np.ndarray, precoder: Precoder) -> np.ndarray:
    """beta^{-1} H F_data: identity for exact zero-forcing, otherwise the
    residual-interference map seen at the receivers after gain control."""
    return (h @ precoder.data_block()) / per_matrix(precoder.beta)
