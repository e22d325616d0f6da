"""Regularized Hermitian solves: Cholesky with a pivoted-LU fallback.

Callers pass 2-D complex128 arrays built by the simulator itself; values
from outside are checked once, where the configuration enters.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

from .errors import ShapeError, SingularMatrixError

# Relative pivot threshold below which a factorization is declared singular.
PIVOT_RTOL = 1e-12


def solve_hermitian(a, b, ridge: float = 0.0) -> np.ndarray:
    """Solve (A + ridge*I) X = B for Hermitian PSD A.

    Tries a Cholesky factorization first; falls back to pivoted LU when a
    pivot degenerates (the exactly-singular ridge=0 corner). Raises
    SingularMatrixError, naming the offending pivot, when both fail.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ShapeError(f"solve_hermitian requires square A, got {a.shape}")
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"A is {a.shape} but B is {b.shape}")
    if ridge < 0:
        raise ValueError(f"ridge must be nonnegative, got {ridge}")
    m = a + ridge * np.eye(a.shape[0], dtype=np.complex128)
    scale = np.linalg.norm(m) + ridge
    try:
        c, lower = scipy.linalg.cho_factor(m, check_finite=False)
        if float(np.min(np.abs(np.diag(c))) ** 2) > PIVOT_RTOL * max(scale, 1e-300):
            return scipy.linalg.cho_solve((c, lower), b, check_finite=False)
    except np.linalg.LinAlgError:
        pass
    # Pivoted LU fallback; reject if any pivot is negligible relative to ‖A‖.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
    pivots = np.abs(np.diag(lu))
    smallest = float(pivots.min()) if pivots.size else 0.0
    if smallest <= PIVOT_RTOL * max(scale, 1e-300):
        raise SingularMatrixError(
            f"matrix is singular within tolerance: smallest pivot {smallest:.3e} "
            f"vs scale {scale:.3e}"
        )
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)
