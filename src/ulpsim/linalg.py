"""Regularized Hermitian solves: one batched Cholesky test, then one batched solve.

Callers pass complex128 arrays built by the simulator itself; values from
outside are checked once, where the configuration enters. A leading batch
axis stacks independent systems; a single 2-D system is the batch-of-one case.

Every precoder solves (A + ridge I) X = B with A Hermitian PSD, which only
the ridge = 0 corner on a rank-deficient channel makes singular. A stack is
therefore solved or rejected whole: there is no second path for a matrix that
fails the Cholesky test. numpy is the only dependency.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError, SingularMatrixError

# Relative pivot threshold below which a factorization is declared singular.
PIVOT_RTOL = 1e-12


def solve_hermitian(a, b, ridge: float = 0.0) -> np.ndarray:
    """Solve (A + ridge*I) X = B for Hermitian PSD A, for each system of a stack.

    A is (..., n, n) and B is (..., n, k). One batched Cholesky factorization
    tests every matrix against the PIVOT_RTOL floor; if all pass, one batched
    solve of the unmodified stack serves them all, and each matrix gets the
    same bits as if solved alone. Otherwise raises SingularMatrixError for the
    first rejected matrix, with `index` set to its position in the flattened
    stack and a message naming its pivot floor or its non-finite entries.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ShapeError(f"solve_hermitian requires square A, got {a.shape}")
    if b.shape[:-1] != a.shape[:-1]:
        raise ShapeError(f"A is {a.shape} but B is {b.shape}")
    if ridge < 0:
        raise ValueError(f"ridge must be nonnegative, got {ridge}")
    n = a.shape[-1]
    m = (a + ridge * np.eye(n, dtype=np.complex128)).reshape(-1, n, n)
    rhs = b.reshape(len(m), n, b.shape[-1])
    # The norm of a non-finite matrix is inf or NaN, after an inf * 0 that
    # would warn; such a matrix fails the test below and is named there.
    with np.errstate(invalid="ignore"):
        scale = np.maximum(np.linalg.norm(m, axis=(-2, -1)) + ridge, 1e-300)
    accepted = _cholesky_accepts(m, PIVOT_RTOL * scale)
    if not accepted.all():
        index = int(np.argmin(accepted))
        if np.isfinite(m[index]).all():
            error = SingularMatrixError(
                "matrix is singular or indefinite within tolerance: a Cholesky "
                f"pivot squared is not above {PIVOT_RTOL:g} x scale {scale[index]:.3e}")
        else:
            error = SingularMatrixError("matrix has non-finite entries")
        error.index = index
        raise error
    return np.linalg.solve(m, rhs).reshape(b.shape)


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
