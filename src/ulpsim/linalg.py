"""Regularized Hermitian solves: Cholesky with a pivoted-LU fallback.

Callers pass complex128 arrays built by the simulator itself; values from
outside are checked once, where the configuration enters. A leading batch
axis stacks independent systems; a single 2-D system is the batch-of-one case.

The accepted Cholesky path is numpy alone. scipy is imported by the LU
fallback on its first use, so importing ulpsim does not load it: the
fallback runs only for a matrix whose Cholesky pivot degenerates, which
Rayleigh draws do not produce.
"""

from __future__ import annotations

import warnings

import numpy as np

from .errors import ShapeError, SingularMatrixError

# Relative pivot threshold below which a factorization is declared singular.
PIVOT_RTOL = 1e-12


def solve_hermitian(a, b, ridge: float = 0.0) -> np.ndarray:
    """Solve (A + ridge*I) X = B for Hermitian PSD A, for each system of a stack.

    A is (..., n, n) and B is (..., n, k). One batched Cholesky factorization
    tests every matrix; each matrix whose smallest pivot degenerates (the
    exactly-singular ridge=0 corner) falls back, alone, to pivoted LU. Raises
    SingularMatrixError, naming the offending pivot and setting `index` to the
    matrix's position in the flattened stack, when both fail.
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
    floor = PIVOT_RTOL * np.maximum(np.linalg.norm(m, axis=(-2, -1)) + ridge, 1e-300)
    accepted = _cholesky_accepts(m, floor)
    x = np.empty_like(rhs)
    x[accepted] = np.linalg.solve(m[accepted], rhs[accepted])
    for i in np.flatnonzero(~accepted):
        x[i] = _lu_solve(m[i], rhs[i], floor[i], i)
    return x.reshape(b.shape)


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


def _lu_solve(m: np.ndarray, b: np.ndarray, floor: float, index: int) -> np.ndarray:
    """Pivoted LU solve of one system; rejects it if a pivot is negligible relative to ‖A‖."""
    import scipy.linalg

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
    pivots = np.abs(np.diag(lu))
    smallest = float(pivots.min()) if pivots.size else 0.0
    if smallest <= floor:
        error = SingularMatrixError(
            f"matrix is singular within tolerance: smallest pivot {smallest:.3e} "
            f"vs scale {floor / PIVOT_RTOL:.3e}"
        )
        error.index = int(index)
        raise error
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)
