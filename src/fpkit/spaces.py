"""Finite-dimensional real vectors, the three workhorse norms, and induced
operator norms.

Everything is float64. Vectors are 1-D numpy arrays, matrices are square 2-D
arrays. The l2 operator norm is the largest singular value from LAPACK's SVD
(through numpy); the l1 and l-infinity operator norms are exact column/row
sums.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import InvariantViolation

# Dimension guard for user-supplied data. Generous for the intended desk-scale
# experiments; raise it explicitly when constructing bigger problems.
DIM_CAP = 64


class NormKind(str, Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"


def as_vector(x, *, dim_cap: int = DIM_CAP, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array, validating shape and entries."""
    try:
        v = np.asarray(x, dtype=float)
    except (TypeError, ValueError):
        raise InvariantViolation(f"{name}: expected an array of numbers") from None
    if v.ndim != 1 or v.size == 0:
        raise InvariantViolation(f"{name}: expected a non-empty 1-D array, got shape {v.shape}")
    if v.size > dim_cap:
        raise InvariantViolation(f"{name}: dimension {v.size} exceeds cap {dim_cap}")
    if not np.all(np.isfinite(v)):
        raise InvariantViolation(f"{name}: entries must be finite")
    return v


def as_matrix(m, *, dim_cap: int = DIM_CAP, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite square float64 matrix."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise InvariantViolation(f"{name}: expected a non-empty square matrix, got shape {a.shape}")
    if a.shape[0] > dim_cap:
        raise InvariantViolation(f"{name}: dimension {a.shape[0]} exceeds cap {dim_cap}")
    if not np.all(np.isfinite(a)):
        raise InvariantViolation(f"{name}: entries must be finite")
    return a


def norm(v, kind: NormKind = NormKind.L2) -> float:
    """Vector norm of the requested kind. Zero exactly on the zero vector."""
    v = np.asarray(v, dtype=float)
    kind = NormKind(kind)
    if kind is NormKind.L1:
        return float(np.sum(np.abs(v)))
    if kind is NormKind.L2:
        return float(np.linalg.norm(v))
    return float(np.max(np.abs(v)))


def norms_rowwise(rows: np.ndarray, kind: NormKind = NormKind.L2) -> np.ndarray:
    """Norm of each row of a 2-D array, vectorized."""
    kind = NormKind(kind)
    if kind is NormKind.L1:
        return np.sum(np.abs(rows), axis=1)
    if kind is NormKind.L2:
        return np.sqrt(np.sum(rows * rows, axis=1))
    return np.max(np.abs(rows), axis=1)


def operator_norm(M, kind: NormKind = NormKind.L2) -> float:
    """Induced operator norm of a square matrix.

    l1 and l-infinity are the exact maximum absolute column and row sums. l2
    is the largest singular value, computed by LAPACK's SVD.
    """
    M = as_matrix(M)
    kind = NormKind(kind)
    if kind is NormKind.L1:
        return float(np.max(np.sum(np.abs(M), axis=0)))
    if kind is NormKind.LINF:
        return float(np.max(np.sum(np.abs(M), axis=1)))
    return float(np.linalg.norm(M, 2))
