"""Finite-dimensional real vectors, the three workhorse norms, and induced
operator norms.

Everything is float64. Vectors are 1-D numpy arrays, matrices are square 2-D
arrays. The l2 operator norm is the largest singular value from LAPACK's SVD
(through numpy); the l1 and l-infinity operator norms are exact column/row
sums.
"""

from __future__ import annotations

import math
import numbers
from enum import Enum

import numpy as np

from .errors import InvariantViolation, ParameterOutOfRange

# Dimension guard for user-supplied data, generous for the intended desk-scale
# experiments.
DIM_CAP = 64

# Below this l2 norm, v . v is under the smallest normal float64: squares lose
# bits or vanish, and _l2 rescales first. Every entry of such a
# vector is below it too, so scaling by _L2_SCALE puts all nonzero squares in
# the normal range without overflow; a power of two scales exactly.
_L2_RESCALE_BELOW = math.sqrt(np.finfo(float).tiny)  # about 1.49e-154
_L2_SCALE = 2.0**600


class NormKind(str, Enum):
    L1 = "l1"
    L2 = "l2"
    LINF = "linf"


def as_norm_kind(kind) -> NormKind:
    """``kind`` as a NormKind; an unknown name raises ParameterOutOfRange."""
    try:
        return NormKind(kind)
    except ValueError:
        raise ParameterOutOfRange(f"unknown norm {kind!r}, expected l1, l2 or linf") from None


def is_number(v) -> bool:
    """Whether ``v`` is a real number. Python counts a bool as an int; this does not."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def is_integer(v) -> bool:
    """Whether ``v`` is an integer, numpy's included, and not a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def as_float(v) -> float:
    """The real number ``v`` as a float. ``float`` raises OverflowError on an
    integer or fraction past the float range, such as a 400-digit JSON
    integer; here that reads as an infinity of its sign, so a check for a
    finite value refuses it as it refuses inf."""
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _float_array(x, name: str) -> np.ndarray:
    """``x`` as a float64 array, without a copy when it is one already.

    InvariantViolation naming ``name`` when ``x`` is not an array of numbers,
    or holds an integer past the float range, on which numpy raises
    OverflowError. A string or bytes is not a number, although numpy would
    parse one: arrays of them are refused, and so is an object array (such
    as a list of Decimals, which is taken) holding one. Entries are not
    checked for finiteness.
    """
    try:
        a = np.asarray(x)
        if a.dtype.kind in "biuf" or (
            a.dtype.kind == "O" and not any(isinstance(e, (str, bytes)) for e in a.flat)
        ):
            return a.astype(float, copy=False)
    except (TypeError, ValueError):
        pass
    except OverflowError:
        raise InvariantViolation(f"{name}: entries must be finite") from None
    raise InvariantViolation(f"{name}: expected an array of numbers")


def as_vector(x, *, name: str = "vector") -> np.ndarray:
    """Coerce to a finite 1-D float64 array, validating shape and entries."""
    v = _float_array(x, name)
    if v.ndim != 1 or v.size == 0:
        raise InvariantViolation(f"{name}: expected a non-empty 1-D array, got shape {v.shape}")
    if v.size > DIM_CAP:
        raise InvariantViolation(f"{name}: dimension {v.size} exceeds cap {DIM_CAP}")
    if not np.isfinite(v).all():
        raise InvariantViolation(f"{name}: entries must be finite")
    return v


def as_matrix(m, *, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite square float64 matrix."""
    a = _float_array(m, name)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise InvariantViolation(f"{name}: expected a non-empty square matrix, got shape {a.shape}")
    if a.shape[0] > DIM_CAP:
        raise InvariantViolation(f"{name}: dimension {a.shape[0]} exceeds cap {DIM_CAP}")
    if not np.isfinite(a).all():
        raise InvariantViolation(f"{name}: entries must be finite")
    return a


def _l1(rows: np.ndarray) -> np.ndarray:
    return np.abs(rows).sum(axis=1)


def _l2(rows: np.ndarray) -> np.ndarray:
    # Each row's norm is bit for bit what np.linalg.norm computes for it as a
    # 1-D float64 vector (sqrt of its dot product with itself), except below
    # _L2_RESCALE_BELOW. np.vecdot takes that same dot product per row; the
    # shorter forms (rows * rows).sum(axis=1) and einsum round differently.
    out = np.sqrt(np.vecdot(rows, rows))
    # A row of zeros has the exact norm 0: when every row below the threshold
    # is one, the rescale is skipped (rescaled beside others, it stays 0).
    # count_nonzero is numpy's cheapest test of a small array.
    tiny = out < _L2_RESCALE_BELOW
    if np.count_nonzero(tiny) and np.count_nonzero(w := rows[tiny] * _L2_SCALE):
        out[tiny] = np.sqrt(np.vecdot(w, w)) / _L2_SCALE
    return out


def _linf(rows: np.ndarray) -> np.ndarray:
    return np.abs(rows).max(axis=1)


# One kernel per vector norm, the only row norms in the package: ``norm``,
# the iteration loop and the sampled condition check all call these. A kernel
# takes a 2-D float64 array as is and returns the norm of each row: ``norm``
# passes its converted argument as one row, the others pass blocks of rows
# they built themselves. A squared l2 norm past the float range reads inf
# (numpy warns unless the caller silences it).
VECTOR_NORMS = {NormKind.L1: _l1, NormKind.L2: _l2, NormKind.LINF: _linf}


def norm(v, kind: NormKind = NormKind.L2) -> float:
    """Vector norm of the requested kind. Zero exactly on the zero vector.

    An empty vector, one that is not an array of numbers, and one that holds
    an integer past the float range are InvariantViolations, as in
    ``as_vector``. Infinite and NaN floats are not refused.
    """
    kernel = VECTOR_NORMS[as_norm_kind(kind)]
    v = _float_array(v, "vector").ravel(order="K")
    if v.size == 0:
        raise InvariantViolation("vector: expected a non-empty array")
    return float(kernel(v[None, :])[0])


def _op_l1(M: np.ndarray) -> float:
    return float(np.abs(M).sum(axis=0).max())  # largest column sum


def _op_l2(M: np.ndarray) -> float:
    # numpy returns singular values in descending order; this is the value
    # np.linalg.norm(M, 2) takes the maximum of.
    return float(np.linalg.svd(M, compute_uv=False)[0])


def _op_linf(M: np.ndarray) -> float:
    return float(np.abs(M).sum(axis=1).max())  # largest row sum


# One kernel per operator norm, shared by ``operator_norm`` and the least-b
# search. A kernel takes a finite square float64 matrix as is: callers
# validate with ``as_matrix`` first, or pass matrices they built from one.
OPERATOR_NORMS = {NormKind.L1: _op_l1, NormKind.L2: _op_l2, NormKind.LINF: _op_linf}


def operator_norm(M, kind: NormKind = NormKind.L2) -> float:
    """Induced operator norm of a square matrix.

    l1 and l-infinity are the exact maximum absolute column and row sums. l2
    is the largest singular value, computed by LAPACK's SVD.
    """
    M = as_matrix(M)
    return OPERATOR_NORMS[as_norm_kind(kind)](M)
