"""Deterministic fixtures shared between the unit and acceptance suites.

Everything here is seeded, so expected values quoted in the tests are stable
across runs and machines (same BLAS-free code paths throughout).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

import fpkit as fp
from fpkit.errors import ParameterOutOfRange

FAMILY_SEED = 2000
B_GRID = (0.0, 0.5, 1.0, 3.0)


def family50(seed: int = FAMILY_SEED) -> list[fp.Affine]:
    """50 affine maps, dims cycling 1..4, top singular values ramping 0.2 to 3.0."""
    maps: list[fp.Affine] = []
    for i in range(50):
        dim = i % 4 + 1
        top = 0.2 + (3.0 - 0.2) * i / 49
        svals = np.linspace(top, max(0.5 * top, 0.05), dim)
        maps.extend(fp.generate_affine_family(seed + i, dim, svals, 1))
    return maps


def apriori_iterations_exact(lam: Fraction, d1: Fraction, eps: Fraction) -> int:
    """Brute-force evaluation of the a-priori count in exact rational arithmetic.

    Slow and only for spot checks; the float ``fp.apriori_iterations`` is the
    production path it is compared against.
    """
    if not (0 < lam < 1):
        raise ParameterOutOfRange("lambda must lie in (0, 1)")
    if d1 == 0:
        return 0
    n = 0
    value = d1 / (1 - lam)
    while value > eps:
        value *= lam
        n += 1
    return n


def separated_pairs(
    rng_seed: int,
    count: int,
    dim: int,
    radius: float = 100.0,
    min_dist: float = 10.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform pairs on the box, rejected until every pair is min_dist apart.

    Keeping pairs well separated means the reduction identity can be checked
    at relative precision without cancellation noise from nearby points.
    """
    rng = np.random.default_rng(rng_seed)
    xs = rng.uniform(-radius, radius, (count, dim))
    ys = rng.uniform(-radius, radius, (count, dim))
    while True:
        bad = np.linalg.norm(xs - ys, axis=1) < min_dist
        if not bad.any():
            return xs, ys
        n_bad = int(bad.sum())
        xs[bad] = rng.uniform(-radius, radius, (n_bad, dim))
        ys[bad] = rng.uniform(-radius, radius, (n_bad, dim))


def reduction_identity_gap(
    mapping: fp.Mapping,
    b: float,
    xs: np.ndarray,
    ys: np.ndarray,
    zero_floor: float = 1e-10,
) -> float:
    """Worst relative gap between (b+1)*||Sx-Sy|| and ||b(x-y)+Tx-Ty|| over the pairs.

    Pairs where both sides sit below ``zero_floor`` count as exact: there the
    true value of the identity is zero (b*I + A annihilates the difference)
    and both evaluations are pure rounding residue, so a relative comparison
    would only compare noise against noise.
    """
    reduced = fp.enriched_reduction(mapping, b)
    lhs = (b + 1.0) * np.linalg.norm(
        fp.evaluate_many(reduced, xs) - fp.evaluate_many(reduced, ys), axis=1
    )
    rhs = np.linalg.norm(
        b * (xs - ys) + fp.evaluate_many(mapping, xs) - fp.evaluate_many(mapping, ys), axis=1
    )
    scale = np.maximum(lhs, rhs)
    live = scale > zero_floor
    if not live.any():
        return 0.0
    return float(np.max(np.abs(lhs[live] - rhs[live]) / scale[live]))
