"""Deterministic fixtures shared between the unit and acceptance suites.

Everything here is seeded, so expected values quoted in the tests are stable
across runs and machines (same BLAS-free code paths throughout).
"""

from __future__ import annotations

import csv
from fractions import Fraction

import math

import numpy as np

import fpkit as fp
from fpkit import enrichment
from fpkit.enrichment import DEFAULT_SLACK
from fpkit.errors import DimensionMismatch, NonFiniteResult, ParameterOutOfRange
from fpkit.iteration import DIVERGENCE_GRACE, DIVERGENCE_WINDOW
from fpkit.spaces import VECTOR_NORMS, as_vector

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


def reference_norm(v, kind: fp.NormKind = fp.NormKind.L2) -> float:
    """Vector norms through numpy's generic reductions, the reference for ``fp.norm``."""
    v = np.asarray(v, dtype=float)
    kind = fp.NormKind(kind)
    if kind is fp.NormKind.L1:
        return float(np.sum(np.abs(v)))
    if kind is fp.NormKind.L2:
        return float(np.linalg.norm(v))
    return float(np.max(np.abs(v)))


def reference_picard(
    mapping: fp.Mapping,
    x0,
    stop: fp.StopRule | None = None,
    norm_kind: fp.NormKind = fp.NormKind.L2,
    *,
    store_iterates: bool = False,
) -> fp.IterationTrace:
    """The straightforward Picard loop, the reference for ``fp.picard``.

    Every step goes through ``fp.evaluate`` (validation, errstate, finite
    check) and takes the iterate's norm twice through ``reference_norm``.
    ``fp.picard`` validates once, folds the mapping with
    ``fpkit.mappings.collapse``, applies the folded mapping directly and takes
    one norm of each iterate; its traces must equal this loop's over
    ``collapse(mapping)`` bit for bit. Slow and only for comparisons.
    """
    stop = stop if stop is not None else fp.StopRule()
    norm_kind = fp.NormKind(norm_kind)
    x = as_vector(x0, name="x0")
    if x.size != mapping.dim:
        raise DimensionMismatch(
            f"x0: dimension {x.size} does not match mapping dimension {mapping.dim}"
        )

    residuals: list[float] = []
    iterates: list[np.ndarray] | None = [x.copy()] if store_iterates else None
    status = fp.Status.MAX_ITER_REACHED
    growth_streak = 0

    for _ in range(stop.max_iter):
        try:
            x_next = fp.evaluate(mapping, x)
        except NonFiniteResult:
            status = fp.Status.DIVERGED
            break
        r = reference_norm(x_next - x, norm_kind)
        if residuals:
            growth_streak = growth_streak + 1 if r > residuals[-1] else 0
        residuals.append(r)
        if iterates is not None:
            iterates.append(x_next.copy())
        x = x_next
        if r <= stop.eps_abs + stop.eps_rel * reference_norm(x_next, norm_kind):
            status = fp.Status.CONVERGED
            break
        if reference_norm(x_next, norm_kind) > stop.norm_cap:
            status = fp.Status.DIVERGED
            break
        if len(residuals) > DIVERGENCE_GRACE and growth_streak >= DIVERGENCE_WINDOW:
            status = fp.Status.DIVERGED
            break

    return fp.IterationTrace(
        residuals=residuals,
        status=status,
        final=x,
        norm_kind=norm_kind,
        iterates=iterates,
    )


def reference_write_trace_csv(trace: fp.IterationTrace, path) -> None:
    """The ``csv.writer`` form of ``fp.write_trace_csv``, one ``writerow`` per
    step: the reference for the bytes of ``trace.csv``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["iter", "residual", "ratio"])
        for i, (res, ratio) in enumerate(zip(trace.residuals, trace.ratios), start=1):
            writer.writerow([i, repr(res), "" if ratio is None else repr(ratio)])


def reference_draw(
    sampler: fp.PairSampler, dim: int, rounds: list | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """The straightforward pair draw, the reference for ``fp.PairSampler.draw``.

    Near and far pairs are drawn into arrays of their own with
    ``rng.uniform`` and stacked at the end. ``draw`` streams the far rows in
    blocks; its output must equal this one bit for bit. Each round of
    redraws appends the far-row indices it redraws to ``rounds``, if given.
    """
    rng = np.random.default_rng(sampler.seed)
    r = sampler.box_radius
    n_near = int(round(sampler.count * sampler.near_pair_fraction))
    n_far = sampler.count - n_near

    x_near = rng.uniform(-r, r, size=(n_near, dim))
    dirs = rng.standard_normal(size=(n_near, dim))
    lens = np.linalg.norm(dirs, axis=1)
    while np.any(lens == 0.0):
        bad = lens == 0.0
        dirs[bad] = rng.standard_normal(size=(int(bad.sum()), dim))
        lens = np.linalg.norm(dirs, axis=1)
    mags = np.exp(rng.uniform(math.log(1e-4 * r), math.log(1e-3 * r), size=n_near))
    y_near = x_near + dirs * (mags / lens)[:, None]

    x_far = rng.uniform(-r, r, size=(n_far, dim))
    y_far = rng.uniform(-r, r, size=(n_far, dim))
    floor = enrichment.MIN_SEPARATION * r
    while True:
        bad = np.linalg.norm(x_far - y_far, axis=1) < floor
        if not bad.any():
            break
        if rounds is not None:
            rounds.append(np.flatnonzero(bad))
        k = int(bad.sum())
        x_far[bad] = rng.uniform(-r, r, size=(k, dim))
        y_far[bad] = rng.uniform(-r, r, size=(k, dim))

    return np.vstack([x_near, x_far]), np.vstack([y_near, y_far])


def reference_verify(
    mapping: fp.Mapping,
    b: float,
    kind: fp.ConditionKind,
    sampler: fp.PairSampler,
    *,
    slack: float = DEFAULT_SLACK,
    norm_kind: fp.NormKind = fp.NormKind.L2,
) -> fp.EnrichmentReport:
    """The whole-batch sampled check, the reference for ``fp.verify_condition``.

    Scores all pairs of ``reference_draw`` in one pass. ``verify_condition``
    scores them in row blocks; its reports must equal this one's bit for bit.
    """
    kind = fp.ConditionKind(kind)
    xs, ys = reference_draw(sampler, mapping.dim)
    row_norms = VECTOR_NORMS[fp.NormKind(norm_kind)]
    diffs = xs - ys
    lhs = row_norms(b * diffs + fp.evaluate_many(mapping, xs) - fp.evaluate_many(mapping, ys))
    rhs = row_norms(diffs)
    if kind is fp.ConditionKind.ENRICHED:
        rhs = (b + 1.0) * rhs
    ratios = lhs / rhs
    idx = int(np.argmax(ratios))
    max_ratio = float(ratios[idx])
    return fp.EnrichmentReport(
        kind=kind,
        b=b,
        pairs_tested=sampler.count,
        max_ratio=max_ratio,
        witness_x=xs[idx].copy(),
        witness_y=ys[idx].copy(),
        slack=slack,
    )


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
