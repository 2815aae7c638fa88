"""Enrichment-style conditions on self-maps, and the transforms that reduce
them to friendlier maps.

A map T on R^d is *b-enriched nonexpansive* when

    ||b(x - y) + T(x) - T(y)|| <= (b + 1) ||x - y||   for all x, y,

and *b-modified-enriched nonexpansive* when the right-hand side is just
||x - y||. The first condition says the scaled average S = (b*x + T(x))/(b+1)
is nonexpansive; the second makes the averaged map with lambda = 1/(b+1) a
Banach contraction with factor lambda, which is what the solvers exploit.

``verify_condition`` is a refutable sampled check: a violating pair proves
the condition fails, while a pass is evidence over the sampled pairs, not a
proof. ``min_b_affine`` is exact (up to bisection tolerance) for affine maps,
where the condition collapses to a convex norm inequality in b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterOutOfRange
from .mappings import LinearCombinationWithIdentity, Mapping, evaluate_many
from .spaces import (
    _L2_SCALE,
    OPERATOR_NORMS,
    VECTOR_NORMS,
    NormKind,
    as_matrix,
    as_norm_kind,
    is_number,
)

B_CAP = 1e6  # search ceiling for min_b_affine
B_TOL = 1e-8  # min_b_affine returns the least feasible b to within this
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section ratio, 0.618...

DEFAULT_SLACK = 1e-9

# Pair arrays are processed in row blocks of about this many entries (256 KiB
# of float64), so the temporaries of each block stay in cache and are reused
# instead of faulting in fresh pages. A budget rather than a row count keeps
# low-dimensional checks in one block.
_BLOCK_ENTRIES = 2**15


class ConditionKind(str, Enum):
    ENRICHED = "enriched"
    MODIFIED = "modified"


def _as_condition_kind(kind) -> ConditionKind:
    try:
        return ConditionKind(kind)
    except ValueError:
        raise ParameterOutOfRange(
            f"unknown condition kind {kind!r}, expected enriched or modified"
        ) from None


def _row_blocks(n: int, dim: int):
    """Slices covering rows 0..n in blocks of about _BLOCK_ENTRIES entries."""
    step = max(1, _BLOCK_ENTRIES // dim)
    return [slice(i, i + step) for i in range(0, n, step)]


def averaged(base: Mapping, lam: float) -> LinearCombinationWithIdentity:
    """The averaged map x -> (1-lam)*x + lam*base(x), lam in (0, 1].

    Shares its fixed-point set with ``base`` for every admissible lam.
    """
    lam = float(lam)
    if not (0.0 < lam <= 1.0) or not math.isfinite(lam):
        raise ParameterOutOfRange(f"lambda must lie in (0, 1], got {lam}")
    return LinearCombinationWithIdentity(1.0 - lam, lam, base)


def enriched_reduction(base: Mapping, b: float) -> LinearCombinationWithIdentity:
    """The map S(x) = (b*x + base(x)) / (b+1), i.e. averaged with lam = 1/(b+1).

    If ``base`` is b-enriched nonexpansive, S is plain nonexpansive, and S has
    exactly the fixed points of ``base``.
    """
    b = float(b)
    if b < 0.0 or not math.isfinite(b):
        raise ParameterOutOfRange(f"b must be finite and >= 0, got {b}")
    return averaged(base, 1.0 / (b + 1.0))


def modified_shift(base: Mapping, b: float) -> LinearCombinationWithIdentity:
    """The unnormalized shift S(x) = b*x + base(x).

    Note the fixed points move: S(x*) = x* means base(x*) = (1 - b) x*, which
    is the original fixed-point equation only when b = 0 or x* = 0.
    """
    b = float(b)
    if b < 0.0 or not math.isfinite(b):
        raise ParameterOutOfRange(f"b must be finite and >= 0, got {b}")
    return LinearCombinationWithIdentity(b, 1.0, base)


def _fill_uniform(rng: np.random.Generator, out: np.ndarray, r: float) -> None:
    """Fill ``out`` in place with the bits of ``rng.uniform(-r, r, out.shape)``.

    numpy computes uniform(low, high) as low + (high - low) * U from the same
    doubles U that ``rng.random`` draws.
    """
    rng.random(out=out)
    out *= r - (-r)
    out += -r


@dataclass
class PairSampler:
    """Deterministic sampler of vector pairs for condition checks.

    Draws ``count`` pairs inside the box [-box_radius, box_radius]^d. A
    ``near_pair_fraction`` share are near pairs with separation in
    [1e-4, 1e-3] * box_radius (log-uniform), which stresses the ratio at
    small distances while staying above the scale where subtraction rounding
    would pollute the quotient. The remainder are independent uniform draws;
    any pair closer than 1e-14 * box_radius is rejected and redrawn, so x = y
    never occurs. The stream is a pure function of ``seed``.
    """

    seed: int = 42
    count: int = 10_000
    box_radius: float = 100.0
    near_pair_fraction: float = 0.2

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ParameterOutOfRange(f"seed must be a non-negative integer, got {self.seed!r}")
        if isinstance(self.count, bool) or not isinstance(self.count, int) or self.count < 1:
            raise ParameterOutOfRange(f"count must be an integer >= 1, got {self.count!r}")
        for name in ("box_radius", "near_pair_fraction"):
            if not is_number(getattr(self, name)):
                raise ParameterOutOfRange(f"{name} must be a number, got {getattr(self, name)!r}")
        if not 0.0 <= self.near_pair_fraction <= 1.0:
            raise ParameterOutOfRange("near_pair_fraction must lie in [0, 1]")
        # Uniform draws scale by the box's width 2r, which must be finite, and
        # near pairs by separations from 1e-4 r, which must not round to 0.
        if not 1e-4 * self.box_radius > 0.0 or not math.isfinite(2.0 * self.box_radius):
            raise ParameterOutOfRange(
                f"box_radius must keep 1e-4*box_radius > 0 and 2*box_radius finite, "
                f"got {self.box_radius!r}"
            )

    def draw(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (xs, ys), each of shape (count, dim); near pairs come first.

        Both arrays are allocated once and filled in place, with the stream
        and the bits of plain ``rng.uniform`` and ``rng.standard_normal``
        draws of each block.
        """
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
            raise ParameterOutOfRange(f"dim must be an integer >= 1, got {dim!r}")
        rng = np.random.default_rng(self.seed)
        r = self.box_radius
        n_near = int(round(self.count * self.near_pair_fraction))
        xs = np.empty((self.count, dim))
        ys = np.empty((self.count, dim))

        x_near, y_near = xs[:n_near], ys[:n_near]
        _fill_uniform(rng, x_near, r)
        rng.standard_normal(out=y_near)  # directions, scaled below
        lens = np.linalg.norm(y_near, axis=1)
        while np.any(lens == 0.0):
            bad = lens == 0.0
            y_near[bad] = rng.standard_normal(size=(int(bad.sum()), dim))
            lens = np.linalg.norm(y_near, axis=1)
        mags = np.exp(rng.uniform(math.log(1e-4 * r), math.log(1e-3 * r), size=n_near))
        y_near *= (mags / lens)[:, None]
        y_near += x_near

        x_far, y_far = xs[n_near:], ys[n_near:]
        _fill_uniform(rng, x_far, r)
        _fill_uniform(rng, y_far, r)
        floor = 1e-14 * r
        l2 = VECTOR_NORMS[NormKind.L2]
        bad = np.empty(len(x_far), dtype=bool)
        while True:
            with np.errstate(over="ignore"):  # a distance past the float range is inf
                for blk in _row_blocks(len(x_far), dim):
                    bad[blk] = l2(x_far[blk] - y_far[blk]) < floor
            if not bad.any():
                break
            k = int(bad.sum())
            x_far[bad] = rng.uniform(-r, r, size=(k, dim))
            y_far[bad] = rng.uniform(-r, r, size=(k, dim))

        return xs, ys


@dataclass
class EnrichmentReport:
    """Outcome of a sampled condition check.

    ``passed`` is exactly ``max_ratio <= 1 + slack``. The witness is the
    sampled pair attaining ``max_ratio`` (the earliest one on ties) and
    reproduces it on re-evaluation.
    """

    kind: ConditionKind
    b: float
    pairs_tested: int
    max_ratio: float
    witness_x: np.ndarray
    witness_y: np.ndarray
    passed: bool
    slack: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "b": self.b,
            "pairs_tested": self.pairs_tested,
            "max_ratio": self.max_ratio,
            "witness": {"x": self.witness_x.tolist(), "y": self.witness_y.tolist()},
            "passed": self.passed,
            "slack": self.slack,
        }


def _condition_ratios(
    mapping: Mapping,
    b: float,
    kind: ConditionKind,
    xs: np.ndarray,
    ys: np.ndarray,
    norm_kind: NormKind,
) -> np.ndarray:
    row_norms = VECTOR_NORMS[norm_kind]
    diffs = xs - ys
    factor = b + 1.0 if kind is ConditionKind.ENRICHED else 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        lhs = row_norms(b * diffs + evaluate_many(mapping, xs) - evaluate_many(mapping, ys))
        rhs = factor * row_norms(diffs)
        # On large boxes a side can overflow although every operand is
        # finite: an l2 square past the float range from about 1.3e154 on,
        # a sum or a product near the radius limit. Those rows are rescored
        # with every operand scaled by the same power of two, which is exact,
        # so their ratio is unchanged and the other rows keep their bits.
        huge = ~(np.isfinite(lhs) & np.isfinite(rhs))
        if huge.any():
            scaled = diffs[huge] / _L2_SCALE
            lhs[huge] = row_norms(
                b * scaled
                + evaluate_many(mapping, xs[huge]) / _L2_SCALE
                - evaluate_many(mapping, ys[huge]) / _L2_SCALE
            )
            rhs[huge] = factor * row_norms(scaled)
        # A ratio past the float range reads inf, which refutes the condition.
        return lhs / rhs


def condition_ratio(
    mapping: Mapping,
    b: float,
    kind: ConditionKind,
    x,
    y,
    norm_kind: NormKind = NormKind.L2,
) -> float:
    """||b(x-y) + Tx - Ty|| divided by the condition's right-hand side."""
    xs = np.asarray(x, dtype=float)[None, :]
    ys = np.asarray(y, dtype=float)[None, :]
    kind, norm_kind = _as_condition_kind(kind), as_norm_kind(norm_kind)
    return float(_condition_ratios(mapping, float(b), kind, xs, ys, norm_kind)[0])


def verify_condition(
    mapping: Mapping,
    b: float,
    kind: ConditionKind,
    sampler: PairSampler | None = None,
    *,
    slack: float = DEFAULT_SLACK,
    norm_kind: NormKind = NormKind.L2,
) -> EnrichmentReport:
    """Sampled, refutable check of the (modified-)enrichment condition.

    A report with ``passed=False`` carries a concrete violating pair and is a
    proof of failure. ``passed=True`` only says no sampled pair violated the
    inequality beyond ``slack``.

    Pairs are scored in row blocks of max(1, 2**15 // d) rows, so besides
    the two (count, d) pair arrays the check holds only one block's
    temporaries and the ratio vector. Every row's ratio is the same as in
    one whole-batch pass.
    """
    b = float(b)
    if b < 0.0 or not math.isfinite(b):
        raise ParameterOutOfRange(f"b must be finite and >= 0, got {b}")
    kind, norm_kind = _as_condition_kind(kind), as_norm_kind(norm_kind)
    sampler = sampler if sampler is not None else PairSampler()
    xs, ys = sampler.draw(mapping.dim)
    ratios = np.empty(sampler.count)
    for blk in _row_blocks(sampler.count, mapping.dim):
        ratios[blk] = _condition_ratios(mapping, b, kind, xs[blk], ys[blk], norm_kind)
    idx = int(np.argmax(ratios))  # first index on ties
    max_ratio = float(ratios[idx])
    return EnrichmentReport(
        kind=kind,
        b=b,
        pairs_tested=sampler.count,
        max_ratio=max_ratio,
        witness_x=xs[idx].copy(),
        witness_y=ys[idx].copy(),
        passed=max_ratio <= 1.0 + slack,
        slack=slack,
    )


def _golden_minimizer(g, c: float) -> float:
    """Approximate minimizer of the convex ``g`` on [0, c].

    Golden-section search: each narrowing keeps one interior point and
    evaluates g once at a new one, until the bracket has shrunk to
    1e-10 * max(1, c); its midpoint is returned.
    """
    a = 0.0
    x1, x2 = c - _INVPHI * c, _INVPHI * c
    g1, g2 = g(x1), g(x2)
    # Each pass shrinks the bracket by _INVPHI whatever g returns, so from
    # c <= B_CAP = 1e6 down to 1e-10 it takes at most 77 passes.
    while c - a > 1e-10 * max(1.0, c):
        if g1 <= g2:  # the minimizer lies in [a, x2]
            c, x2, g2 = x2, x1, g1
            x1 = c - _INVPHI * (c - a)
            g1 = g(x1)
        else:  # the minimizer lies in [x1, c]
            a, x1, g1 = x1, x2, g2
            x2 = a + _INVPHI * (c - a)
            g2 = g(x2)
    return 0.5 * (a + c)


def min_b_affine(
    matrix,
    kind: ConditionKind,
    norm_kind: NormKind = NormKind.L2,
) -> float | None:
    """Least b >= 0 for which the affine map x -> A x + c satisfies the condition.

    For affine maps the condition is exactly ``||b I + A|| <= b + 1``
    (enriched) or ``||b I + A|| <= 1`` (modified); the offset c cancels and is
    not a parameter. g(b) = ||b I + A|| - rhs(b) is convex in b, so the
    feasible set is an interval. Returns its left endpoint to within ``B_TOL``,
    or None when no b <= B_CAP is feasible.

    The enriched g is convex and bounded above, hence non-increasing, so a
    doubling bracket plus bisection suffices. The modified g is U-shaped and
    its feasible interval may be narrow, so a golden-section search locates
    its minimizer first. Since ||b I + A|| >= b - ||A||, every feasible b is
    at most ||A|| + 1 = g(0) + 2, which bounds that search. If g is positive
    at the minimizer nothing is feasible; otherwise bisection between 0 and
    the minimizer gives the left endpoint.
    """
    A = as_matrix(matrix, name="matrix")
    kind = _as_condition_kind(kind)
    op_norm = OPERATOR_NORMS[as_norm_kind(norm_kind)]
    eye = np.eye(A.shape[0])

    def g(b: float) -> float:
        rhs = b + 1.0 if kind is ConditionKind.ENRICHED else 1.0
        return op_norm(b * eye + A) - rhs

    g0 = g(0.0)
    if g0 <= 0.0:
        return 0.0

    if kind is ConditionKind.ENRICHED:
        lo, hi = 0.0, 1.0
        # hi doubles from 1 and stops at B_CAP = 1e6: at most 21 passes. A NaN
        # g counts as infeasible.
        while not (g(hi) <= 0.0):
            if hi >= B_CAP:
                return None
            lo = hi  # last infeasible point
            hi = min(hi * 2.0, B_CAP)
    else:
        hi = _golden_minimizer(g, min(B_CAP, g0 + 2.0))
        if g(hi) > 0.0:
            return None
        lo = 0.0

    # Each pass halves hi - lo <= B_CAP = 1e6 until it is at most B_TOL / 2:
    # at most 48 passes.
    while hi - lo > B_TOL * 0.5:
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi
