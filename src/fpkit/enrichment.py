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

from .errors import ParameterOutOfRange, SearchBudgetExceeded
from .mappings import LinearCombinationWithIdentity, Mapping, evaluate_many
from .spaces import NormKind, as_matrix, is_number, norm, norms_rowwise, operator_norm

B_CAP = 1e6  # search ceiling for min_b_affine
B_TOL = 1e-8  # min_b_affine returns the least feasible b to within this

DEFAULT_SLACK = 1e-9


class ConditionKind(str, Enum):
    ENRICHED = "enriched"
    MODIFIED = "modified"


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
        if not self.box_radius > 0.0 or not math.isfinite(self.box_radius):
            raise ParameterOutOfRange("box_radius must be positive and finite")

    def draw(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (xs, ys), each of shape (count, dim); near pairs come first."""
        if dim < 1:
            raise ParameterOutOfRange("dim must be >= 1")
        rng = np.random.default_rng(self.seed)
        r = self.box_radius
        n_near = int(round(self.count * self.near_pair_fraction))
        n_far = self.count - n_near

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
        floor = 1e-14 * r
        while True:
            bad = np.linalg.norm(x_far - y_far, axis=1) < floor
            if not bad.any():
                break
            k = int(bad.sum())
            x_far[bad] = rng.uniform(-r, r, size=(k, dim))
            y_far[bad] = rng.uniform(-r, r, size=(k, dim))

        return np.vstack([x_near, x_far]), np.vstack([y_near, y_far])


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
    diffs = xs - ys
    lhs = norms_rowwise(b * diffs + evaluate_many(mapping, xs) - evaluate_many(mapping, ys), norm_kind)
    rhs = norms_rowwise(diffs, norm_kind)
    if kind is ConditionKind.ENRICHED:
        rhs = (b + 1.0) * rhs
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
    return float(_condition_ratios(mapping, float(b), ConditionKind(kind), xs, ys, NormKind(norm_kind))[0])


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
    """
    b = float(b)
    if b < 0.0 or not math.isfinite(b):
        raise ParameterOutOfRange(f"b must be finite and >= 0, got {b}")
    kind = ConditionKind(kind)
    sampler = sampler if sampler is not None else PairSampler()
    xs, ys = sampler.draw(mapping.dim)
    ratios = _condition_ratios(mapping, b, kind, xs, ys, NormKind(norm_kind))
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
    doubling bracket plus bisection suffices. The modified g is U-shaped; its
    minimizer is located first by ternary search so a narrow feasible
    interval cannot be skipped.
    """
    A = as_matrix(matrix, name="matrix")
    kind = ConditionKind(kind)
    norm_kind = NormKind(norm_kind)
    eye = np.eye(A.shape[0])

    def g(b: float) -> float:
        rhs = b + 1.0 if kind is ConditionKind.ENRICHED else 1.0
        return operator_norm(b * eye + A, norm_kind) - rhs

    if g(0.0) <= 0.0:
        return 0.0

    if kind is ConditionKind.ENRICHED:
        lo, hi = 0.0, 1.0
        for _ in range(64):
            if g(hi) <= 0.0:
                break
            if hi >= B_CAP:
                return None
            lo = hi  # last infeasible point
            hi = min(hi * 2.0, B_CAP)
        else:
            raise SearchBudgetExceeded("doubling bracket did not terminate")
    else:
        # Locate the convex minimum of g on [0, B_CAP], then bisect left of it.
        a_, c_ = 0.0, B_CAP
        for _ in range(400):
            if c_ - a_ <= 1e-10 * max(1.0, c_):
                break
            m1 = a_ + (c_ - a_) / 3.0
            m2 = c_ - (c_ - a_) / 3.0
            if g(m1) <= g(m2):
                c_ = m2
            else:
                a_ = m1
        else:
            raise SearchBudgetExceeded("ternary search did not terminate")
        hi = 0.5 * (a_ + c_)
        if g(hi) > 0.0:
            return None
        lo = 0.0

    for _ in range(400):
        if hi - lo <= B_TOL * 0.5:
            return hi
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    raise SearchBudgetExceeded("bisection did not terminate")
