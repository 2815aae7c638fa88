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
proof. It scores the pairs of a ``PairSampler`` where they are drawn: the
sampler's one PCG64 stream is read in one forward pass of row blocks, each
block is filled into buffers the blocks share and scored there, and the
witness is copied out of the block that holds it as that block is scored, so
no (count, d) pair array is made and no pair is drawn twice; the few far
pairs that fall too close are redrawn at the end and scored again as one
last block. ``PairSampler.draw`` copies the same blocks into two whole
arrays.
``min_b_affine`` is exact for affine maps, where the condition collapses to
a convex norm inequality in b: it solves for the least b in closed form (row
maxima in l1 and l-infinity, eigenvalues in l2). The operator-norm kernel
accepts every b it returns to within a rounding allowance of
8 d eps (b + ||A|| + 1); where it refuses the closed form, bisection is the
one repair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvariantViolation, ParameterOutOfRange
from .mappings import LinearCombinationWithIdentity, Mapping, _as_point, _compile, _finite
from .spaces import (
    _L2_SCALE,
    DIM_CAP,
    OPERATOR_NORMS,
    VECTOR_NORMS,
    NormKind,
    as_float,
    as_matrix,
    as_norm_kind,
    is_integer,
    is_number,
)

B_CAP = 1e6  # min_b_affine answers None when no b up to this is feasible
B_TOL = 1e-8  # min_b_affine returns the least feasible b to within this

DEFAULT_SLACK = 1e-9

# min_b_affine accepts a b where ||bI + A|| - rhs(b) is at most this times
# d (b + ||A|| + 1): an allowance for the rounding of bI + A and the kernels.
_ROUNDING = 8.0 * np.finfo(float).eps

# min_b_affine's l2 enriched closed form reads as 0, as rounding noise, an
# eigenvalue of 2I - (A + A^T) within this times max(1, its largest) of 0,
# and an entry of (A^T A - I) Z within this times max(1, its largest entry)
# of 0, Z the eigenvectors of those eigenvalues.
_SINGULAR = 1e-12

# Far pairs closer than this times box_radius are redrawn, so x = y never
# occurs in a sample.
MIN_SEPARATION = 1e-14

# The most pairs one sampler draws. A check draws its near pairs whole, as
# two float64 arrays of count * near_pair_fraction rows: at the default
# fraction 0.2 and d = DIM_CAP that is 0.2 * count * 64 * 16 bytes, about
# 205 MB at this cap (five times that at fraction 1).
PAIR_COUNT_CAP = 10**6

# Pairs are drawn and scored in row blocks of about this many entries (256 KiB
# of float64), so each block's buffers and temporaries stay in cache and are
# reused instead of faulting in fresh pages. A budget rather than a row count
# keeps low-dimensional checks in one block.
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


def _as_b(b) -> float:
    """``b`` as a float; ParameterOutOfRange unless it is a finite number >= 0."""
    if not (is_number(b) and 0.0 <= as_float(b) < math.inf):
        raise ParameterOutOfRange(f"b must be finite and >= 0, got {b!r}")
    return float(b)


def _as_slack(slack) -> float:
    """``slack`` as a float; ParameterOutOfRange unless it is a finite number >= 0."""
    if not (is_number(slack) and 0.0 <= as_float(slack) < math.inf):
        raise ParameterOutOfRange(f"slack: must be finite and >= 0, got {slack!r}")
    return float(slack)


def averaged(base: Mapping, lam: float) -> LinearCombinationWithIdentity:
    """The averaged map x -> (1-lam)*x + lam*base(x), lam in (0, 1].

    Shares its fixed-point set with ``base`` for every admissible lam.
    """
    if not (is_number(lam) and 0.0 < lam <= 1.0):
        raise ParameterOutOfRange(f"lambda must lie in (0, 1], got {lam!r}")
    lam = float(lam)
    return LinearCombinationWithIdentity(1.0 - lam, lam, base)


def enriched_reduction(base: Mapping, b: float) -> LinearCombinationWithIdentity:
    """The map S(x) = (b*x + base(x)) / (b+1), i.e. averaged with lam = 1/(b+1).

    If ``base`` is b-enriched nonexpansive, S is plain nonexpansive, and S has
    exactly the fixed points of ``base``.
    """
    return averaged(base, 1.0 / (_as_b(b) + 1.0))


def modified_shift(base: Mapping, b: float) -> LinearCombinationWithIdentity:
    """The unnormalized shift S(x) = b*x + base(x).

    Note the fixed points move: S(x*) = x* means base(x*) = (1 - b) x*, which
    is the original fixed-point equation only when b = 0 or x* = 0.
    """
    return LinearCombinationWithIdentity(_as_b(b), 1.0, base)


def _fill_uniform(rng: np.random.Generator, out: np.ndarray, r: float) -> None:
    """Fill ``out`` in place with the bits of ``rng.uniform(-r, r, out.shape)``.

    numpy computes uniform(low, high) as low + (high - low) * U from the same
    doubles U that ``rng.random`` draws, one uint64 of the stream each.
    """
    rng.random(out=out)
    out *= r - (-r)
    out += -r


@dataclass
class PairSampler:
    """Deterministic sampler of vector pairs for condition checks.

    Draws ``count`` pairs, at most PAIR_COUNT_CAP, inside the box
    [-box_radius, box_radius]^d. A ``near_pair_fraction`` share are near
    pairs with separation in [1e-4, 1e-3] * box_radius (log-uniform), which
    stresses the ratio at small distances while staying above the scale
    where subtraction rounding would pollute the quotient. The remainder are
    independent uniform draws; any pair closer than MIN_SEPARATION *
    box_radius is rejected and redrawn, so x = y never occurs. The stream is
    a pure function of ``seed``.
    """

    seed: int = 42
    count: int = 10_000
    box_radius: float = 100.0
    near_pair_fraction: float = 0.2

    def __post_init__(self):
        # numpy integers are taken and kept as Python ints, which a config
        # document can encode.
        if not is_integer(self.seed) or self.seed < 0:
            raise ParameterOutOfRange(f"seed must be a non-negative integer, got {self.seed!r}")
        if not is_integer(self.count) or not 1 <= self.count <= PAIR_COUNT_CAP:
            raise ParameterOutOfRange(
                f"count must be an integer in [1, {PAIR_COUNT_CAP}], got {self.count!r}"
            )
        self.seed, self.count = int(self.seed), int(self.count)
        for name in ("box_radius", "near_pair_fraction"):
            if not is_number(getattr(self, name)):
                raise ParameterOutOfRange(f"{name} must be a number, got {getattr(self, name)!r}")
        if not 0.0 <= self.near_pair_fraction <= 1.0:
            raise ParameterOutOfRange("near_pair_fraction must lie in [0, 1]")
        # Uniform draws scale by the box's width 2r, which must be finite. Far
        # pairs closer than MIN_SEPARATION * r are redrawn, so that floor must
        # not round to 0, or x = y pairs would be scored; it is below 1e-4 r,
        # the least near-pair separation, which so stays above 0 too.
        r = as_float(self.box_radius)
        if not MIN_SEPARATION * r > 0.0 or not math.isfinite(2.0 * r):
            raise ParameterOutOfRange(
                f"box_radius must keep {MIN_SEPARATION}*box_radius > 0 and 2*box_radius finite, "
                f"got {self.box_radius!r}"
            )

    def draw(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (xs, ys), each of shape (count, dim), with ``dim`` at most
        DIM_CAP; near pairs come first.

        The materialized form of the blocks that ``verify_condition`` scores
        as it goes: each block is copied into its rows, the redrawn pairs
        last, so the bits are those of plain ``rng.uniform`` and
        ``rng.standard_normal`` draws of the whole sample.
        """
        if not is_integer(dim) or not 1 <= dim <= DIM_CAP:
            raise ParameterOutOfRange(f"dim must be an integer in [1, {DIM_CAP}], got {dim!r}")
        xs = np.empty((self.count, dim))
        ys = np.empty((self.count, dim))
        for rows, x, y, *_ in _pair_blocks(self, int(dim)):
            xs[rows] = x
            ys[rows] = y
        return xs, ys


def _pair_blocks(sampler: PairSampler, dim: int):
    """Yield the pairs of ``sampler`` at ``dim`` as row blocks
    ``(rows, xs, ys, diffs, dists, redrawn)``, in draw order.

    One PCG64 stream makes the pairs, in this order: the near pairs' x's,
    their normal directions and their log-uniform magnitudes; the far rows'
    x's, then their y's; then the redraws. A direction takes a variable
    number of draws, so the near pairs are drawn whole. A far row takes a
    fixed number: with P the stream position after the near pairs, far row i's
    x sits at P + i*d and its y at P + (n_far + i)*d. So far rows are filled
    block by block into buffers the blocks share, and
    ``bit_generator.advance`` moves between the x's and the y's.

    ``rows`` is the slice of the sample that the block holds: the near rows
    copied from their arrays, the far rows drawn in place. ``diffs`` is
    ``xs - ys`` and ``dists`` its l2 row norms. The next block reuses all
    these arrays, and the caller may overwrite ``diffs`` and ``dists``.
    ``redrawn`` indexes the block's far pairs closer than MIN_SEPARATION *
    box_radius; they are yielded as drawn. Once every far row is drawn, those
    pairs are redrawn from the stream's end, in rounds as in one whole draw,
    and yielded as one last block whose ``rows`` is the index array of their
    rows and whose ``redrawn`` is empty, so their final values come last.
    """
    rng = np.random.default_rng(sampler.seed)
    r = sampler.box_radius
    n = sampler.count
    n_near = int(round(n * sampler.near_pair_fraction))
    x_near = rng.uniform(-r, r, size=(n_near, dim))
    y_near = rng.standard_normal(size=(n_near, dim))  # directions, scaled below
    lens = np.linalg.norm(y_near, axis=1)
    while np.any(lens == 0.0):
        bad = lens == 0.0
        y_near[bad] = rng.standard_normal(size=(int(bad.sum()), dim))
        lens = np.linalg.norm(y_near, axis=1)
    mags = np.exp(rng.uniform(math.log(1e-4 * r), math.log(1e-3 * r), size=n_near))
    y_near *= (mags / lens)[:, None]
    y_near += x_near

    # A far y sits skip = n_far*d doubles past its x. Each block draws its far
    # x's, advances to their y's, then moves back by skip to the next block's
    # x's: PCG64's period is 2**128, so an advance by 2**128 - skip does that
    # (dim must be a Python int, as 2**128 - skip does not fit an int64).
    skip = (n - n_near) * dim
    step = max(1, _BLOCK_ENTRIES // dim)
    xbuf, ybuf, dbuf = np.empty((3, min(step, n), dim))
    floor = MIN_SEPARATION * r
    close = []  # (rows, xs, ys) of the too-close far pairs, in order
    for start in range(0, n, step):
        rows = slice(start, min(start + step, n))
        m = rows.stop - start
        xs, ys, diffs = xbuf[:m], ybuf[:m], dbuf[:m]
        k = min(m, max(0, n_near - start))  # near rows in the block
        xs[:k] = x_near[start : start + k]
        ys[:k] = y_near[start : start + k]
        if k < m:
            _fill_uniform(rng, xs[k:], r)
            rng.bit_generator.advance(skip - xs[k:].size)
            _fill_uniform(rng, ys[k:], r)
            rng.bit_generator.advance(2**128 - skip)
        dists = _distances(np.subtract(xs, ys, out=diffs))
        redrawn = k + np.flatnonzero(dists[k:] < floor)
        if redrawn.size:
            close.append((start + redrawn, xs[redrawn], ys[redrawn]))
        yield rows, xs, ys, diffs, dists, redrawn
    if not close:
        return

    rows, xs, ys = (np.concatenate(parts) for parts in zip(*close))
    rng.bit_generator.advance(skip)  # to the stream's end, past the last far y
    while True:
        bad = _distances(xs - ys) < floor
        if not bad.any():
            break
        new = np.empty((2, int(bad.sum()), dim))
        _fill_uniform(rng, new, r)
        xs[bad], ys[bad] = new
    yield rows, *_with_distances(xs, ys), rows[:0]


def _distances(diffs: np.ndarray) -> np.ndarray:
    """l2 row norms of ``diffs``; one past the float range reads inf."""
    with np.errstate(over="ignore"):
        return VECTOR_NORMS[NormKind.L2](diffs)


def _with_distances(xs: np.ndarray, ys: np.ndarray):
    """``(xs, ys, diffs, dists)`` for ``_score``: diffs = xs - ys, dists its l2 row norms."""
    diffs = xs - ys
    return xs, ys, diffs, _distances(diffs)


@dataclass
class EnrichmentReport:
    """Outcome of a sampled condition check.

    ``passed`` is a read-only property, exactly ``max_ratio <= 1 + slack``.
    The witness is the sampled pair attaining ``max_ratio`` (the earliest one
    on ties) and reproduces it on re-evaluation.
    """

    kind: ConditionKind
    b: float
    pairs_tested: int
    max_ratio: float
    witness_x: np.ndarray
    witness_y: np.ndarray
    slack: float

    @property
    def passed(self) -> bool:
        return self.max_ratio <= 1.0 + self.slack

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


def _score(apply, b: float, factor: float, norm_kind: NormKind, xs, ys, diffs, dists):
    """The condition ratio of each row pair of ``xs`` and ``ys``, as a new array.

    ``apply`` maps a batch of rows. A row whose image is not finite has a
    left-hand side that is not finite either, so it is rescored below, where
    ``_finite`` raises NonFiniteResult for it. ``factor`` is the right-hand
    side's, b + 1 or 1. ``diffs`` holds ``xs - ys`` and is overwritten;
    ``dists``, its l2 row norms, is the right-hand side's norm when
    ``norm_kind`` is l2, and is then scaled in place. The left-hand side is
    built in ``diffs`` as (b*(x - y) + Tx) - Ty, the order of one whole-batch
    expression, so every ratio keeps its bits.
    """
    row_norms = VECTOR_NORMS[norm_kind]
    with np.errstate(over="ignore", invalid="ignore"):
        rhs = dists if norm_kind is NormKind.L2 else row_norms(diffs)
        rhs *= factor
        diffs *= b
        diffs += apply(xs)
        diffs -= apply(ys)
        lhs = row_norms(diffs)
        # On large boxes a side can overflow although every operand is
        # finite: an l2 square past the float range from about 1.3e154 on,
        # a sum or a product near the radius limit. Those rows are rescored
        # with every operand scaled by the same power of two, which is exact,
        # so their ratio is unchanged and the other rows keep their bits.
        huge = ~(np.isfinite(lhs) & np.isfinite(rhs))
        if huge.any():
            scaled = (xs[huge] - ys[huge]) / _L2_SCALE
            tx, ty = _finite(apply, xs[huge]), _finite(apply, ys[huge])
            lhs[huge] = row_norms(b * scaled + tx / _L2_SCALE - ty / _L2_SCALE)
            rhs[huge] = factor * row_norms(scaled)
        # A ratio past the float range reads inf, which refutes the condition.
        lhs /= rhs
    return lhs


def _factor(b: float, kind: ConditionKind) -> float:
    """The condition's right-hand side is this times ||x - y||."""
    return b + 1.0 if kind is ConditionKind.ENRICHED else 1.0


def condition_ratio(
    mapping: Mapping,
    b: float,
    kind: ConditionKind,
    x,
    y,
    norm_kind: NormKind = NormKind.L2,
) -> float:
    """||b(x-y) + Tx - Ty|| divided by the condition's right-hand side.

    The pair is one row for ``_score``, applied through the compiled
    mapping: the path on which ``verify_condition`` scores its blocks, so a
    report's witness pair reproduces its ``max_ratio``.

    Raises ParameterOutOfRange for a b that is not a finite number >= 0;
    InvariantViolation for an x or y that is not a finite vector, or for
    x = y, where the ratio is undefined; DimensionMismatch naming x or y when
    its size is not the mapping's; and NonFiniteResult when the mapping
    overflows at x or y.
    """
    b = _as_b(b)
    kind, norm_kind = _as_condition_kind(kind), as_norm_kind(norm_kind)
    x, y = _as_point(mapping, x, "x"), _as_point(mapping, y, "y")
    if np.array_equal(x, y):
        raise InvariantViolation("x and y must differ: the ratio is undefined at x = y")
    apply = _compile(mapping)
    ratios = _score(apply, b, _factor(b, kind), norm_kind, *_with_distances(x[None], y[None]))
    return float(ratios[0])


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

    A report whose ``passed`` is False carries a concrete violating pair and
    is a proof of failure. A True ``passed`` only says no sampled pair
    violated the inequality beyond ``slack``.

    Each row block of the sampler's stream is scored in the buffers it was
    drawn into, max(1, 2**15 // d) rows at a time, so no (count, d) pair
    array exists: the check holds the near pairs and one block's
    temporaries. In l2 the far rows' distances from the rejection test are
    the right-hand side. As each block is scored, its best row is compared
    with the best so far and its pair copied when it wins, as ``np.argmax``
    over every row would pick: the larger ratio, the lower row on a tie. A
    too-close far pair's first draw never counts, since its redraw is scored
    in the last block. Every ratio, and so the report, is the same as in one
    whole-batch pass. Raises ParameterOutOfRange for a b or a ``slack`` that
    is not a finite number >= 0.
    """
    b, slack = _as_b(b), _as_slack(slack)
    kind, norm_kind = _as_condition_kind(kind), as_norm_kind(norm_kind)
    sampler = sampler if sampler is not None else PairSampler()
    apply = _compile(mapping)
    factor = _factor(b, kind)
    best = None  # (ratio, row, x, y) of the pick so far
    for rows, xs, ys, diffs, dists, redrawn in _pair_blocks(sampler, mapping.dim):
        ratios = _score(apply, b, factor, norm_kind, xs, ys, diffs, dists)
        ratios[redrawn] = -np.inf  # their redraws are scored in the last block
        j = int(np.argmax(ratios))  # first index on ties
        ratio = ratios[j]
        row = rows.start + j if isinstance(rows, slice) else int(rows[j])
        if best is None or (
            _first_wins(ratio, best[0]) if row < best[1] else not _first_wins(best[0], ratio)
        ):
            best = ratio, row, xs[j].copy(), ys[j].copy()
    ratio, _, witness_x, witness_y = best
    return EnrichmentReport(kind, b, sampler.count, float(ratio), witness_x, witness_y, slack)


def _first_wins(first: float, then: float) -> bool:
    """Whether ``np.argmax([first, then])`` is 0: ``first`` is NaN or at least ``then``."""
    return first != first or first >= then


def _box_parts(A: np.ndarray, norm_kind: NormKind) -> tuple[np.ndarray, np.ndarray]:
    """(D, R) for the l1 or l-infinity closed forms: D = diag(M), and R_i sums
    |M_ij| over j != i, where M is A for l-infinity and its transpose for l1.

    Then ||bI + A|| = max_i (|b + D_i| + R_i), one term per row of M.
    """
    M = A.T if norm_kind is NormKind.L1 else A
    off = np.abs(M)
    np.fill_diagonal(off, 0.0)
    return M.diagonal(), off.sum(axis=1)


def _enriched_least(A: np.ndarray, norm_kind: NormKind) -> float:
    """The least enriched b by closed form, or inf when it gives none.

    l1 and l-infinity: |b + D_i| + R_i <= b + 1 holds iff D_i + R_i <= 1 and
    b >= (R_i - D_i - 1) / 2. l2: squaring ||bI + A|| <= b + 1 cancels b^2 and
    leaves P <= bN, with N = 2I - (A + A^T) and P = A^T A - I. When N is
    positive definite, the least b is the top eigenvalue of N^-1/2 P N^-1/2.
    When N has a negative eigenvalue no b is feasible. When N is singular,
    as when A fixes a direction, P <= bN needs P = 0 on N's null space;
    where P vanishes there to within rounding, the pencil is solved on N's
    range, and otherwise inf leaves the verdict to the kernel.
    """
    if norm_kind is not NormKind.L2:
        D, R = _box_parts(A, norm_kind)
        return max(0.0, float(np.max(R - D - 1.0)) / 2.0) if np.max(D + R) <= 1.0 else math.inf
    eye = np.eye(A.shape[0])
    P = A.T @ A - eye
    w, V = np.linalg.eigh(2.0 * eye - (A + A.T))
    tiny = _SINGULAR * max(1.0, w[-1])
    if abs(w[0]) <= tiny:  # N is singular: solve on its range if P is 0 on its null space
        null = w <= tiny
        if np.abs(P @ V[:, null]).max() > _SINGULAR * max(1.0, np.abs(P).max()):
            return math.inf
        w, V = w[~null], V[:, ~null]
        if not w.size:  # N = P = 0: every b is feasible
            return 0.0
    elif not w[0] > 0.0:
        return math.inf
    W = V / np.sqrt(w)
    return max(0.0, float(np.linalg.eigvalsh(W.T @ P @ W)[-1]))


def _modified_interval(A: np.ndarray, norm_kind: NormKind) -> tuple[float, float]:
    """Ends (lo, hi) of the modified feasible set by closed form; lo > hi when it is empty.

    l1 and l-infinity: |b + D_i| + R_i <= 1 holds iff
    R_i - D_i - 1 <= b <= 1 - R_i - D_i. l2: ||bI + A|| <= 1 squares to
    Q(b) = b^2 I + b(A + A^T) + P <= 0, with P = A^T A - I. When some Q(b)
    is, the quadratic eigenproblem det Q = 0 is hyperbolic: its 2d
    eigenvalues are real and Q <= 0 exactly between the d-th and the
    (d+1)-th. They are the eigenvalues of the companion
    [[0, I], [-P, -(A + A^T)]], taken by real part; otherwise the ends mean
    nothing, and the kernel's verdict decides.
    """
    if norm_kind is not NormKind.L2:
        D, R = _box_parts(A, norm_kind)
        return max(0.0, float(np.max(R - D - 1.0))), float(np.min(1.0 - R - D))
    d = A.shape[0]
    eye = np.eye(d)
    companion = np.block([[np.zeros((d, d)), eye], [eye - A.T @ A, -(A + A.T)]])
    re = np.sort(np.linalg.eigvals(companion).real)
    return max(0.0, float(re[d - 1])), float(re[d])


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

    The endpoint is solved for, not searched: in l1 and l-infinity it is a
    maximum over rows, and in l2 the top eigenvalue of a symmetric-definite
    pencil (enriched; on the range of 2I - (A + A^T) when that is singular,
    as for a map that fixes a direction) or the d-th of a quadratic
    eigenproblem (modified). One feasibility test then checks it through the
    kernel of ``OPERATOR_NORMS``: b is accepted when

        g(b) <= 8 d eps (b + ||A|| + 1),

    eps the float64 machine epsilon. The allowance covers the rounding of
    forming bI + A and of the norm kernels, so where g is flat at 0 past the
    least b, as for a map that fixes a direction, the closed form stands
    whichever sign rounding gives its reading. The closed form is the answer
    when the test accepts it. Otherwise the one repair is bisection between
    the refused point and an accepted end, B_CAP (enriched) or the middle of
    the closed form's interval (modified); it finds the least accepted b to
    within ``B_TOL`` in at most 48 passes.

    None rests on the same test. Every feasible b is at least
    (||A|| - 1) / 2, so ||A|| > 2 B_CAP + 1 rules every b out before any
    product of A is formed. Otherwise None means the closed form is refused
    and so is the bisection's end, or the modified interval is empty. The
    enriched end is B_CAP, and refusing it rules out every b <= B_CAP
    because the enriched g is non-increasing.
    """
    A = as_matrix(matrix, name="matrix")
    kind = _as_condition_kind(kind)
    norm_kind = as_norm_kind(norm_kind)
    op_norm = OPERATOR_NORMS[norm_kind]
    eye = np.eye(A.shape[0])
    top = op_norm(A)
    if top - 1.0 > 2.0 * B_CAP:
        return None
    allowance = _ROUNDING * A.shape[0]

    def feasible(b: float) -> bool:
        return op_norm(b * eye + A) - _factor(b, kind) <= allowance * (b + top + 1.0)

    if top - 1.0 <= allowance * (top + 1.0):
        return 0.0
    if kind is ConditionKind.ENRICHED:
        lo, hi = _enriched_least(A, norm_kind), B_CAP
        if lo > B_CAP:  # no b up to B_CAP by closed form: bisect from 0
            lo = 0.0
    else:
        lo, hi = _modified_interval(A, norm_kind)
        lo = min(lo, B_CAP)
        hi = 0.5 * (lo + min(hi, B_CAP))
    if lo > 0.0 and feasible(lo):
        return lo
    if not (lo < hi and feasible(hi)):
        return None
    # Each pass halves hi - lo <= B_CAP = 1e6 until it is at most B_TOL / 2:
    # at most 48 passes.
    while hi - lo > B_TOL * 0.5:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi
