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
block is filled into buffers the blocks share and scored there, so no
(count, d) pair array is made; the few far pairs that fall too close are
redrawn at the end and scored again as one last block. ``PairSampler.draw``
copies the same blocks into two whole arrays.
``min_b_affine`` is exact (up to bisection tolerance) for affine maps, where
the condition collapses to a convex norm inequality in b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial

import numpy as np

from .errors import InvariantViolation, ParameterOutOfRange
from .mappings import LinearCombinationWithIdentity, Mapping, _compile, _finite, evaluate_many
from .spaces import (
    _L2_SCALE,
    OPERATOR_NORMS,
    VECTOR_NORMS,
    NormKind,
    as_matrix,
    as_norm_kind,
    as_vector,
    is_number,
)

B_CAP = 1e6  # search ceiling for min_b_affine
B_TOL = 1e-8  # min_b_affine returns the least feasible b to within this
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # golden-section ratio, 0.618...

DEFAULT_SLACK = 1e-9

# Far pairs closer than this times box_radius are redrawn, so x = y never
# occurs in a sample.
MIN_SEPARATION = 1e-14

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
    """``b`` as a float; ParameterOutOfRange unless it is finite and >= 0."""
    b = float(b)
    if b < 0.0 or not math.isfinite(b):
        raise ParameterOutOfRange(f"b must be finite and >= 0, got {b}")
    return b


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

    Draws ``count`` pairs inside the box [-box_radius, box_radius]^d. A
    ``near_pair_fraction`` share are near pairs with separation in
    [1e-4, 1e-3] * box_radius (log-uniform), which stresses the ratio at
    small distances while staying above the scale where subtraction rounding
    would pollute the quotient. The remainder are independent uniform draws;
    any pair closer than MIN_SEPARATION * box_radius is rejected and redrawn,
    so x = y never occurs. The stream is a pure function of ``seed``.
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

        The materialized form of the block stream that ``verify_condition``
        scores as it goes: each block is copied into its rows, so the bits
        are those of plain ``rng.uniform`` and ``rng.standard_normal`` draws
        of the whole sample.
        """
        if isinstance(dim, bool) or not isinstance(dim, (int, np.integer)) or dim < 1:
            raise ParameterOutOfRange(f"dim must be an integer >= 1, got {dim!r}")
        xs = np.empty((self.count, dim))
        ys = np.empty((self.count, dim))
        for rows, x, y, _, _ in _PairStream(self, dim).blocks():
            xs[rows] = x
            ys[rows] = y
        return xs, ys


class _PairStream:
    """The pairs of one ``PairSampler`` at one dimension, in row blocks.

    One PCG64 stream makes them, in this order: the near pairs' x's, their
    normal directions and their log-uniform magnitudes; the far rows' x's,
    then their y's; then the redraws. A direction takes a variable number of
    draws, so the near pairs are drawn whole. A far row takes a fixed number:
    with P the stream position after the near pairs, row i's x sits at
    P + i*d and its y at P + (n_far + i)*d. So far rows are filled block by
    block into buffers the blocks share, and ``bit_generator.advance`` moves
    between the two positions.
    """

    def __init__(self, sampler: PairSampler, dim: int):
        rng = np.random.default_rng(sampler.seed)
        r = sampler.box_radius
        n_near = int(round(sampler.count * sampler.near_pair_fraction))
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

        self.near = x_near, y_near
        self.n_far = sampler.count - n_near
        self.dim = dim
        self._r = r
        self._rng = rng
        self._pos = 0  # doubles drawn since P
        self._redrawn = {}  # row -> its (x, y) after the redraws

    def _fill(self, out: np.ndarray, at: int) -> None:
        """Fill ``out`` with the box-uniform doubles from position P + ``at`` on."""
        if at != self._pos:
            # PCG64's period is 2**128, so this moves by at - pos, back too.
            self._rng.bit_generator.advance((at - self._pos) % 2**128)
        _fill_uniform(self._rng, out, self._r)
        self._pos = at + out.size

    def blocks(self):
        """Yield ``(rows, xs, ys, diffs, dists)`` for each row block, in draw order.

        ``rows`` is the slice of the sample that the block holds: the near
        rows copied from their arrays, the far rows drawn in place. ``diffs``
        is ``xs - ys`` and ``dists`` its l2 row norms. The next block reuses
        all these arrays, and the caller may overwrite ``diffs`` and
        ``dists``. A far pair closer than MIN_SEPARATION * box_radius is
        yielded as drawn, and its row is noted. Once every far row is drawn,
        the noted pairs are redrawn from the stream's end, in rounds as in one
        whole draw, and yielded as one last block whose ``rows`` is the index
        array of their rows, so their final values overwrite the first ones.
        """
        d, n_far = self.dim, self.n_far
        x_near, y_near = self.near
        n_near = len(x_near)
        n = n_near + n_far
        step = max(1, _BLOCK_ENTRIES // d)
        xbuf, ybuf, dbuf = np.empty((3, min(step, n), d))
        floor = MIN_SEPARATION * self._r
        close = []  # (rows, xs, ys) of the too-close far pairs, in order
        for start in range(0, n, step):
            rows = slice(start, min(start + step, n))
            m = rows.stop - start
            xs, ys, diffs = xbuf[:m], ybuf[:m], dbuf[:m]
            k = min(m, max(0, n_near - start))  # near rows in the block
            xs[:k] = x_near[start : start + k]
            ys[:k] = y_near[start : start + k]
            if k < m:
                i = start + k - n_near  # the block's first far row, counted from 0
                self._fill(xs[k:], i * d)
                self._fill(ys[k:], (n_far + i) * d)
            dists = _distances(np.subtract(xs, ys, out=diffs))
            if (dists[k:] < floor).any():
                bad = k + np.flatnonzero(dists[k:] < floor)
                close.append((start + bad, xs[bad], ys[bad]))
            yield rows, xs, ys, diffs, dists
        if not close:
            return

        rows, xs, ys = (np.concatenate(parts) for parts in zip(*close))
        while True:
            bad = _distances(xs - ys) < floor
            if not bad.any():
                break
            new = np.empty((2, int(bad.sum()), d))
            self._fill(new[0], self._pos)
            self._fill(new[1], self._pos)
            xs[bad], ys[bad] = new
        self._redrawn = dict(zip(rows.tolist(), zip(xs, ys)))
        yield rows, *_with_distances(xs, ys)

    def pair(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Row ``i``'s final (x, y), as new 1-D arrays, once ``blocks`` is done.

        A near row or a redrawn row is read from its arrays; any other far row
        kept its first draw, so it is drawn again at its stream positions.
        """
        x_near, y_near = self.near
        if i < len(x_near):
            return x_near[i].copy(), y_near[i].copy()
        if i in self._redrawn:
            x, y = self._redrawn[i]
            return x.copy(), y.copy()
        j = i - len(x_near)
        x, y = np.empty(self.dim), np.empty(self.dim)
        self._fill(x, j * self.dim)
        self._fill(y, (self.n_far + j) * self.dim)
        return x, y


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

    Raises ParameterOutOfRange for a b that is not finite and >= 0, and
    InvariantViolation for an x or y that is not a finite vector, or for
    x = y, where the ratio is undefined.
    """
    b = _as_b(b)
    kind, norm_kind = _as_condition_kind(kind), as_norm_kind(norm_kind)
    x, y = as_vector(x, name="x"), as_vector(y, name="y")
    if np.array_equal(x, y):
        raise InvariantViolation("x and y must differ: the ratio is undefined at x = y")
    apply = partial(evaluate_many, mapping)
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

    A report with ``passed=False`` carries a concrete violating pair and is a
    proof of failure. ``passed=True`` only says no sampled pair violated the
    inequality beyond ``slack``.

    Each row block of the sampler's stream is scored in the buffers it was
    drawn into, max(1, 2**15 // d) rows at a time, so no (count, d) pair
    array exists: the check holds the near pairs, one block's temporaries
    and the ratio vector. In l2 the far rows' distances from the rejection
    test are the right-hand side. The redrawn rows come last, and their
    ratios overwrite those of their first draws. Every ratio, and so the
    report, is the same as in one whole-batch pass; the witness is the final
    pair of the row ``np.argmax`` picks, read from the near arrays or the
    redrawn rows, or drawn again at its stream positions. Raises
    ParameterOutOfRange for a b that is not finite and >= 0.
    """
    b = _as_b(b)
    kind, norm_kind = _as_condition_kind(kind), as_norm_kind(norm_kind)
    sampler = sampler if sampler is not None else PairSampler()
    stream = _PairStream(sampler, mapping.dim)
    apply = _compile(mapping)
    factor = _factor(b, kind)
    ratios = np.empty(sampler.count)
    for rows, xs, ys, diffs, dists in stream.blocks():
        ratios[rows] = _score(apply, b, factor, norm_kind, xs, ys, diffs, dists)
    idx = int(np.argmax(ratios))  # first index on ties
    max_ratio = float(ratios[idx])
    witness_x, witness_y = stream.pair(idx)
    return EnrichmentReport(
        kind=kind,
        b=b,
        pairs_tested=sampler.count,
        max_ratio=max_ratio,
        witness_x=witness_x,
        witness_y=witness_y,
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
        return op_norm(b * eye + A) - _factor(b, kind)

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
