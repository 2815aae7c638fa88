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
``min_b_affine`` is exact for affine maps, where the condition collapses to
a convex norm inequality in b: it solves for the least b in closed form (row
maxima in l1 and l-infinity, eigenvalues in l2), and the operator-norm kernel
accepts every b it returns.
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
        # Uniform draws scale by the box's width 2r, which must be finite, and
        # near pairs by separations from 1e-4 r, which must not round to 0.
        r = as_float(self.box_radius)
        if not 1e-4 * r > 0.0 or not math.isfinite(2.0 * r):
            raise ParameterOutOfRange(
                f"box_radius must keep 1e-4*box_radius > 0 and 2*box_radius finite, "
                f"got {self.box_radius!r}"
            )

    def draw(self, dim: int) -> tuple[np.ndarray, np.ndarray]:
        """Return (xs, ys), each of shape (count, dim), with ``dim`` at most
        DIM_CAP; near pairs come first.

        The materialized form of the block stream that ``verify_condition``
        scores as it goes: each block is copied into its rows, so the bits
        are those of plain ``rng.uniform`` and ``rng.standard_normal`` draws
        of the whole sample.
        """
        if not is_integer(dim) or not 1 <= dim <= DIM_CAP:
            raise ParameterOutOfRange(f"dim must be an integer in [1, {DIM_CAP}], got {dim!r}")
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
    array exists: the check holds the near pairs, one block's temporaries
    and the ratio vector. In l2 the far rows' distances from the rejection
    test are the right-hand side. The redrawn rows come last, and their
    ratios overwrite those of their first draws. Every ratio, and so the
    report, is the same as in one whole-batch pass; the witness is the final
    pair of the row ``np.argmax`` picks, read from the near arrays or the
    redrawn rows, or drawn again at its stream positions. Raises
    ParameterOutOfRange for a b or a ``slack`` that is not a finite number
    >= 0.
    """
    b, slack = _as_b(b), _as_slack(slack)
    kind, norm_kind = _as_condition_kind(kind), as_norm_kind(norm_kind)
    sampler = sampler if sampler is not None else PairSampler()
    stream = _PairStream(sampler, mapping.dim)
    apply = _compile(mapping)
    factor = _factor(b, kind)
    ratios = np.empty(sampler.count)
    for rows, xs, ys, diffs, dists in stream.blocks():
        ratios[rows] = _score(apply, b, factor, norm_kind, xs, ys, diffs, dists)
    idx = int(np.argmax(ratios))  # first index on ties
    witness_x, witness_y = stream.pair(idx)
    return EnrichmentReport(kind, b, sampler.count, float(ratios[idx]), witness_x, witness_y, slack)


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
    When N has a negative eigenvalue no b is feasible; when it is singular
    there is no closed form, and inf leaves the verdict to the kernel.
    """
    if norm_kind is not NormKind.L2:
        D, R = _box_parts(A, norm_kind)
        return max(0.0, float(np.max(R - D - 1.0)) / 2.0) if np.max(D + R) <= 1.0 else math.inf
    eye = np.eye(A.shape[0])
    w, V = np.linalg.eigh(2.0 * eye - (A + A.T))
    if not w[0] > 0.0:
        return math.inf
    W = V / np.sqrt(w)
    return max(0.0, float(np.linalg.eigvalsh(W.T @ (A.T @ A - eye) @ W)[-1]))


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
    pencil (enriched) or the d-th of a quadratic eigenproblem (modified). The
    kernel of ``OPERATOR_NORMS`` then checks it: the answer is the closed form
    stepped up by a few ulps until g reads <= 0 there, as a bisection's upper
    end would be. Where g is flat near the endpoint, g reads 0 over a stretch
    wider than ``B_TOL``, and the answer is the closed form's point in it.

    None rests on the kernel too. Every feasible b is at least
    (||A|| - 1) / 2, so ||A|| = g(0) + 1 > 2 B_CAP + 1 rules every b out before
    any product of A is formed. Otherwise an enriched None needs g(B_CAP) > 0,
    which rules out every b <= B_CAP because the enriched g is non-increasing,
    and a modified None needs g > 0 at the closed form's endpoint, and also at
    the middle of its interval when that is not empty. The steps up from the
    closed form grow fourfold, so a kernel that refuses many of them still
    meets a b it accepts within 37 steps; bisection of the last step then
    finds the least b to within ``B_TOL``.
    """
    A = as_matrix(matrix, name="matrix")
    kind = _as_condition_kind(kind)
    norm_kind = as_norm_kind(norm_kind)
    op_norm = OPERATOR_NORMS[norm_kind]
    eye = np.eye(A.shape[0])

    def g(b: float) -> float:
        return op_norm(b * eye + A) - _factor(b, kind)

    g0 = g(0.0)
    if g0 <= 0.0:
        return 0.0
    if g0 > 2.0 * B_CAP:
        return None

    # lo is the answer if the kernel accepts it; otherwise a feasible map has
    # hi feasible too, and the least b lies in (lo, hi].
    if kind is ConditionKind.ENRICHED:
        lo, hi = _enriched_least(A, norm_kind), B_CAP
        if lo > B_CAP:
            # No b up to B_CAP by closed form: g(B_CAP) > 0 confirms it, or
            # else bisection from 0 finds the least.
            lo = 0.0
    else:
        lo, hi = _modified_interval(A, norm_kind)
        lo = min(lo, B_CAP)
        hi = 0.5 * (lo + min(hi, B_CAP))
    if (g0 if lo == 0.0 else g(lo)) <= 0.0:
        return lo
    if not lo < hi or g(hi) > 0.0:
        return None
    # The kernel refuses lo and accepts hi. Step up from lo by 1, 4, 16, ...
    # ulps of max(lo, 1) until it accepts; where lo was refused by rounding
    # alone, a few steps do. From 2**-52 to B_CAP that is at most 37 passes.
    step = math.ulp(max(lo, 1.0))
    while True:
        b = min(lo + step, hi)
        if b == hi or g(b) <= 0.0:
            break
        lo, step = b, 4.0 * step
    hi = b
    # Each pass halves hi - lo <= B_CAP = 1e6 until it is at most B_TOL / 2:
    # at most 48 passes.
    while hi - lo > B_TOL * 0.5:
        mid = 0.5 * (lo + hi)
        if g(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi
