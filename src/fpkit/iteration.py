"""Fixed-point iteration schemes and their diagnostics.

``picard`` iterates x <- T(x) under a residual stop rule. ``krasnoselskij``
is literally Picard applied to the averaged map (1-lambda)*x + lambda*T(x);
the two schemes share one code path, so their traces agree bit for bit.
``picard`` first folds each affine subtree of the mapping into one
``Affine`` (``mappings.collapse``); its traces are bit for bit those of the
reference loop over the folded tree.
``solve_modified`` packages the contraction guarantee: when T is
b-modified-enriched with b > 0, the averaged map with lambda = 1/(b+1) is a
Banach contraction with factor lambda, and Krasnoselskij iteration converges
geometrically to the unique fixed point of T from any starting point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .enrichment import (
    DEFAULT_SLACK,
    ConditionKind,
    EnrichmentReport,
    PairSampler,
    averaged,
    verify_condition,
)
from .errors import DimensionMismatch, InsufficientData, NonFiniteResult, ParameterOutOfRange
from .mappings import Mapping, _compile, collapse, evaluate
from .spaces import VECTOR_NORMS, NormKind, as_norm_kind, as_vector, is_number, norm

# A run is declared diverged once the residual has grown on this many
# consecutive steps, ignored during the initial transient.
DIVERGENCE_WINDOW = 20
DIVERGENCE_GRACE = 50

# picard applies the mapping in blocks of steps back to back and takes each
# block's norms in one call per quantity. Blocks start short, so that a run
# that stops early computes few steps past its stop, and double up to the
# longest.
_FIRST_BLOCK = 8
_LAST_BLOCK = 64

# Residuals at or below this are rounding noise; ratio diagnostics skip them.
RESIDUAL_NOISE_FLOOR = 100.0 * float(np.finfo(float).eps)


class Status(str, Enum):
    CONVERGED = "converged"
    MAX_ITER_REACHED = "max_iter_reached"
    DIVERGED = "diverged"


@dataclass
class StopRule:
    """Residual-based termination: stop once ||x_{n+1} - x_n|| <= eps_abs + eps_rel*||x_{n+1}||."""

    eps_abs: float = 1e-9
    eps_rel: float = 0.0
    max_iter: int = 10_000
    norm_cap: float = 1e12

    def __post_init__(self):
        for name in ("eps_abs", "eps_rel", "norm_cap"):
            if not is_number(getattr(self, name)):
                raise ParameterOutOfRange(f"{name} must be a number, got {getattr(self, name)!r}")
        eps_abs, eps_rel = self.eps_abs, self.eps_rel
        if not (eps_abs >= 0 and eps_rel >= 0) or (eps_abs == 0 and eps_rel == 0):
            raise ParameterOutOfRange("eps_abs/eps_rel must be >= 0 and not both zero")
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, int):
            raise ParameterOutOfRange(f"max_iter must be an integer, got {self.max_iter!r}")
        if self.max_iter < 1:
            raise ParameterOutOfRange("max_iter must be >= 1")
        if not self.norm_cap > 0:
            raise ParameterOutOfRange("norm_cap must be positive")


@dataclass
class IterationTrace:
    """Record of one iteration run.

    ``residuals[n]`` is ||x_{n+1} - x_n|| for the (n+1)-th application;
    ``ratios`` is aligned with ``residuals`` (ratios[n] = residuals[n] /
    residuals[n-1], None at index 0 and wherever the previous residual is
    zero). ``iterations == len(residuals)``. ``iterates`` holds the full
    sequence x_0, x_1, ... only when requested at run time.
    """

    residuals: list[float]
    ratios: list[float | None]
    status: Status
    final: np.ndarray
    iterations: int
    norm_kind: NormKind
    iterates: list[np.ndarray] | None = field(default=None, repr=False)


def picard(
    mapping: Mapping,
    x0,
    stop: StopRule | None = None,
    norm_kind: NormKind = NormKind.L2,
    *,
    store_iterates: bool = False,
) -> IterationTrace:
    """Iterate x <- mapping(x) from x0 until the stop rule fires.

    Divergence is declared when an iterate's norm exceeds ``stop.norm_cap``,
    when the residual grows on DIVERGENCE_WINDOW consecutive steps after an
    initial grace period, or when evaluation overflows to non-finite values
    (that step is not recorded).

    ``x0`` and its dimension are validated once, before the loop. The
    mapping is then folded once by ``collapse``, so an affine tree (such as
    the averaged map of an affine T) costs one matrix-vector product per
    step, and compiled once into a function that applies it without walking
    the tree again. Steps run in blocks: the compiled map is applied k times
    back to back, the block's iterate norms and step norms are taken in one
    row-norm call each, and the stop rule then walks those floats step by
    step in the order of a one-step loop. Blocks hold 8 steps, then 16 and
    32, then 64 each, so a short run computes few steps past its stop; those
    steps are discarded, and arithmetic that overflows in them is silent
    and leaves no trace.

    A finite norm proves every entry finite, so only a step whose norm is
    infinite or NaN tests its entries: non-finite entries end the run
    unrecorded, while finite entries whose norm overflowed are recorded and
    then trip ``norm_cap``. Traces are bit for bit those of calling
    ``evaluate`` and ``norm`` on every step of ``collapse(mapping)``, one
    step at a time; against the unfolded tree, iterates may differ in their
    last bits.
    """
    stop = stop if stop is not None else StopRule()
    norm_kind = as_norm_kind(norm_kind)
    row_norms = VECTOR_NORMS[norm_kind]
    x = as_vector(x0, name="x0")
    if x.size != mapping.dim:
        raise DimensionMismatch(
            f"mapping of dimension {mapping.dim} iterated from x0 of dimension {x.size}"
        )
    step = _compile(collapse(mapping))
    eps_abs, eps_rel, norm_cap = stop.eps_abs, stop.eps_rel, stop.norm_cap

    residuals: list[float] = []
    ratios: list[float | None] = []
    iterates: list[np.ndarray] | None = [x.copy()] if store_iterates else None
    status = Status.MAX_ITER_REACHED
    growth_streak = 0
    prev = 0.0
    left, size = stop.max_iter, _FIRST_BLOCK

    with np.errstate(over="ignore", invalid="ignore"):
        while left and status is Status.MAX_ITER_REACHED:
            k = min(size, left)
            left -= k
            size = min(2 * size, _LAST_BLOCK)
            block = [x]
            y = x
            for _ in range(k):
                y = step(y)
                block.append(y)
            rows = np.array(block)
            x_norms = row_norms(rows[1:]).tolist()
            steps = row_norms(rows[1:] - rows[:-1]).tolist()
            for x_next, x_norm, r in zip(block[1:], x_norms, steps):
                if not math.isfinite(x_norm) and not np.isfinite(x_next).all():
                    status = Status.DIVERGED
                    break
                if residuals:
                    ratios.append(r / prev if prev > 0.0 else None)
                    growth_streak = growth_streak + 1 if r > prev else 0
                else:
                    ratios.append(None)
                residuals.append(r)
                prev = r
                if iterates is not None:
                    iterates.append(x_next)
                x = x_next
                if r <= eps_abs + eps_rel * x_norm:
                    status = Status.CONVERGED
                    break
                if x_norm > norm_cap:
                    status = Status.DIVERGED
                    break
                if len(residuals) > DIVERGENCE_GRACE and growth_streak >= DIVERGENCE_WINDOW:
                    status = Status.DIVERGED
                    break

    return IterationTrace(
        residuals=residuals,
        ratios=ratios,
        status=status,
        final=x,
        iterations=len(residuals),
        norm_kind=norm_kind,
        iterates=iterates,
    )


def krasnoselskij(
    mapping: Mapping,
    lam: float,
    x0,
    stop: StopRule | None = None,
    norm_kind: NormKind = NormKind.L2,
    *,
    store_iterates: bool = False,
) -> IterationTrace:
    """Iterate x <- (1-lam)*x + lam*mapping(x); exactly Picard on the averaged map."""
    lam = float(lam)
    if not (0.0 < lam < 1.0):
        raise ParameterOutOfRange(f"lambda must lie in (0, 1), got {lam}")
    return picard(averaged(mapping, lam), x0, stop, norm_kind, store_iterates=store_iterates)


@dataclass
class SolveResult:
    """Output of solve_modified.

    ``residual_T`` is ||T(fixed_point) - fixed_point|| recomputed against the
    original map, not the averaged one. ``condition_verified`` carries the
    sampled condition report when verification was requested, else None.
    """

    fixed_point: np.ndarray
    lam: float
    trace: IterationTrace
    residual_T: float
    condition_verified: EnrichmentReport | None = None


def solve_modified(
    mapping: Mapping,
    b: float,
    x0,
    stop: StopRule | None = None,
    norm_kind: NormKind = NormKind.L2,
    verify: bool = False,
    *,
    sampler: PairSampler | None = None,
    slack: float = DEFAULT_SLACK,
    store_iterates: bool = False,
) -> SolveResult:
    """Fixed point of a b-modified-enriched map via averaged iteration.

    Uses lambda = 1/(b+1), the value that turns the condition into a Banach
    contraction bound with factor lambda. Requires b > 0: at b = 0 the
    condition only says the map is nonexpansive and the contraction guarantee
    (and uniqueness) evaporates. With ``verify=True`` the sampled condition
    check runs first and its report is attached; a failed check does not stop
    the iteration, since the sampled check can refute but never certify.
    """
    b = float(b)
    if not (b > 0.0) or not math.isfinite(b):
        raise ParameterOutOfRange(
            f"b must be > 0, got {b}: with b = 0 the map is merely nonexpansive and no "
            "contraction factor exists; run krasnoselskij with a chosen lambda instead "
            "(no convergence guarantee)"
        )
    lam = 1.0 / (b + 1.0)
    report = None
    if verify:
        report = verify_condition(
            mapping, b, ConditionKind.MODIFIED, sampler, slack=slack, norm_kind=norm_kind
        )
    trace = krasnoselskij(mapping, lam, x0, stop, norm_kind, store_iterates=store_iterates)
    try:
        with np.errstate(over="ignore"):  # an overflowed l2 norm reads inf
            residual_T = norm(evaluate(mapping, trace.final) - trace.final, norm_kind)
    except NonFiniteResult:
        residual_T = float("inf")
    return SolveResult(
        fixed_point=trace.final,
        lam=lam,
        trace=trace,
        residual_T=residual_T,
        condition_verified=report,
    )


def apriori_iterations(lam: float, d1: float, eps: float) -> int:
    """Least n >= 0 with lam^n * d1 / (1 - lam) <= eps.

    This is the classical a-priori contraction estimate with d1 = ||x_1 - x_0||:
    after n steps the error is at most lam^n/(1-lam) * d1. Returns 0 when
    d1 = 0 (the start is already fixed).
    """
    lam = float(lam)
    d1 = float(d1)
    eps = float(eps)
    if not (0.0 < lam < 1.0):
        raise ParameterOutOfRange(f"lambda must lie in (0, 1), got {lam}")
    if d1 < 0.0 or not math.isfinite(d1):
        raise ParameterOutOfRange("d1 must be finite and >= 0")
    if not (eps > 0.0):
        raise ParameterOutOfRange("eps must be positive")
    if d1 == 0.0:
        return 0

    def bound_ok(n: int) -> bool:
        return lam**n * d1 / (1.0 - lam) <= eps

    if bound_ok(0):
        return 0
    # Closed form, then a local fix-up against float rounding of log/pow.
    n = max(0, math.ceil(math.log(eps * (1.0 - lam) / d1) / math.log(lam)))
    while n > 0 and bound_ok(n - 1):
        n -= 1
    while not bound_ok(n):
        n += 1
    return n


def check_fixed_point(
    mapping: Mapping, x, tol: float, norm_kind: NormKind = NormKind.L2
) -> tuple[bool, float]:
    """Whether ||T(x) - x|| <= tol; returns (verdict, residual)."""
    x = as_vector(x, name="x")
    residual = norm(evaluate(mapping, x) - x, norm_kind)
    return residual <= tol, residual


def empirical_ratio(trace: IterationTrace) -> float:
    """Geometric mean of the last up-to-10 trustworthy residual ratios.

    A ratio counts only when both residuals sit above the rounding noise
    floor (100 machine epsilons). Raises InsufficientData when fewer than two
    such ratios exist, i.e. when the trace has fewer than three usable
    residuals.
    """
    rs = trace.residuals
    usable = [
        rs[i] / rs[i - 1]
        for i in range(1, len(rs))
        if rs[i] > RESIDUAL_NOISE_FLOOR and rs[i - 1] > RESIDUAL_NOISE_FLOOR
    ]
    if len(usable) < 2:
        raise InsufficientData(
            "empirical ratio needs at least three residuals above the noise floor"
        )
    tail = usable[-10:]
    return float(math.exp(sum(math.log(r) for r in tail) / len(tail)))


def write_trace_csv(trace: IterationTrace, path) -> None:
    """Serialize a trace as CSV with columns iter,residual,ratio.

    ``iter`` is 1-based; the ratio cell is empty where undefined. Floats are
    written with repr (shortest round-trip form), so identical traces produce
    byte-identical files. No cell needs CSV quoting, so the file is built as
    one string, the bytes ``csv.writer`` would write, and written once.
    """
    rows = "".join([
        f"{i},{res!r},{'' if ratio is None else repr(ratio)}\n"
        for i, (res, ratio) in enumerate(zip(trace.residuals, trace.ratios), start=1)
    ])
    with open(path, "w", newline="") as fh:
        fh.write("iter,residual,ratio\n" + rows)
