"""Fixed-point iteration schemes and their diagnostics.

``picard`` iterates x <- T(x) under a residual stop rule. ``krasnoselskij``
is literally Picard applied to the averaged map (1-lambda)*x + lambda*T(x);
the two schemes share one code path, so their traces agree bit for bit.
``picard`` first folds a mapping that is affine as a whole into one
``Affine`` (``mappings.collapse``) and iterates any other tree as it stands;
its traces are bit for bit those of the reference loop over that map.
``solve_modified`` packages the contraction guarantee: when T is
b-modified-enriched with b > 0, the averaged map with lambda = 1/(b+1) is a
Banach contraction with factor lambda, and Krasnoselskij iteration converges
geometrically to the unique fixed point of T from any starting point.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from .enrichment import averaged
from .errors import InsufficientData, IoError, NonFiniteResult, ParameterOutOfRange
from .mappings import Affine, Mapping, _as_point, _compile, collapse, evaluate
from .spaces import (
    VECTOR_NORMS,
    NormKind,
    as_float,
    as_norm_kind,
    is_integer,
    is_number,
    norm,
)

# A run is declared diverged once the residual has grown on this many
# consecutive steps, ignored during the initial transient.
DIVERGENCE_WINDOW = 20
DIVERGENCE_GRACE = 50

# picard applies the mapping in blocks of steps back to back and takes each
# block's norms in one call per quantity. The first block is short, so that a
# run that stops early computes few steps past its stop; each later block is
# sized from the run so far (_next_block), up to the longest.
_FIRST_BLOCK = 8
_LAST_BLOCK = 64
# A shrinking run's rate is the geometric mean over its last _RATE_WINDOW
# residuals, and the steps it predicts to the stop tolerance are stretched by
# _MARGIN and _MARGIN_STEPS, so that a rate that slows a little still ends
# within the block.
_RATE_WINDOW = 8
_MARGIN = 1.1
_MARGIN_STEPS = 2

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
            v = getattr(self, name)
            if not is_number(v):
                raise ParameterOutOfRange(f"{name} must be a number, got {v!r}")
            if is_integer(v) and math.isinf(as_float(v)):
                raise ParameterOutOfRange(f"{name} must lie within the float range")
        eps_abs, eps_rel = self.eps_abs, self.eps_rel
        if not (eps_abs >= 0 and eps_rel >= 0) or (eps_abs == 0 and eps_rel == 0):
            raise ParameterOutOfRange("eps_abs/eps_rel must be >= 0 and not both zero")
        if not is_integer(self.max_iter):
            raise ParameterOutOfRange(f"max_iter must be an integer, got {self.max_iter!r}")
        # numpy integers are taken and kept as Python ints, which a config
        # document can encode.
        self.max_iter = int(self.max_iter)
        if self.max_iter < 1:
            raise ParameterOutOfRange("max_iter must be >= 1")
        if not self.norm_cap > 0:
            raise ParameterOutOfRange("norm_cap must be positive")


@dataclass
class IterationTrace:
    """Record of one iteration run.

    ``residuals[n]`` is ||x_{n+1} - x_n|| for the (n+1)-th application, and
    the trace stores nothing else per step: ``iterations`` and ``ratios`` are
    read-only properties computed from ``residuals``. ``iterates`` holds the
    full sequence x_0, x_1, ... only when requested at run time.
    """

    residuals: list[float]
    status: Status
    final: np.ndarray
    norm_kind: NormKind
    iterates: list[np.ndarray] | None = field(default=None, repr=False)

    @property
    def iterations(self) -> int:
        """The number of recorded steps, ``len(residuals)``."""
        return len(self.residuals)

    @cached_property
    def ratios(self) -> list[float | None]:
        """``ratios[n] = residuals[n] / residuals[n-1]``, aligned with
        ``residuals``: None at index 0 and wherever the previous residual is
        not positive. Computed on first access and kept."""
        rs = self.residuals
        return [r / prev if prev > 0.0 else None for prev, r in zip([0.0] + rs, rs)]


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
    step, while a tree with a box projection keeps its shape; either is
    compiled once into a function that applies it without walking the tree
    again. A folded map that is a 1-d ``Affine`` x -> a*x + c instead steps
    in Python floats, ``v = a*v + c``, which rounds the product and then the
    sum just as the compiled op does, so the bits are the same without a
    numpy call per step (``_block_filler``). Steps run in blocks: the map
    is applied k times back to back, each step writing its image into the
    next row of one ``(2k+1, d)`` array whose last k rows then take the
    steps, the block's iterate norms and step norms are taken in one
    row-norm call, and the stop rule then walks those floats step by step in
    the order of a one-step loop. Only the final point and the stored
    iterates are copied out of that array. The first block holds 8 steps;
    each later one is sized from the run so far (``_next_block``): the steps
    that the recent rate of shrinking residuals predicts to the stop
    tolerance, plus a margin, or else twice the last block, at most 64 and
    at most what ``max_iter`` leaves. Steps past the stop are discarded, and
    arithmetic that overflows in them is silent and leaves no trace. Block
    sizes cannot change a trace: each step is still computed from the row
    before it by the same op, and the stop rule walks the steps in order, so
    only the block edges move.

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
    x = _as_point(mapping, x0, "x0")
    fill = _block_filler(collapse(mapping))
    eps_abs, eps_rel, norm_cap = stop.eps_abs, stop.eps_rel, stop.norm_cap

    residuals: list[float] = []
    iterates: list[np.ndarray] | None = [x.copy()] if store_iterates else None
    status = Status.MAX_ITER_REACHED
    growth_streak = 0
    prev = math.inf  # no step grows on the first
    left, k = stop.max_iter, _FIRST_BLOCK

    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            k = min(k, left)
            left -= k
            # rows 0..k: the block's start and its steps' images; rows k+1..2k:
            # the steps, so one row-norm call takes both kinds of norm.
            buf = np.empty((2 * k + 1, x.size))
            rows = buf[:k + 1]
            rows[0] = x
            fill(rows)
            np.subtract(rows[1:], rows[:-1], out=buf[k + 1:])
            norms = row_norms(buf[1:]).tolist()
            x_norms, steps = norms[:k], norms[k:]
            before = len(residuals)
            for i, (x_norm, r) in enumerate(zip(x_norms, steps), 1):
                if not math.isfinite(x_norm) and not np.isfinite(rows[i]).all():
                    status = Status.DIVERGED
                    break
                growth_streak = growth_streak + 1 if r > prev else 0
                residuals.append(r)
                prev = r
                if r <= eps_abs + eps_rel * x_norm:
                    status = Status.CONVERGED
                    break
                if x_norm > norm_cap:
                    status = Status.DIVERGED
                    break
                if len(residuals) > DIVERGENCE_GRACE and growth_streak >= DIVERGENCE_WINDOW:
                    status = Status.DIVERGED
                    break
            done = len(residuals) - before
            x = rows[done]
            if iterates is not None:
                iterates += [row.copy() for row in rows[1:done + 1]]
            if not left or status is not Status.MAX_ITER_REACHED:
                break
            k = _next_block(residuals, eps_abs + eps_rel * x_norm, k)

    return IterationTrace(residuals, status, x.copy(), norm_kind, iterates)


def _next_block(residuals: list[float], tol: float, size: int) -> int:
    """The number of steps, 1 to _LAST_BLOCK, that picard's next block
    computes, after a block of ``size`` steps that ended with the run going on.

    ``tol`` is the stop tolerance at the last step, eps_abs + eps_rel*||x||.
    While the residuals shrink, the guess is the steps to ``tol`` at the
    geometric rate of the last _RATE_WINDOW residuals, stretched by the
    margin; residuals too close for their logs to differ give no rate.
    Without a rate the block doubles. A guess only moves a block edge: too
    short costs one more block, too long computes steps that are discarded.
    """
    n = len(residuals)
    first, last = residuals[max(0, n - _RATE_WINDOW)], residuals[-1]
    k = 2 * size
    if 0.0 < last < first < math.inf and tol > 0.0:  # tol < last, or the run had stopped
        per_step = (math.log(first) - math.log(last)) / (min(n, _RATE_WINDOW) - 1)
        # Residuals a few ulps apart, as on an isometry, can have equal logs.
        if per_step > 0.0:
            steps = (math.log(last) - math.log(tol)) / per_step
            k = math.ceil(_MARGIN * min(steps, _LAST_BLOCK)) + _MARGIN_STEPS
    return max(1, min(k, _LAST_BLOCK))


def _block_filler(m: Mapping):
    """The function that fills rows 1, 2, ... of a block with the images of
    ``m`` applied in turn from row 0.

    A 1-d ``Affine`` x -> a*x + c steps in Python floats and writes the block
    once: ``a*v + c`` rounds the product and then the sum, as the compiled
    op's ``x.dot(At)`` and in-place ``+= c`` do, so the bits are the same,
    and Python float ``*`` and ``+`` overflow to inf and NaN without
    raising, as numpy does under ``errstate``. The compiled op's numpy calls cost 1.3-1.8 us a
    step on one element, far more than the float arithmetic. Any other map
    runs its compiled op on each row.
    """
    if isinstance(m, Affine) and m.dim == 1:
        a, c = float(m.matrix[0, 0]), float(m.offset[0])

        def fill_line(rows):
            v = float(rows[0, 0])
            col = []
            for _ in range(len(rows) - 1):
                v = a * v + c
                col.append(v)
            rows[1:, 0] = col

        return fill_line
    step = _compile(m)

    def fill(rows):
        y = rows[0]
        for row in rows[1:]:  # each row's view is made as the step needs it
            step(y, row)
            y = row

    return fill


def _as_lam(lam) -> float:
    """``lam`` as a float; ParameterOutOfRange unless it is a number in (0, 1)."""
    if not (is_number(lam) and 0.0 < lam < 1.0):
        raise ParameterOutOfRange(f"lambda must lie in (0, 1), got {lam!r}")
    return float(lam)


def _as_solve_b(b) -> float:
    """``b`` as a float; ParameterOutOfRange unless it is a finite number > 0."""
    if not (is_number(b) and 0.0 < as_float(b) < math.inf):
        raise ParameterOutOfRange(
            f"b must be finite and > 0, got {b!r}: with b = 0 the map is merely "
            "nonexpansive and no contraction factor exists; run krasnoselskij with a "
            "chosen lambda instead (no convergence guarantee)"
        )
    return float(b)


def _modified_lam(b) -> float:
    """The weight ``solve_modified`` averages with, lambda = 1/(b+1);
    ParameterOutOfRange unless ``b`` is a finite number > 0."""
    return 1.0 / (_as_solve_b(b) + 1.0)


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
    return picard(averaged(mapping, _as_lam(lam)), x0, stop, norm_kind, store_iterates=store_iterates)


@dataclass
class SolveResult:
    """Output of solve_modified.

    ``fixed_point`` is a read-only property, ``trace.final``. ``residual_T``
    is ||T(fixed_point) - fixed_point|| recomputed against the original map,
    not the averaged one.
    """

    lam: float
    trace: IterationTrace
    residual_T: float

    @property
    def fixed_point(self) -> np.ndarray:
        """The last iterate, ``trace.final``."""
        return self.trace.final


def solve_modified(
    mapping: Mapping,
    b: float,
    x0,
    stop: StopRule | None = None,
    norm_kind: NormKind = NormKind.L2,
    *,
    store_iterates: bool = False,
) -> SolveResult:
    """Fixed point of a b-modified-enriched map via averaged iteration.

    Uses lambda = 1/(b+1), the value that turns the condition into a Banach
    contraction bound with factor lambda. Requires b > 0: at b = 0 the
    condition only says the map is nonexpansive and the contraction guarantee
    (and uniqueness) evaporates. Whether T meets the condition is a separate
    question, which ``enrichment.verify_condition`` can refute but never
    certify; the iteration runs either way.
    """
    lam = _modified_lam(b)
    trace = krasnoselskij(mapping, lam, x0, stop, norm_kind, store_iterates=store_iterates)
    try:
        with np.errstate(over="ignore"):  # an overflowed l2 norm reads inf
            residual_T = norm(evaluate(mapping, trace.final) - trace.final, norm_kind)
    except NonFiniteResult:
        residual_T = float("inf")
    return SolveResult(lam, trace, residual_T)


def apriori_iterations(lam: float, d1: float, eps: float) -> int:
    """Least n >= 0 with lam^n * d1 / (1 - lam) <= eps.

    This is the classical a-priori contraction estimate with d1 = ||x_1 - x_0||:
    after n steps the error is at most lam^n/(1-lam) * d1. Returns 0 when
    d1 = 0 (the start is already fixed). The bound is tested with no
    underflow, so any finite d1 and eps give the least count, a subnormal
    eps or a ratio d1/eps past the float range included.
    """
    lam = _as_lam(lam)
    if not (is_number(d1) and 0.0 <= as_float(d1) < math.inf):
        raise ParameterOutOfRange(f"d1 must be finite and >= 0, got {d1!r}")
    if not (is_number(eps) and eps > 0.0):
        raise ParameterOutOfRange(f"eps must be positive, got {eps!r}")
    d1, eps = float(d1), as_float(eps)
    if d1 == 0.0 or eps == math.inf:
        return 0
    # lam = m * 2**e with 0.5 <= m < 1; m**chunk >= 2**-1000 is a normal float.
    (m, e), eps_key = math.frexp(lam), math.frexp(eps)[::-1]
    chunk = int(-1000 / math.log2(m))

    def bound_ok(n: int) -> bool:
        # lam**n * d1 / (1 - lam) <= eps with each value carried as (exponent,
        # mantissa), so that nothing underflows or overflows. Where
        # lam**n >= 2**-1000 the product and quotient round as the float
        # expression's do.
        v, ve = math.frexp(d1)
        for k in [chunk] * (n // chunk) + [n % chunk]:
            v, s = math.frexp(v * m**k)
            ve += s
        v, s = math.frexp(v / (1.0 - lam))
        return (ve + s + e * n, v) <= eps_key

    if bound_ok(0):
        return 0
    # Closed form in logs, then a local fix-up against float rounding.
    n = max(0, math.ceil((math.log(eps) + math.log(1.0 - lam) - math.log(d1)) / math.log(lam)))
    while n > 0 and bound_ok(n - 1):
        n -= 1
    while not bound_ok(n):
        n += 1
    return n


def check_fixed_point(
    mapping: Mapping, x, tol: float, norm_kind: NormKind = NormKind.L2
) -> tuple[bool, float]:
    """Whether ||T(x) - x|| <= tol; returns (verdict, residual).

    Raises ParameterOutOfRange for a ``tol`` that is not a number >= 0.
    """
    if not (is_number(tol) and tol >= 0.0):
        raise ParameterOutOfRange(f"tol must be a number >= 0, got {tol!r}")
    # evaluate refuses a bad x. The step subtracts the float64 x it saw: a
    # list of Decimals converts to one but does not subtract from an array.
    residual = norm(evaluate(mapping, x) - np.asarray(x, dtype=float), norm_kind)
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


def _trace_csv(trace: IterationTrace | None) -> str:
    """The text of ``trace.csv``: the header ``iter,residual,ratio``, then one
    row per step of ``trace``; the header alone when ``trace`` is None, for a
    run that does not iterate.

    ``iter`` is 1-based; the ratio cell is empty where undefined. Floats are
    written with repr (shortest round-trip form), so identical traces give
    identical text. No cell needs CSV quoting, so the text is built as one
    string, the bytes ``csv.writer`` would write.
    """
    steps = () if trace is None else zip(trace.residuals, trace.ratios)
    return "iter,residual,ratio\n" + "".join([
        f"{i},{res!r},{'' if ratio is None else repr(ratio)}\n"
        for i, (res, ratio) in enumerate(steps, start=1)
    ])


def _without_truncation(path, flags: int) -> int:
    """``os.open`` with ``open``'s flags less ``O_TRUNC`` (see _write_artifact)."""
    return os.open(path, flags & ~os.O_TRUNC, 0o666)


def _write_artifact(path, text: str, what: str) -> None:
    """Write ``text`` to the file ``path``, replacing it: the one place the
    package writes an artifact. Raises IoError naming ``what`` and ``path``
    (``cannot write <what> <path>: <reason>``) when it cannot.

    A file that already exists is overwritten in place and then cut to the
    new text's length; nothing is fsynced, and an overwrite carries no
    crash-atomicity promise (a crash may leave old and new bytes mixed, as
    a crash after "w"'s truncation left an empty or short file). The opener
    drops ``O_TRUNC`` because on ext4 closing a file that was truncated to
    zero starts its writeback (the ``auto_da_alloc`` heuristic): replacing
    a file of the same size cost 63 us at 20 B and 340 us at 500 KB with
    "w", and 10-41 us written over and cut (medians, shared 2-core host,
    ext4). A new file costs 3-5 us more than with "w", the ``truncate``.
    """
    try:
        with open(path, "w", newline="", opener=_without_truncation) as fh:
            fh.write(text)
            fh.truncate()
    except (OSError, ValueError) as e:
        raise IoError(f"cannot write {what} {path}: {e}") from e


def write_trace_csv(trace: IterationTrace, path) -> None:
    """Write ``trace`` to ``path`` as CSV with columns iter,residual,ratio.

    ``iter`` is 1-based; the ratio cell is empty where undefined, and floats
    are written with repr, so identical traces produce byte-identical files
    (``_trace_csv`` builds the text). Raises IoError ("cannot write trace CSV
    <path>: ...") when the file cannot be written.
    """
    _write_artifact(path, _trace_csv(trace), "trace CSV")
