"""Self-maps of R^d as a small tagged union.

The variants cover everything the solvers and condition checks need: affine
maps, plane rotations, box (clamping) projections, the identity, compositions,
and the linear-combination-with-identity form ``x -> alpha*x + beta*T(x)``
that carries every averaged map and enrichment shift in the package.

Mappings are plain dataclasses treated as immutable values. ``evaluate``
applies one to a single vector, ``evaluate_many`` to a batch of row vectors;
both raise ``DimensionMismatch`` on shape disagreement and ``NonFiniteResult``
if overflow produces NaN or infinity.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, NonFiniteResult, SchemaError
from .spaces import DIM_CAP, as_matrix, as_vector, is_number


class Mapping:
    """Base class; concrete variants are the dataclasses below."""

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        for f in dataclasses.fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if isinstance(a, np.ndarray):
                if not np.array_equal(a, b):
                    return False
            elif isinstance(a, tuple):
                if len(a) != len(b) or any(u != v for u, v in zip(a, b)):
                    return False
            elif a != b:
                return False
        return True

    __hash__ = None  # mutable-ish payloads; not meant for dict keys


@dataclass(eq=False)
class Affine(Mapping):
    """x -> matrix @ x + offset."""

    matrix: np.ndarray
    offset: np.ndarray

    def __post_init__(self):
        self.matrix = as_matrix(self.matrix, name="matrix")
        self.offset = as_vector(self.offset, name="offset")
        if self.offset.size != self.matrix.shape[0]:
            raise InvariantViolation(
                f"offset: length {self.offset.size} does not match matrix dimension {self.matrix.shape[0]}"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(eq=False)
class Rotation(Mapping):
    """Rotation of the plane by ``theta`` radians. Two dimensions only."""

    theta: float

    def __post_init__(self):
        self.theta = float(self.theta)
        if not math.isfinite(self.theta):
            raise InvariantViolation("theta: must be finite")

    @property
    def dim(self) -> int:
        return 2

    def matrix(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, -s], [s, c]])


@dataclass(eq=False)
class BoxProjection(Mapping):
    """Componentwise clamp onto the box [lo, hi]. Nonexpansive in every norm here."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        self.lo = as_vector(self.lo, name="lo")
        self.hi = as_vector(self.hi, name="hi")
        if self.lo.size != self.hi.size:
            raise InvariantViolation("lo/hi: bounds must have equal length")
        if np.any(self.lo > self.hi):
            raise InvariantViolation("lo: every component must satisfy lo <= hi")

    @property
    def dim(self) -> int:
        return self.lo.size


@dataclass(eq=False)
class LinearCombinationWithIdentity(Mapping):
    """x -> alpha*x + beta*base(x).

    This single form carries the whole reduction toolkit: the averaged map
    uses (alpha, beta) = (1-lambda, lambda), the nonexpansive reduction of a
    b-enriched map uses (b/(b+1), 1/(b+1)), and the modified shift uses (b, 1).
    """

    alpha: float
    beta: float
    base: Mapping

    def __post_init__(self):
        self.alpha = float(self.alpha)
        self.beta = float(self.beta)
        if not (math.isfinite(self.alpha) and math.isfinite(self.beta)):
            raise InvariantViolation("alpha: coefficients must be finite")
        if not isinstance(self.base, Mapping):
            raise InvariantViolation("base: expected a Mapping")

    @property
    def dim(self) -> int:
        return self.base.dim


@dataclass(eq=False)
class Composition(Mapping):
    """Pipeline of self-maps, applied first-to-last: stages[0] acts first."""

    stages: tuple

    def __post_init__(self):
        stages = tuple(self.stages)
        if not stages:
            raise InvariantViolation("stages: must not be empty")
        for i, s in enumerate(stages):
            if not isinstance(s, Mapping):
                raise InvariantViolation(f"stages[{i}]: expected a Mapping")
            if s.dim != stages[0].dim:
                raise InvariantViolation(
                    f"stages[{i}]: dimension {s.dim} differs from stages[0] dimension {stages[0].dim}"
                )
        self.stages = stages

    @property
    def dim(self) -> int:
        return self.stages[0].dim


@dataclass(eq=False)
class Identity(Mapping):
    """x -> x."""

    dimension: int

    def __post_init__(self):
        self.dimension = int(self.dimension)
        if not 1 <= self.dimension <= DIM_CAP:
            raise InvariantViolation(f"dim: must be in [1, {DIM_CAP}]")

    @property
    def dim(self) -> int:
        return self.dimension


def evaluate(mapping: Mapping, x) -> np.ndarray:
    """Apply ``mapping`` to one vector."""
    x = as_vector(x, name="x")
    if x.size != mapping.dim:
        raise DimensionMismatch(
            f"mapping of dimension {mapping.dim} applied to vector of dimension {x.size}"
        )
    return _finite(_compile(mapping), x)


def evaluate_many(mapping: Mapping, xs) -> np.ndarray:
    """Apply ``mapping`` to each row of ``xs`` (shape (n, d))."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != mapping.dim:
        raise DimensionMismatch(
            f"mapping of dimension {mapping.dim} applied to batch of shape {xs.shape}"
        )
    return _finite(_compile(mapping), xs)


def _finite(f, x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        y = f(x)
    if not np.all(np.isfinite(y)):
        raise NonFiniteResult("mapping evaluation overflowed to a non-finite vector")
    return y


def _compile(m: Mapping):
    """One function that applies ``m`` to a vector, or to each row of a batch.

    The tree is walked once, here, not on every call. Matrices act from the
    right, ``x.dot(A.T)``: on a batch of rows that is ``xs @ A.T``, and on a
    1-D ``x`` it is ``A @ x``, both bit for bit, and ``dot`` skips most of
    ``@``'s per-call overhead. The function returns a new array and never
    its argument.
    """
    match m:
        case Identity():
            return lambda x: x.copy()
        case Affine(matrix=A, offset=c):
            At = A.T
            return lambda x: x.dot(At) + c
        case Rotation():
            Rt = m.matrix().T
            return lambda x: x.dot(Rt)
        case BoxProjection(lo=lo, hi=hi):
            return lambda x: np.clip(x, lo, hi)
        case LinearCombinationWithIdentity(alpha=a, beta=b, base=base):
            f = _compile(base)
            return lambda x: a * x + b * f(x)
        case Composition(stages=stages):
            fs = tuple(map(_compile, stages))

            def composed(x):
                for f in fs:
                    x = f(x)
                return x

            return composed
    raise TypeError(f"not a Mapping: {m!r}")


def as_affine(m: Mapping) -> tuple[np.ndarray, np.ndarray] | None:
    """Exact affine normal form (A, c) with m(x) = A @ x + c, or None.

    Defined for Affine, Rotation, Identity, linear combinations over an
    affine-representable base, and compositions of affine-representable
    stages. Box projections have no affine form. A fold that overflows
    returns its inf and nan entries without a numpy warning; callers check
    the form for finiteness.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _as_affine(m)


def _as_affine(m: Mapping) -> tuple[np.ndarray, np.ndarray] | None:
    match m:
        case Identity():
            return np.eye(m.dim), np.zeros(m.dim)
        case Affine(matrix=A, offset=c):
            return A.copy(), c.copy()
        case Rotation():
            return m.matrix(), np.zeros(2)
        case BoxProjection():
            return None
        case LinearCombinationWithIdentity(alpha=a, beta=b, base=base):
            inner = _as_affine(base)
            if inner is None:
                return None
            A, c = inner
            return a * np.eye(m.dim) + b * A, b * c
        case Composition(stages=stages):
            A = np.eye(m.dim)
            c = np.zeros(m.dim)
            for s in stages:
                inner = _as_affine(s)
                if inner is None:
                    return None
                As, cs = inner
                A = As @ A
                c = As @ c + cs
            return A, c
    raise TypeError(f"not a Mapping: {m!r}")


def collapse(m: Mapping) -> Mapping:
    """An equivalent tree in which each maximal affine-representable subtree is one Affine.

    One bottom-up pass: children are collapsed first, and a rotation, or a
    linear combination over a base that collapsed to an ``Affine`` or
    ``Identity``, is folded through ``as_affine``. In a composition each run
    of two or more adjacent foldable stages becomes one stage. Box
    projections, and the nodes above them, keep their shape with collapsed
    children. A lone ``Affine`` or ``Identity`` is returned as it is.

    A fold whose matrix or offset overflows is not taken: that subtree keeps
    its shape. Wherever the tree's arithmetic stays finite, the result maps
    each input to the tree's image up to rounding: a fold applies one
    matrix-vector product instead of one per node, so its last bits may
    differ.
    """
    match m:
        case Rotation():
            return _folded(m) or m
        case LinearCombinationWithIdentity(alpha=a, beta=b, base=base):
            node = LinearCombinationWithIdentity(a, b, collapse(base))
            if isinstance(node.base, (Affine, Identity)):
                return _folded(node) or node
            return node
        case Composition(stages=stages):
            out, run = [], []
            for s in map(collapse, stages):
                if isinstance(s, (Affine, Identity)):
                    run.append(s)
                    continue
                out += _folded_run(run)
                out.append(s)
                run = []
            out += _folded_run(run)
            return out[0] if len(out) == 1 else Composition(tuple(out))
    return m


def _folded(m: Mapping) -> Affine | None:
    """``Affine(*as_affine(m))``, or None when that form is not finite."""
    A, c = as_affine(m)
    try:
        return Affine(A, c)  # refuses non-finite entries
    except InvariantViolation:
        return None


def _folded_run(run: list) -> list:
    """Adjacent composition stages as one folded stage, or as they are."""
    folded = _folded(Composition(tuple(run))) if len(run) > 1 else None
    return run if folded is None else [folded]


def line_map(slope: float, intercept: float) -> Affine:
    """1-D affine convenience: x -> slope*x + intercept."""
    return Affine(np.array([[float(slope)]]), np.array([float(intercept)]))


def scaling_map(factor: float, dim: int = 1) -> Affine:
    """x -> factor*x on R^dim."""
    return Affine(float(factor) * np.eye(dim), np.zeros(dim))


# --- JSON layout ------------------------------------------------------------
#
# {"kind": "affine", "matrix": [[...], ...], "offset": [...]}
# {"kind": "rotation", "theta": 1.5707963267948966}
# {"kind": "box_projection", "lo": [...], "hi": [...]}
# {"kind": "lincomb", "alpha": 0.75, "beta": 0.25, "base": {...}}
# {"kind": "composition", "stages": [{...}, ...]}
# {"kind": "identity", "dim": 2}

_FIELDS = {
    "affine": {"matrix", "offset"},
    "rotation": {"theta"},
    "box_projection": {"lo", "hi"},
    "lincomb": {"alpha", "beta", "base"},
    "composition": {"stages"},
    "identity": {"dim"},
}


def parse_mapping(doc) -> Mapping:
    """Build a Mapping from a JSON-shaped document.

    Raises SchemaError for layout problems (unknown kind, missing or
    unexpected fields, wrong JSON types) and InvariantViolation for value
    problems (non-finite numbers, lo > hi, mixed dimensions). Messages carry
    the path of the offending node, e.g. ``$.stages[1].matrix``. A document
    nested past Python's recursion limit is a SchemaError too.
    """
    try:
        return _parse(doc, "$")
    except RecursionError:
        raise SchemaError("$: nested too deeply") from None


def _parse(doc, path: str) -> Mapping:
    if not isinstance(doc, dict):
        raise SchemaError(f"{path}: expected an object, got {type(doc).__name__}")
    if "kind" not in doc:
        raise SchemaError(f"{path}.kind: missing field")
    kind = doc["kind"]
    if kind not in _FIELDS:
        raise SchemaError(f"{path}.kind: unknown mapping kind {kind!r}")
    expected = _FIELDS[kind]
    missing = expected - doc.keys()
    if missing:
        raise SchemaError(f"{path}.{sorted(missing)[0]}: missing field")
    extra = doc.keys() - expected - {"kind"}
    if extra:
        raise SchemaError(f"{path}.{sorted(extra)[0]}: unexpected field for kind {kind!r}")

    try:
        if kind == "affine":
            return Affine(
                _num_rows(doc["matrix"], f"{path}.matrix"),
                _num_list(doc["offset"], f"{path}.offset"),
            )
        if kind == "rotation":
            return Rotation(_num(doc["theta"], f"{path}.theta"))
        if kind == "box_projection":
            return BoxProjection(
                _num_list(doc["lo"], f"{path}.lo"),
                _num_list(doc["hi"], f"{path}.hi"),
            )
        if kind == "lincomb":
            return LinearCombinationWithIdentity(
                _num(doc["alpha"], f"{path}.alpha"),
                _num(doc["beta"], f"{path}.beta"),
                _parse(doc["base"], f"{path}.base"),
            )
        if kind == "composition":
            stages = doc["stages"]
            if not isinstance(stages, list):
                raise SchemaError(f"{path}.stages: expected an array")
            return Composition(
                tuple(_parse(s, f"{path}.stages[{i}]") for i, s in enumerate(stages))
            )
        if not isinstance(doc["dim"], int) or isinstance(doc["dim"], bool):
            raise SchemaError(f"{path}.dim: expected an integer")
        return Identity(doc["dim"])
    except InvariantViolation as e:
        msg = str(e)
        if msg.startswith("$"):  # already carries a path from a nested parse
            raise
        raise InvariantViolation(f"{path}.{msg}" if ":" in msg else f"{path}: {msg}") from e


def _num(v, path: str) -> float:
    if not is_number(v):
        raise SchemaError(f"{path}: expected a number")
    if not math.isfinite(v):
        raise InvariantViolation(f"{path}: must be finite")
    return float(v)


def _num_list(v, path: str) -> list[float]:
    if not isinstance(v, list) or not v:
        raise SchemaError(f"{path}: expected a non-empty array of numbers")
    return [_num(e, f"{path}[{i}]") for i, e in enumerate(v)]


def _num_rows(v, path: str) -> list[list[float]]:
    if not isinstance(v, list) or not v:
        raise SchemaError(f"{path}: expected a non-empty array of rows")
    rows = [_num_list(r, f"{path}[{i}]") for i, r in enumerate(v)]
    if any(len(r) != len(rows) for r in rows):
        raise InvariantViolation(f"{path}: matrix must be square")
    return rows


def serialize_mapping(m: Mapping) -> dict:
    """Inverse of parse_mapping, producing plain JSON-ready values."""
    match m:
        case Identity():
            return {"kind": "identity", "dim": m.dim}
        case Affine(matrix=A, offset=c):
            return {"kind": "affine", "matrix": A.tolist(), "offset": c.tolist()}
        case Rotation(theta=t):
            return {"kind": "rotation", "theta": t}
        case BoxProjection(lo=lo, hi=hi):
            return {"kind": "box_projection", "lo": lo.tolist(), "hi": hi.tolist()}
        case LinearCombinationWithIdentity(alpha=a, beta=b, base=base):
            return {"kind": "lincomb", "alpha": a, "beta": b, "base": serialize_mapping(base)}
        case Composition(stages=stages):
            return {"kind": "composition", "stages": [serialize_mapping(s) for s in stages]}
    raise TypeError(f"not a Mapping: {m!r}")
