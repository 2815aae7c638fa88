"""Self-maps of R^d as a small tagged union.

The variants cover everything the solvers and condition checks need: affine
maps, plane rotations, box (clamping) projections, the identity, compositions,
and the linear-combination-with-identity form ``x -> alpha*x + beta*T(x)``
that carries every averaged map and enrichment shift in the package.

Mappings are plain dataclasses treated as immutable values. ``evaluate``
applies one to a single vector, ``evaluate_many`` to a batch of row vectors;
both raise ``DimensionMismatch`` on shape disagreement and ``NonFiniteResult``
if overflow produces NaN or infinity.

A node's ``children`` are the mappings it applies: none on a leaf, the base
of a linear combination, the stages of a composition. Each node fixes its
``dim`` when it is built. Every other job that walks a tree is a rule over
one walk: ``_postorder`` lists the nodes children first with an explicit
stack, and ``_fold`` applies a rule at each node to its children's values.
So evaluation, ``as_affine``, ``collapse``, ``serialize_mapping`` and ``==``
take trees of any depth. ``_KINDS`` holds each kind's JSON layout once, and
parsing, serialization and ``==`` read it. Only the parser recurses, one
frame per level, and it reports a document nested past Python's recursion
limit as a SchemaError.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, NonFiniteResult, SchemaError
from .spaces import DIM_CAP, as_matrix, as_vector, is_number


class Mapping:
    """Base class; concrete variants are the dataclasses below. Each has a
    ``dim`` and the ``children`` it applies, in order (none on a leaf)."""

    children = ()

    def __eq__(self, other):
        if type(self) is not type(other):
            return NotImplemented
        # Node by node, children first, each node's JSON fields with a None
        # per child: the order and the arities fix the shape of each tree.
        mine, theirs = _postorder(self), _postorder(other)
        return len(mine) == len(theirs) and all(
            _document(u, [None] * len(u.children)) == _document(v, [None] * len(v.children))
            for u, v in zip(mine, theirs)
        )

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
    dim = 2

    def __post_init__(self):
        self.theta = float(self.theta)
        if not math.isfinite(self.theta):
            raise InvariantViolation("theta: must be finite")

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
        self.dim = self.base.dim
        self.children = (self.base,)


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
        self.stages = self.children = stages
        self.dim = stages[0].dim


@dataclass(eq=False)
class Identity(Mapping):
    """x -> x."""

    dim: int

    def __post_init__(self):
        self.dim = int(self.dim)
        if not 1 <= self.dim <= DIM_CAP:
            raise InvariantViolation(f"dim: must be in [1, {DIM_CAP}]")


# --- the walk ---------------------------------------------------------------


def _postorder(m: Mapping) -> list:
    """The nodes of ``m``, each after its children and the children in order.

    A pre-order walk that takes the last child first, reversed; the explicit
    stack lets a tree of any depth through.
    """
    out, stack = [], [m]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(node.children)
    out.reverse()
    return out


def _fold(m: Mapping, rule):
    """The value of ``m`` under ``rule(node, kids)``, where ``kids`` lists
    the values of the node's children, in order."""
    if not m.children:  # a lone leaf, the common case: no walk
        return rule(m, [])
    values = []
    for node in _postorder(m):
        cut = len(values) - len(node.children)
        kids = values[cut:]
        del values[cut:]
        values.append(rule(node, kids))
    return values[0]


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

    The tree is folded once, here, into a flat program that runs without
    nested calls: a leaf is one function of the current value; a linear
    combination saves its input (``None``) before its base's ops and ends
    with ``(alpha, beta)``, which mixes the saved input with the base's
    image; a composition runs its stages' ops in turn. Saved inputs sit on a
    stack, so a run holds one per enclosing linear combination, not every
    intermediate value. Each node does the arithmetic of applying it
    directly, so the bits are those. A one-op program is that function itself.

    Matrices act from the right, ``x.dot(A.T)``: on a batch of rows that is
    ``xs @ A.T``, and on a 1-D ``x`` it is ``A @ x``, both bit for bit, and
    ``dot`` skips most of ``@``'s per-call overhead. The function returns a
    new array and never its argument.
    """
    ops = _fold(m, _program)
    if len(ops) == 1:
        return ops[0]
    ops = tuple(ops)

    def run(x):
        saved = []
        for op in ops:
            if op is None:
                saved.append(x)
            elif type(op) is tuple:
                x = op[0] * saved.pop() + op[1] * x
            else:
                x = op(x)
        return x

    return run


def _program(node: Mapping, kids: list) -> deque:
    """``_compile``'s rule: the ops that apply ``node``."""
    match node:
        case Identity():
            return deque([lambda x: x.copy()])
        case Affine(matrix=A, offset=c):
            At = A.T
            return deque([lambda x: x.dot(At) + c])
        case Rotation():
            Rt = node.matrix().T
            return deque([lambda x: x.dot(Rt)])
        case BoxProjection(lo=lo, hi=hi):
            return deque([lambda x: np.clip(x, lo, hi)])
        case LinearCombinationWithIdentity(alpha=a, beta=b):
            ops = kids[0]  # the children's deques are this fold's own to extend
            ops.appendleft(None)
            ops.append((a, b))
            return ops
        case Composition():
            ops = kids[0]
            for more in kids[1:]:
                ops.extend(more)
            return ops
    raise TypeError(f"not a Mapping: {node!r}")


def as_affine(m: Mapping) -> tuple[np.ndarray, np.ndarray] | None:
    """Exact affine normal form (A, c) with m(x) = A @ x + c, or None.

    Defined for Affine, Rotation, Identity, linear combinations over an
    affine-representable base, and compositions of affine-representable
    stages. Box projections have no affine form. A fold that overflows
    returns its inf and nan entries without a numpy warning; callers check
    the form for finiteness.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _fold(m, _affine_form)


def _affine_form(node: Mapping, kids: list) -> tuple[np.ndarray, np.ndarray] | None:
    """``as_affine``'s rule."""
    match node:
        case Identity(dim=d):
            return np.eye(d), np.zeros(d)
        case Affine(matrix=A, offset=c):
            return A.copy(), c.copy()
        case Rotation():
            return node.matrix(), np.zeros(2)
        case BoxProjection():
            return None
        case _ if None in kids:  # a node above a box projection
            return None
        case LinearCombinationWithIdentity(alpha=a, beta=b):
            A, c = kids[0]
            return a * np.eye(node.dim) + b * A, b * c
        case Composition():
            A = np.eye(node.dim)
            c = np.zeros(node.dim)
            for As, cs in kids:
                A = As @ A
                c = As @ c + cs
            return A, c
    raise TypeError(f"not a Mapping: {node!r}")


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
    return _fold(m, _collapsed)


def _collapsed(node: Mapping, kids: list) -> Mapping:
    """``collapse``'s rule."""
    match node:
        case Rotation():
            return _folded(node) or node
        case LinearCombinationWithIdentity(alpha=a, beta=b):
            new = LinearCombinationWithIdentity(a, b, kids[0])
            if isinstance(kids[0], (Affine, Identity)):
                return _folded(new) or new
            return new
        case Composition():
            out, run = [], []
            for s in kids:
                if isinstance(s, (Affine, Identity)):
                    run.append(s)
                    continue
                out += _folded_run(run)
                out.append(s)
                run = []
            out += _folded_run(run)
            return out[0] if len(out) == 1 else Composition(tuple(out))
    return node


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
#
# Each JSON field is the attribute of the same name; ``_KINDS`` (below the
# field parsers it names) maps each kind to its class and its fields, in
# order, with the parser of each.


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
    if kind not in _KINDS:
        raise SchemaError(f"{path}.kind: unknown mapping kind {kind!r}")
    cls, parsers = _KINDS[kind]
    missing = parsers.keys() - doc.keys()
    if missing:
        raise SchemaError(f"{path}.{sorted(missing)[0]}: missing field")
    extra = doc.keys() - parsers.keys() - {"kind"}
    if extra:
        raise SchemaError(f"{path}.{sorted(extra)[0]}: unexpected field for kind {kind!r}")

    fields = {}
    try:
        # A plain loop, not a comprehension: one stack frame per nesting level.
        for name, parse in parsers.items():
            fields[name] = parse(doc[name], f"{path}.{name}")
        return cls(**fields)
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


def _int(v, path: str) -> int:
    if not isinstance(v, int) or isinstance(v, bool):
        raise SchemaError(f"{path}: expected an integer")
    return v


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


def _stages(v, path: str) -> tuple:
    if not isinstance(v, list):
        raise SchemaError(f"{path}: expected an array")
    stages = []
    for i, s in enumerate(v):
        stages.append(_parse(s, f"{path}[{i}]"))
    return tuple(stages)


_KINDS = {
    "affine": (Affine, {"matrix": _num_rows, "offset": _num_list}),
    "rotation": (Rotation, {"theta": _num}),
    "box_projection": (BoxProjection, {"lo": _num_list, "hi": _num_list}),
    "lincomb": (LinearCombinationWithIdentity, {"alpha": _num, "beta": _num, "base": _parse}),
    "composition": (Composition, {"stages": _stages}),
    "identity": (Identity, {"dim": _int}),
}
_KIND_OF = {cls: kind for kind, (cls, _) in _KINDS.items()}


def serialize_mapping(m: Mapping) -> dict:
    """Inverse of parse_mapping, producing plain JSON-ready values."""
    return _fold(m, _document)


def _document(node: Mapping, kids: list) -> dict:
    """``serialize_mapping``'s rule: the node's JSON fields, with ``kids`` in
    the field that holds its children."""
    kind = _KIND_OF[type(node)]
    doc = {"kind": kind}
    for name in _KINDS[kind][1]:
        v = getattr(node, name)
        if isinstance(v, np.ndarray):
            v = v.tolist()
        elif isinstance(v, Mapping):
            v = kids[0]
        elif isinstance(v, tuple):
            v = kids
        doc[name] = v
    return doc
