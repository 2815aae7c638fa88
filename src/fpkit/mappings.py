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
So evaluation, ``as_affine``, ``collapse``, ``piece_at``,
``serialize_mapping``, ``==`` and ``repr`` take trees of any depth.

How a composition orders its stages and how a linear combination mixes is
said once, by ``_program``: its fold is the tree's flat program, the leaves
in the order they act, with ``None`` before a linear combination's base
(save the input) and ``(alpha, beta)`` after it (mix). ``_compile`` turns
that list into the evaluator, and ``_walk`` carries the value, the linear
part and the offset along it: ``as_affine`` is the walk with no point, and
``piece_at(m, x)`` the walk at ``x``, which returns the affine piece of a
box tree there and the margin within which it holds.

``_KINDS`` holds each kind's JSON layout once, and parsing, serialization
and ``==`` read it. Only the parser recurses, one frame per level, and it
reports a document nested past Python's recursion limit as a SchemaError.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatch, InvariantViolation, NonFiniteResult, SchemaError
from .spaces import DIM_CAP, _float_array, as_float, as_matrix, as_vector, is_integer, is_number


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

    def __repr__(self):
        # The dataclass form, e.g. ``Composition(stages=(Identity(dim=1),))``.
        return "".join(_fold(self, _repr_tokens))


@dataclass(eq=False, repr=False)
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


@dataclass(eq=False, repr=False)
class Rotation(Mapping):
    """Rotation of the plane by ``theta`` radians. Two dimensions only."""

    theta: float
    dim = 2

    def __post_init__(self):
        self.theta = _real(self.theta, "theta")

    def matrix(self) -> np.ndarray:
        c, s = math.cos(self.theta), math.sin(self.theta)
        return np.array([[c, -s], [s, c]])


@dataclass(eq=False, repr=False)
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


@dataclass(eq=False, repr=False)
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
        self.alpha = _real(self.alpha, "alpha")
        self.beta = _real(self.beta, "beta")
        if not isinstance(self.base, Mapping):
            raise InvariantViolation("base: expected a Mapping")
        self.dim = self.base.dim
        self.children = (self.base,)


@dataclass(eq=False, repr=False)
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


@dataclass(eq=False, repr=False)
class Identity(Mapping):
    """x -> x."""

    dim: int

    def __post_init__(self):
        if not is_integer(self.dim):
            raise InvariantViolation(f"dim: expected an integer, got {self.dim!r}")
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


def _repr_tokens(node: Mapping, kids: list) -> deque:
    """``__repr__``'s rule: the node's dataclass form as a deque of strings.

    The first child's deque is extended in place at both ends, as
    ``_program`` extends its first child's steps, so a chain of any depth
    costs time in proportion to its length.
    """
    tokens = [f"{type(node).__name__}("]  # with None where a child goes
    for i, f in enumerate(fields(node)):
        v = getattr(node, f.name)
        tokens.append(f"{', ' if i else ''}{f.name}=")
        if isinstance(v, tuple):
            tokens += ["(", *[None, ", "] * len(v)]
            tokens[-1] = ",)" if len(v) == 1 else ")"
        else:
            tokens.append(None if isinstance(v, Mapping) else repr(v))
    tokens.append(")")
    if not kids:
        return deque(tokens)
    cut = tokens.index(None)
    out, rest = kids[0], iter(kids[1:])
    out.extendleft(reversed(tokens[:cut]))
    for t in tokens[cut + 1:]:
        out.extend(next(rest) if t is None else (t,))
    return out


def evaluate(mapping: Mapping, x) -> np.ndarray:
    """Apply ``mapping`` to one vector."""
    x = _as_point(mapping, x, "x")
    return _finite(_compile(mapping), x)


def _as_point(mapping: Mapping, x, name: str) -> np.ndarray:
    """``x`` as a finite float vector of the mapping's dimension, through
    ``as_vector``; DimensionMismatch naming ``name`` when the sizes differ."""
    x = as_vector(x, name=name)
    if x.size != mapping.dim:
        raise DimensionMismatch(
            f"{name}: dimension {x.size} does not match mapping dimension {mapping.dim}"
        )
    return x


def evaluate_many(mapping: Mapping, xs) -> np.ndarray:
    """Apply ``mapping`` to each row of ``xs`` (shape (n, d)).

    A batch that is not an array of finite numbers is an InvariantViolation
    naming ``xs``, as ``as_vector`` names ``x`` for ``evaluate``.
    """
    xs = _float_array(xs, "xs")
    if xs.ndim != 2 or xs.shape[1] != mapping.dim:
        raise DimensionMismatch(
            f"mapping of dimension {mapping.dim} applied to batch of shape {xs.shape}"
        )
    if not np.isfinite(xs).all():
        raise InvariantViolation("xs: entries must be finite")
    return _finite(_compile(mapping), xs)


def _finite(f, x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore", invalid="ignore"):
        y = f(x)
    if not np.isfinite(y).all():
        raise NonFiniteResult("mapping evaluation overflowed to a non-finite vector")
    return y


def _compile(m: Mapping):
    """One function that applies ``m`` to a vector, or to each row of a batch.

    It reads the tree's flat program (``_program``) once and runs without
    nested calls. Each leaf becomes one op, a function of the current value.
    A save, a run of leaf ops and its mix (a linear combination whose base is
    a leaf, or a composition of leaves) become one fused op, which applies
    the run and then mixes. Any other save (``None``) and mix ``(alpha,
    beta)`` stay: the save stacks the current value and the mix combines it
    with the base's image. A fused op is never fused again, so no op calls
    another, and a run holds one saved input per enclosing linear
    combination, not every intermediate value. A one-op program is that op
    itself.

    Each op does the arithmetic of applying its node directly, so the bits are
    those. A mix is ``alpha * x + beta * y`` with the coefficients held as 0-d
    arrays, which numpy multiplies faster than Python floats. Matrices act from
    the right, ``x.dot(A.T)``: on a batch of rows that is ``xs @ A.T``, and on
    a 1-D ``x`` it is ``A @ x``, both bit for bit, and ``dot`` skips most of
    ``@``'s per-call overhead. A box is ``x.clip``, the method ``np.clip``
    dispatches to.

    The function takes an optional ``out``, a C-contiguous array of the
    image's shape that does not overlap ``x``: the last op writes the image
    there and returns it. Without ``out`` it returns a new array. It never
    returns or changes its argument.
    """
    ops, saves = [], []
    for step in _fold(m, _program):
        if step is None:
            latest = len(ops)  # a mix that pops the latest save has only leaf ops in its base
            saves.append(latest)
            ops.append(None)
        elif type(step) is tuple:
            start, (a, b) = saves.pop(), map(np.array, step)
            if start == latest:
                ops[start:] = [_fused(ops[start + 1:], a, b)]
            else:
                ops.append((a, b))
        else:
            ops.append(_op(step))
    if len(ops) == 1:
        return ops[0]
    *body, last = ops

    def run(x, out=None):
        saved = []
        for op in body:
            if op is None:
                saved.append(x)
            elif type(op) is tuple:
                x = np.add(op[0] * saved.pop(), op[1] * x)
            else:
                x = op(x)
        if type(last) is tuple:
            return np.add(last[0] * saved.pop(), last[1] * x, out)
        return last(x, out)

    return run


def _program(node: Mapping, kids: list) -> deque:
    """The flat program of ``node``, the one encoding of how a tree combines
    its children: its leaves in the order they act, with ``None`` before a
    linear combination's base (save the input) and ``(alpha, beta)`` after
    it (mix the saved input with the base's image)."""
    match node:
        case LinearCombinationWithIdentity(alpha=a, beta=b):
            steps = kids[0]  # the children's deques are this fold's own to extend
            steps.appendleft(None)
            steps.append((a, b))
            return steps
        case Composition():
            steps = kids[0]
            for more in kids[1:]:
                steps.extend(more)
            return steps
    return deque([node])


def _op(leaf: Mapping):
    """The op that applies one leaf."""
    match leaf:
        case Identity():
            return _copy
        case Affine(matrix=A, offset=c):
            return _affine(A.T, c)
        case Rotation():
            Rt = leaf.matrix().T
            return lambda x, out=None: x.dot(Rt, out)
        case BoxProjection(lo=lo, hi=hi):
            return lambda x, out=None: x.clip(lo, hi, out)
    raise TypeError(f"not a Mapping: {leaf!r}")


def _copy(x, out=None):
    if out is None:
        return x.copy()
    out[...] = x
    return out


def _affine(At: np.ndarray, c: np.ndarray):
    """The op ``x -> x.dot(At) + c``: ``dot`` writes to ``out`` and ``c`` is
    added in place, at every d. Writing the sum to ``out`` with ``np.add``
    costs about 0.13-0.3 us more per step at d = 2 to 64 (``BENCH_14.json``,
    ``affine_leaf_forms``); a 1-d ``Affine`` that picard iterates steps in
    Python floats instead (``iteration._block_filler``)."""

    def affine(x, out=None):
        y = x.dot(At, out)
        y += c
        return y

    return affine


def _fused(run, alpha: np.ndarray, beta: np.ndarray):
    """One op for ``x -> alpha*x + beta*run(x)``, ``run`` a list of leaf ops."""

    def fused(x, out=None):
        y = x
        for op in run:
            y = op(y)
        return np.add(alpha * x, beta * y, out)

    return fused


def _walk(m: Mapping, x):
    """One forward pass over ``m``'s flat program that carries the value at
    ``x``, the form ``(A, c)`` of the map so far (the value is ``A @ x + c``)
    and the margin. Returns ``(value, A, c, margin)``.

    With ``x`` None there is no value, and a box projection ends the walk
    with None. The form starts as None, the identity; the first affine leaf
    starts it with copies of its arrays, and a mix over no earlier leaf
    takes ``alpha * eye`` and the base's offset times ``beta``, so a leaf, a
    root composition of leaves and a linear combination over leaves fold
    with no product by ``eye``. A leaf's matrix multiplies the form from the
    left, and a mix combines the saved form with the base's, so a subtree
    after other stages is folded into them leaf by leaf, not on its own.

    At ``x`` a box gives ``diag(free)`` and its clamped values, where
    ``free`` marks the coordinates of its input z strictly inside the bounds
    (a tie counts as clamped). It bounds the margin by
    ``dist(z, bounds) / ||J_z||_inf``, J_z the linear part up to the box; a
    box whose input does not move (J_z = 0) bounds nothing.
    """
    value, form, margin, saved = x, None, math.inf, []
    for step in _fold(m, _program):
        match step:
            case None:
                saved.append((value, form))
            case (a, b):
                (z, before), (A, c) = saved.pop(), form or _identity(m.dim)
                A0, c0 = before or _identity(m.dim)
                form = a * A0 + b * A, (b * c if before is None else a * c0 + b * c)
                value = None if x is None else a * z + b * value
            case Affine() | Rotation():
                L, o = (step.matrix, step.offset) if type(step) is Affine else (step.matrix(), np.zeros(2))
                form = (L.copy(), o.copy()) if form is None else (L @ form[0], L @ form[1] + o)
                value = None if x is None else _op(step)(value)
            case BoxProjection(lo=lo, hi=hi):
                if x is None:
                    return None
                (J, c), z, value = form or _identity(m.dim), value, _op(step)(value)
                if not np.isfinite(z).all():  # only a box turns an overflow finite again
                    raise NonFiniteResult("mapping piece overflowed to non-finite entries")
                free = (lo < z) & (z < hi)
                reach = np.abs(J).sum(axis=1).max()  # ||J_z||_inf; NaN from an overflow is kept
                if reach:
                    margin = np.minimum(margin, np.minimum(abs(z - lo), abs(hi - z)).min() / reach)
                form = np.where(free[:, None], J, 0.0), np.where(free, c, value)
    return value, *(form or _identity(m.dim)), margin


def _identity(d: int) -> tuple[np.ndarray, np.ndarray]:
    """The form (A, c) of the identity of R^d, which a walk's form is until
    its first affine leaf."""
    return np.eye(d), np.zeros(d)


def as_affine(m: Mapping) -> tuple[np.ndarray, np.ndarray] | None:
    """Exact affine normal form (A, c) with m(x) = A @ x + c, or None.

    Defined for Affine, Rotation, Identity, linear combinations over an
    affine-representable base, and compositions of affine-representable
    stages: ``_walk`` with no point. Box projections have no affine form. A
    fold that overflows returns its inf and nan entries without a numpy
    warning; callers check the form for finiteness. The arrays returned are
    the caller's own.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        walked = _walk(m, None)
    return None if walked is None else walked[1:3]


def piece_at(m: Mapping, x) -> tuple[np.ndarray, np.ndarray, float]:
    """The affine piece of ``m`` at ``x``: ``(A, c, margin)`` with
    ``m(y) = A @ y + c`` for every y with ``||y - x||_inf < margin``, and so
    in l1 and l2 too (``_walk`` at ``x``).

    ``margin`` is the least ``dist(z, bounds) / ||J_z||_inf`` over the box
    projections, z a box's input and J_z the linear part up to it: 0 when a
    box input lies on a bound, inf on a tree with no box. On a box-free tree
    ``(A, c)`` is ``as_affine(m)`` bit for bit. Raises DimensionMismatch
    naming ``x`` on a wrong-size point, and NonFiniteResult when the map or
    its piece overflows at ``x``, a box's input or margin included. The
    arrays returned are the caller's own.
    """
    x = _as_point(m, x, "x")
    with np.errstate(over="ignore", invalid="ignore"):
        value, A, c, margin = _walk(m, x)
    if not (np.isfinite(value).all() and np.isfinite(A).all() and np.isfinite(c).all() and margin >= 0):
        raise NonFiniteResult("mapping piece overflowed to non-finite entries")
    return A, c, float(margin)


def collapse(m: Mapping) -> Mapping:
    """``m`` as one ``Affine`` when the whole map is affine, else ``m`` itself.

    A lone ``Affine`` or ``Identity`` is returned as it is. Any other tree
    with a finite ``as_affine`` form becomes ``Affine(*as_affine(m))``, so an
    averaged affine map costs one matrix-vector product per step instead of
    one per node, and its last bits may differ from the tree's. A tree with a
    box projection anywhere, or whose fold overflows, is returned unchanged:
    no affine part of it is folded on its own.

    The fold's arrays are float64 and its own, so ``Affine`` takes them
    without a copy.
    """
    if isinstance(m, (Affine, Identity)):
        return m
    form = as_affine(m)
    if form is None:
        return m
    try:
        return Affine(*form)  # refuses non-finite entries
    except InvariantViolation:
        return m


def line_map(slope: float, intercept: float) -> Affine:
    """1-D affine convenience: x -> slope*x + intercept."""
    return Affine(np.array([[_real(slope, "slope")]]), np.array([_real(intercept, "intercept")]))


def scaling_map(factor: float, dim: int = 1) -> Affine:
    """x -> factor*x on R^dim."""
    factor = _real(factor, "factor")
    if not is_integer(dim) or not 1 <= dim <= DIM_CAP:
        raise InvariantViolation(f"dim: must be an integer in [1, {DIM_CAP}], got {dim!r}")
    return Affine(factor * np.eye(dim), np.zeros(dim))


def _real(v, name: str) -> float:
    """``v`` as a float; InvariantViolation naming the field unless it is a
    finite real number."""
    if not is_number(v):
        raise InvariantViolation(f"{name}: expected a number, got {v!r}")
    return _finite_float(v, name)


def _finite_float(v, name: str) -> float:
    """The real number ``v`` as a float; InvariantViolation naming the field
    unless it is finite, which an integer past the float range is not."""
    f = as_float(v)
    if not math.isfinite(f):
        raise InvariantViolation(f"{name}: must be finite")
    return f


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
    return _finite_float(v, path)


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
