import math
import warnings
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpkit as fp
from fpkit.errors import ConfigError, DimensionMismatch, InvariantViolation, NonFiniteResult, SchemaError

T_LINE = fp.line_map(-2.0, 100.0)  # x -> 100 - 2x


def test_evaluate_line_map():
    np.testing.assert_array_equal(fp.evaluate(T_LINE, [10.0]), [80.0])


def test_evaluate_rotation_quarter_turn():
    out = fp.evaluate(fp.Rotation(math.pi / 2), [1.0, 0.0])
    np.testing.assert_allclose(out, [0.0, 1.0], atol=1e-15)


def test_evaluate_composition_applies_first_stage_first():
    twice = fp.Composition((T_LINE, T_LINE))
    np.testing.assert_array_equal(fp.evaluate(twice, [10.0]), [-60.0])


def test_evaluate_identity_and_box():
    assert fp.evaluate(fp.Identity(2), [3.0, -1.0]).tolist() == [3.0, -1.0]
    box = fp.BoxProjection([0.0, 0.0], [1.0, 1.0])
    assert fp.evaluate(box, [2.0, -0.5]).tolist() == [1.0, 0.0]


def test_evaluate_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fp.evaluate(T_LINE, [1.0, 2.0])
    with pytest.raises(DimensionMismatch, match=r"of dimension 2 applied to batch of shape \(3, 3\)"):
        fp.evaluate_many(fp.Identity(2), np.zeros((3, 3)))


def test_evaluate_overflow_is_flagged():
    blowup = fp.Affine([[1e308]], [0.0])
    with pytest.raises(NonFiniteResult):
        fp.evaluate(blowup, [10.0])


def test_evaluate_many_matches_single_evaluation():
    rng = np.random.default_rng(17)
    for m in (T_LINE, fp.Rotation(0.3), fp.averaged(fp.Affine(rng.normal(size=(3, 3)), rng.normal(size=3)), 0.5)):
        xs = rng.uniform(-20.0, 20.0, (200, m.dim))
        single = np.array([fp.evaluate(m, x) for x in xs])
        np.testing.assert_allclose(fp.evaluate_many(m, xs), single, atol=1e-13)


@pytest.mark.parametrize("d", [1, 2, 3, 8, 17, 64])
def test_evaluator_matches_the_matrix_formulas_bit_for_bit(d):
    # One compiled evaluator serves vectors and batches; each tree gives
    # exactly the products written out node by node: A @ x + c on a vector,
    # xs @ A.T + c on a batch.
    rng = np.random.default_rng(900 + d)
    A1, A2 = rng.normal(size=(2, d, d))
    c1, c2 = rng.normal(size=(2, d))
    a, b = 0.75, 0.25
    xs = rng.uniform(-20.0, 20.0, (50, d))
    cases = [
        (fp.Affine(A1, c1), lambda x: A1 @ x + c1, lambda xs: xs @ A1.T + c1),
        (fp.LinearCombinationWithIdentity(a, b, fp.Affine(A1, c1)),
         lambda x: a * x + b * (A1 @ x + c1), lambda xs: a * xs + b * (xs @ A1.T + c1)),
        (fp.Composition((fp.Affine(A1, c1), fp.Affine(A2, c2))),
         lambda x: A2 @ (A1 @ x + c1) + c2, lambda xs: (xs @ A1.T + c1) @ A2.T + c2),
    ]
    # Nested linear combinations: each mixes its own input with its base's image.
    lo, hi = np.full(d, -5.0), np.full(d, 5.0)
    a2, b2 = -0.5, 1.5
    cases += [
        (fp.LinearCombinationWithIdentity(a, b, fp.Composition((fp.Affine(A1, c1), fp.BoxProjection(lo, hi)))),
         lambda x: a * x + b * np.clip(A1 @ x + c1, lo, hi),
         lambda xs: a * xs + b * np.clip(xs @ A1.T + c1, lo, hi)),
        (fp.Composition((fp.Affine(A1, c1), fp.LinearCombinationWithIdentity(
            a, b, fp.Composition((fp.Affine(A2, c2), fp.Affine(A1, c1)))))),
         lambda x: a * (A1 @ x + c1) + b * (A1 @ (A2 @ (A1 @ x + c1) + c2) + c1),
         lambda xs: a * (xs @ A1.T + c1) + b * (((xs @ A1.T + c1) @ A2.T + c2) @ A1.T + c1)),
        (fp.LinearCombinationWithIdentity(a, b, fp.LinearCombinationWithIdentity(a2, b2, fp.Affine(A1, c1))),
         lambda x: a * x + b * (a2 * x + b2 * (A1 @ x + c1)),
         lambda xs: a * xs + b * (a2 * xs + b2 * (xs @ A1.T + c1))),
    ]
    # Linear combinations over a run of leaves compile to one fused op; one
    # over another linear combination keeps the flat program's mixes.
    cases += [
        (fp.LinearCombinationWithIdentity(a, b, fp.BoxProjection(lo, hi)),
         lambda x: a * x + b * np.clip(x, lo, hi), lambda xs: a * xs + b * np.clip(xs, lo, hi)),
        (fp.LinearCombinationWithIdentity(a, b, fp.LinearCombinationWithIdentity(
            a2, b2, fp.Composition((fp.Affine(A1, c1), fp.BoxProjection(lo, hi))))),
         lambda x: a * x + b * (a2 * x + b2 * np.clip(A1 @ x + c1, lo, hi)),
         lambda xs: a * xs + b * (a2 * xs + b2 * np.clip(xs @ A1.T + c1, lo, hi))),
    ]
    if d == 2:
        R = fp.Rotation(0.7).matrix()
        cases.append((fp.Rotation(0.7), lambda x: R @ x, lambda xs: xs @ R.T))
        cases.append((fp.Composition((fp.Rotation(0.7), fp.Affine(A1, c1))),
                      lambda x: A1 @ (R @ x) + c1, lambda xs: xs @ R.T @ A1.T + c1))
        cases.append((fp.LinearCombinationWithIdentity(
                          a, b, fp.Composition((fp.Rotation(0.7), fp.BoxProjection(lo, hi)))),
                      lambda x: a * x + b * np.clip(R @ x, lo, hi),
                      lambda xs: a * xs + b * np.clip(xs @ R.T, lo, hi)))
    for m, one, many in cases:
        assert fp.evaluate_many(m, xs).tobytes() == many(xs).tobytes(), m
        for x in xs:
            assert fp.evaluate(m, x).tobytes() == one(x).tobytes(), m


@pytest.mark.parametrize("d", [1, 2, 8])
def test_compiled_functions_leave_their_argument_alone(d):
    # A compiled function returns a new array, or the ``out`` it is given,
    # and never its argument; the argument keeps its bits. Cases: each leaf,
    # a fused op and flat programs.
    rng = np.random.default_rng(d)
    aff = fp.Affine(rng.normal(size=(d, d)), rng.normal(size=d))
    box = fp.BoxProjection(np.full(d, -1.0), np.full(d, 1.0))
    cases = [fp.Identity(d), aff, box,
             fp.LinearCombinationWithIdentity(0.75, 0.25, fp.Composition((aff, box))),
             fp.Composition((aff, box)),
             fp.Composition((fp.LinearCombinationWithIdentity(0.75, 0.25, box), aff)),
             fp.LinearCombinationWithIdentity(-0.5, 1.5, fp.LinearCombinationWithIdentity(0.75, 0.25, aff))]
    if d == 2:
        cases.append(fp.Rotation(0.7))
    for m in cases:
        f = fp.mappings._compile(m)
        for x in (rng.uniform(-3.0, 3.0, d), rng.uniform(-3.0, 3.0, (5, d))):
            before = x.tobytes()
            y = f(x)
            assert not np.shares_memory(y, x), m
            out = np.empty_like(x)
            assert f(x, out) is out, m
            assert out.tobytes() == y.tobytes(), m
            assert x.tobytes() == before, m


def test_deep_trees_are_walked_without_recursion(tmp_path):
    # Chains 10,000 lincombs deep, built in Python past the recursion limit.
    # Every walk takes an explicit stack, so each call returns its value; only
    # the parser and the JSON encoder have a depth limit, and each raises a
    # typed error there. Each chain maps x to 0.5*x + 2**-10000*c, which is
    # 0.5*x in floating point.
    box = fp.BoxProjection([-10.0], [10.0])

    def chain(inner):
        m = inner
        for _ in range(10_000):
            m = fp.LinearCombinationWithIdentity(0.25, 0.5, m)
        return m

    for inner in (lambda c: fp.line_map(0.5, c), lambda c: fp.Composition((fp.line_map(0.5, c), box))):
        m = chain(inner(1.0))
        assert m.dim == 1
        assert m == chain(inner(1.0))
        assert m != chain(inner(2.0))  # differs 10,000 levels down
        assert fp.evaluate(m, [3.0]).tolist() == [1.5]
        assert fp.evaluate_many(m, [[3.0], [-4.0]]).tolist() == [[1.5], [-2.0]]
        folded = fp.mappings.collapse(m)
        A, c, margin = fp.mappings.piece_at(m, [3.0])
        assert A.tolist() == [[0.5]] and c.tolist() == [0.0]
        if isinstance(inner(1.0), fp.Affine):
            assert margin == math.inf
            A, c = fp.as_affine(m)
            assert A.tolist() == [[0.5]] and c.tolist() == [0.0]
            assert folded == fp.Affine(A, c)
        else:
            assert 0.0 < margin < math.inf
            assert fp.as_affine(m) is None
            assert folded == m
        doc = fp.serialize_mapping(m)
        assert doc["kind"] == "lincomb" and doc["base"]["base"]["alpha"] == 0.25
        with pytest.raises(SchemaError, match="nested too deeply"):
            fp.parse_mapping(doc)
        trace = fp.picard(m, [0.0], fp.StopRule(max_iter=3))
        assert trace.status is fp.Status.CONVERGED
        report = fp.verify_condition(m, 1.0, "enriched", fp.PairSampler(count=200))
        assert report.passed
        cfg = fp.ExperimentConfig(mapping=m, scheme=fp.Scheme.PICARD, x0=np.zeros(1))
        with pytest.raises(ConfigError, match="^mapping: nested too deeply for a config document$"):
            fp.run_experiment(cfg, tmp_path)


def test_repr_is_the_dataclass_form_at_any_depth():
    m = fp.Composition(
        (fp.averaged(fp.line_map(0.5, 1.0), 0.25), fp.BoxProjection([-1.0], [1.0]), fp.Identity(1))
    )
    assert repr(m) == (
        "Composition(stages=(LinearCombinationWithIdentity(alpha=0.75, beta=0.25, "
        "base=Affine(matrix=array([[0.5]]), offset=array([1.]))), "
        "BoxProjection(lo=array([-1.]), hi=array([1.])), Identity(dim=1)))"
    )
    assert repr(fp.Composition((fp.Rotation(0.5),))) == "Composition(stages=(Rotation(theta=0.5),))"
    deep = fp.line_map(0.5, 1.0)
    for _ in range(10_000):
        deep = fp.averaged(deep, 0.5)
    text = repr(deep)
    assert text.count("LinearCombinationWithIdentity(alpha=0.5, beta=0.5, base=") == 10_000
    assert text.endswith("Affine(matrix=array([[0.5]]), offset=array([1.]))" + ")" * 10_000)


# --- affine normal form ---


def test_as_affine_lincomb_over_affine():
    A = np.array([[1.0, 2.0], [0.0, -1.0]])
    c = np.array([5.0, 6.0])
    m = fp.LinearCombinationWithIdentity(0.75, 0.25, fp.Affine(A, c))
    got = fp.as_affine(m)
    assert got is not None
    np.testing.assert_allclose(got[0], 0.75 * np.eye(2) + 0.25 * A, atol=1e-15)
    np.testing.assert_allclose(got[1], 0.25 * c, atol=1e-15)


def test_as_affine_rotation():
    theta = 0.7
    got = fp.as_affine(fp.Rotation(theta))
    assert got is not None
    expected = [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
    np.testing.assert_allclose(got[0], expected, atol=1e-15)
    np.testing.assert_array_equal(got[1], [0.0, 0.0])


def test_as_affine_box_projection_is_none():
    assert fp.as_affine(fp.BoxProjection([0.0], [1.0])) is None
    assert fp.as_affine(fp.Composition((fp.Identity(1), fp.BoxProjection([0.0], [1.0])))) is None


def test_as_affine_faithful_on_seeded_points():
    rng = np.random.default_rng(23)
    A = rng.normal(size=(3, 3))
    c = rng.normal(size=3)
    candidates = [
        fp.Affine(A, c),
        fp.Rotation(1.1),
        fp.LinearCombinationWithIdentity(0.3, 0.7, fp.Affine(A, c)),
        fp.Composition((fp.Affine(A, c), fp.Affine(-A, 2.0 * c))),
        fp.Identity(4),
        # Nested trees, whose fold mixes the linear parts after the stages
        # before them: a lincomb inside a composition, a composition inside
        # that, and an Identity stage.
        fp.Composition((fp.Affine(A, c), fp.LinearCombinationWithIdentity(0.3, 0.7, fp.Affine(-A, c)))),
        fp.Composition((fp.Affine(A, c), fp.LinearCombinationWithIdentity(
            -0.5, 1.5, fp.Composition((fp.Affine(A.T, -c), fp.Affine(A, c)))), fp.Affine(-A, c))),
        fp.Composition((fp.Affine(A, c), fp.Identity(3), fp.Affine(-A, 2.0 * c))),
    ]
    for m in candidates:
        pair = fp.as_affine(m)
        assert pair is not None
        Anf, cnf = pair
        for _ in range(1000):
            x = rng.uniform(-50.0, 50.0, m.dim)
            np.testing.assert_allclose(fp.evaluate(m, x), Anf @ x + cnf, atol=1e-12)


# --- collapse ---


def _collapse_cases():
    rng = np.random.default_rng(29)
    A, c = rng.normal(size=(3, 3)), rng.normal(size=3)
    box3 = fp.BoxProjection(-np.ones(3), 2.0 * np.ones(3))
    box2 = fp.BoxProjection([-1.0, 0.0], [1.0, 0.5])
    a64 = fp.generate_affine_family(5, 64, np.linspace(1.4, 0.3, 64), 1)[0]
    return [
        fp.Affine(A, c),
        fp.Composition((fp.Affine(A, c), fp.Affine(-A, 2.0 * c))),
        fp.Rotation(1.1),
        fp.Composition((fp.Rotation(0.4), fp.Rotation(-1.3))),
        fp.averaged(fp.Affine(A, c), 0.25),
        fp.averaged(a64, 0.5),
        fp.modified_shift(fp.averaged(fp.Identity(3), 0.3), 2.0),
        fp.Composition((fp.Affine(A, c), box3)),
        fp.averaged(fp.Composition((fp.Affine(A, c), box3)), 0.25),
        fp.Composition((fp.Rotation(0.9), fp.Identity(2), box2, fp.Rotation(2.0), fp.Rotation(0.5))),
        fp.Composition((box3, fp.averaged(fp.Affine(A, c), 0.5), fp.Affine(A, -c), box3)),
    ]


def test_collapse_leaves_evaluation_unchanged():
    rng = np.random.default_rng(41)
    for m in _collapse_cases():
        folded = fp.mappings.collapse(m)
        xs = rng.uniform(-20.0, 20.0, (200, m.dim))
        want = fp.evaluate_many(m, xs)
        got = np.array([fp.evaluate(folded, x) for x in xs])
        gap = np.linalg.norm(got - want, axis=1)
        assert np.all(gap <= 1e-12 * np.linalg.norm(want, axis=1)), m


def test_collapse_folds_only_whole_affine_maps():
    collapse = fp.mappings.collapse
    A, c = np.array([[0.5, 1.0], [0.0, -2.0]]), np.array([1.0, 3.0])
    box = fp.BoxProjection([-1.0, 0.0], [1.0, 0.5])
    lone = fp.Affine(A, c)
    assert collapse(lone) is lone
    ident = fp.Identity(2)
    assert collapse(ident) is ident
    assert collapse(box) is box
    # A whole affine tree becomes one Affine, with as_affine's (A, c).
    for tree in (
        fp.Rotation(0.3),
        fp.averaged(fp.Composition((fp.Rotation(0.3), lone)), 0.25),
        fp.Composition((ident, lone, lone)),
        fp.modified_shift(fp.averaged(ident, 0.3), 2.0),
    ):
        folded = collapse(tree)
        assert isinstance(folded, fp.Affine)
        assert folded == fp.Affine(*fp.as_affine(tree))
    # A tree with a box projection anywhere comes back as the same object:
    # no affine part of it is folded on its own.
    mixed = fp.averaged(fp.Composition((fp.Rotation(0.3), lone, box, ident, lone)), 0.5)
    for tree in (
        fp.Composition((fp.Rotation(0.3), box)),
        fp.Composition((lone, box)),
        fp.averaged(fp.Composition((lone, box)), 0.25),
        fp.Composition((box, fp.averaged(lone, 0.5), lone)),
        mixed,
    ):
        assert collapse(tree) is tree


# --- the piece at a point ---


def _piece_cases():
    """``_collapse_cases()`` and random box trees: Box∘Affine, Affine∘Box
    and averaged ones, at d in {1, 2, 3, 8, 64}, each with its points."""
    rng = np.random.default_rng(47)
    cases = [(m, rng.uniform(-3.0, 3.0, (4, m.dim))) for m in _collapse_cases()]
    for d in (1, 2, 3, 8, 64):
        for _ in range(3):
            A, c = rng.normal(size=(d, d)) / math.sqrt(d), rng.normal(size=d)
            lo = rng.uniform(-2.0, 0.0, d)
            aff, box = fp.Affine(A, c), fp.BoxProjection(lo, lo + rng.uniform(0.5, 3.0, d))
            for m in (fp.Composition((aff, box)), fp.Composition((box, aff)),
                      fp.averaged(fp.Composition((aff, box)), 0.25),
                      fp.Composition((aff, fp.averaged(fp.Composition((box, aff)), 0.5), box))):
                cases.append((m, rng.uniform(-3.0, 3.0, (4, d))))
    return cases


def test_piece_at_is_the_map_near_its_point():
    # A x + c is m(x), and stays m(y) for every step within the margin; on a
    # box-free tree the piece is as_affine's form, with no margin to keep.
    rng = np.random.default_rng(53)
    margins = []
    for m, xs in _piece_cases():
        form = fp.as_affine(m)
        for x in xs:
            A, c, margin = fp.mappings.piece_at(m, x)
            want = fp.evaluate(m, x)
            assert np.linalg.norm(A @ x + c - want) <= 1e-12 * np.linalg.norm(want), m
            if form is not None:
                assert A.tobytes() == form[0].tobytes() and c.tobytes() == form[1].tobytes(), m
                assert margin == math.inf
                continue
            margins.append(margin)
            for h in rng.uniform(-0.9 * margin, 0.9 * margin, (20, m.dim)):
                want = fp.evaluate(m, x + h)
                assert np.linalg.norm(A @ (x + h) + c - want) <= 1e-12 * np.linalg.norm(want), m
    assert 0.0 < min(margins) and max(margins) < math.inf


def test_piece_at_ties_overflow_and_bad_points():
    box = fp.BoxProjection([-1.0, -1.0], [1.0, 1.0])
    # An input on a bound counts as clamped, with margin 0.
    A, c, margin = fp.mappings.piece_at(fp.Composition((fp.scaling_map(2.0, 2), box)), [0.5, 0.25])
    assert A.tolist() == [[0.0, 0.0], [0.0, 2.0]] and c.tolist() == [1.0, 0.0] and margin == 0.0
    A, c, margin = fp.mappings.piece_at(box, [3.0, 0.5])
    assert A.tolist() == [[0.0, 0.0], [0.0, 1.0]] and c.tolist() == [1.0, 0.0] and margin == 0.5
    for m in (fp.Affine([[1e308]], [0.0]),
              fp.Composition((fp.BoxProjection([-10.0], [10.0]), fp.scaling_map(1e308))),
              # evaluate gives [1.0] on these, but the box's input is inf, and
              # in the second its Jacobian 1e400 is too.
              fp.Composition((fp.scaling_map(1e308), fp.BoxProjection([-1.0], [1.0]))),
              fp.Composition((fp.scaling_map(1e200), fp.scaling_map(1e200), fp.BoxProjection([-1.0], [1.0])))):
        with pytest.raises(NonFiniteResult):
            fp.mappings.piece_at(m, [5.0])
    with pytest.raises(DimensionMismatch, match="^x: dimension 3 does not match mapping dimension 2$"):
        fp.mappings.piece_at(box, [0.0, 0.0, 0.0])
    # The arrays are the caller's own, a lone leaf's too.
    for m in (fp.Affine([[2.0, 1.0], [0.0, 1.0]], [1.0, -1.0]),
              fp.Composition((fp.Affine(np.eye(2), [1.0, 0.0]), box))):
        A, c, _ = fp.mappings.piece_at(m, [0.5, 0.25])
        before = fp.serialize_mapping(m)
        A[...] = 7.0
        c[...] = 7.0
        assert fp.serialize_mapping(m) == before


def test_non_numeric_fields_are_invariant_violations():
    # Each constructor names the field it refuses, as as_vector does.
    lincomb = fp.LinearCombinationWithIdentity
    for call, match in (
        (lambda: fp.Affine("abc", [0.0]), "^matrix: expected an array of numbers"),
        (lambda: fp.Affine([[1.0]], "abc"), "^offset: expected an array of numbers"),
        (lambda: fp.operator_norm("abc"), "^matrix: expected an array of numbers"),
        (lambda: fp.norm("abc"), "^vector: expected an array of numbers"),
        (lambda: fp.norm([{}]), "^vector: expected an array of numbers"),
        (lambda: fp.Rotation("abc"), "^theta: expected a number"),
        (lambda: fp.Rotation(None), "^theta: expected a number"),
        (lambda: lincomb("abc", 1.0, fp.Identity(1)), "^alpha: expected a number"),
        (lambda: lincomb(0.5, [1.0], fp.Identity(1)), "^beta: expected a number"),
        (lambda: fp.Identity("abc"), "^dim: expected an integer"),
        (lambda: fp.Identity(2.5), "^dim: expected an integer"),
        (lambda: fp.Identity(True), "^dim: expected an integer"),
        (lambda: fp.line_map("x", 0), "^slope: expected a number"),
        (lambda: fp.line_map(1.0, None), "^intercept: expected a number"),
        (lambda: fp.scaling_map(None), "^factor: expected a number"),
        # Non-finite numbers are refused under the field's own name too.
        (lambda: lincomb(0.5, math.inf, fp.Identity(1)), "^beta: must be finite"),
        (lambda: fp.line_map(math.inf, 0.0), "^slope: must be finite"),
        (lambda: fp.line_map(1.0, math.inf), "^intercept: must be finite"),
        (lambda: fp.scaling_map(math.nan, 2), "^factor: must be finite"),
        (lambda: fp.scaling_map(2.0, "x"), "^dim: must be an integer in"),
        (lambda: fp.scaling_map(2.0, -1), "^dim: must be an integer in"),
        (lambda: fp.evaluate_many(fp.line_map(0.5, 1.0), [["a"]]), "^xs: expected an array of numbers"),
        (lambda: fp.evaluate_many(fp.Identity(2), [[0.0, 1.0], [math.nan, 1.0]]), "^xs: entries must be finite"),
        # So are integers past the float range, on which float() raises
        # OverflowError.
        (lambda: fp.line_map(10**400, 0.0), "^slope: must be finite"),
        (lambda: lincomb(-(10**400), 1.0, fp.Identity(1)), "^alpha: must be finite"),
        (lambda: fp.Affine([[10**400]], [0.0]), "^matrix: entries must be finite"),
        (lambda: fp.Affine([[1.0]], [10**400]), "^offset: entries must be finite"),
        (lambda: fp.evaluate(fp.Identity(1), [10**400]), "^x: entries must be finite"),
        (lambda: fp.evaluate_many(fp.Identity(1), [[10**400]]), "^xs: entries must be finite"),
        (lambda: fp.norm([10**400]), "^vector: entries must be finite"),
        (lambda: fp.parse_mapping({"kind": "rotation", "theta": 10**400}), r"^\$\.theta: must be finite"),
        # Strings and bytes are not numbers, although numpy parses them.
        (lambda: fp.norm("1.5"), "^vector: expected an array of numbers"),
        (lambda: fp.norm([Decimal("1.5"), "2"]), "^vector: expected an array of numbers"),
        (lambda: fp.Affine([["2"]], ["0"]), "^matrix: expected an array of numbers"),
        (lambda: fp.Affine([[2.0]], [b"0"]), "^offset: expected an array of numbers"),
        (lambda: fp.BoxProjection(["0"], [1.0]), "^lo: expected an array of numbers"),
        (lambda: fp.evaluate(fp.Identity(1), [b"7"]), "^x: expected an array of numbers"),
        (lambda: fp.evaluate_many(fp.Identity(1), [["1.5"], ["2"]]), "^xs: expected an array of numbers"),
        (lambda: fp.evaluate_many(fp.Identity(1), np.array([[b"1"]])), "^xs: expected an array of numbers"),
        (lambda: fp.operator_norm(np.array([["1.0"]])), "^matrix: expected an array of numbers"),
        # Booleans are not numbers either, although numpy reads them as 0 and
        # 1, in a bool array and mixed with numbers at any depth.
        (lambda: fp.Affine([[True]], [False]), "^matrix: expected an array of numbers"),
        (lambda: fp.Affine([[1.0]], [False]), "^offset: expected an array of numbers"),
        (lambda: fp.BoxProjection([0.0, False], [1.0, 1.0]), "^lo: expected an array of numbers"),
        (lambda: fp.norm([True, False]), "^vector: expected an array of numbers"),
        (lambda: fp.norm([0.5, np.True_]), "^vector: expected an array of numbers"),
        (lambda: fp.norm([Decimal("1.5"), True]), "^vector: expected an array of numbers"),
        (lambda: fp.norm([np.array([True, False]), [0.5, 1.0]]), "^vector: expected an array of numbers"),
        # numpy keeps a 0-d array inside a list as a leaf, whatever it holds.
        (lambda: fp.norm([np.array(True), 0.5]), "^vector: expected an array of numbers"),
        (lambda: fp.norm([np.array(True, dtype=object), 0.5]), "^vector: expected an array of numbers"),
        (lambda: fp.evaluate(fp.Identity(1), [True]), "^x: expected an array of numbers"),
        (lambda: fp.evaluate_many(fp.Identity(2), [[0.5, 1.0], [2.0, True]]), "^xs: expected an array of numbers"),
        (lambda: fp.operator_norm(np.eye(2, dtype=bool)), "^matrix: expected an array of numbers"),
    ):
        with pytest.raises(InvariantViolation, match=match):
            call()
    # numpy scalars are numbers, and so are Decimals.
    assert fp.norm([Decimal(3), Decimal("4.0")]) == 5.0
    assert fp.Identity(np.int64(2)).dim == 2
    assert fp.norm([np.array(3.0), np.array(4)]) == 5.0
    assert fp.line_map(np.float64(2.0), np.int32(1)) == fp.line_map(2.0, 1.0)


def test_collapse_keeps_a_fold_that_overflows():
    # as_affine of this pair overflows to an inf matrix; collapse keeps the
    # tree and lets no warning escape.
    big = fp.Composition((fp.scaling_map(1e200), fp.scaling_map(1e200)))
    with np.errstate(over="ignore"):
        assert np.isinf(fp.as_affine(big)[0]).all()
    assert fp.mappings.collapse(big) == big
    lincomb = fp.averaged(big, 0.5)
    assert fp.mappings.collapse(lincomb) == lincomb


def test_as_affine_folds_an_overflow_without_a_warning():
    # 1e200 * 1e200 overflows to inf; a zero map after that gives 0 * inf,
    # which is nan. as_affine returns both forms and no numpy warning.
    big = fp.Composition((fp.scaling_map(1e200), fp.scaling_map(1e200)))
    big2 = fp.Composition((fp.scaling_map(1e200, 2), fp.scaling_map(1e200, 2), fp.scaling_map(0.0, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        A, c = fp.as_affine(big)
        assert A.tolist() == [[math.inf]] and c.tolist() == [0.0]
        A, c = fp.as_affine(big2)
        assert np.isnan(A).all() and c.tolist() == [0.0, 0.0]


# --- structural invariants ---


def test_box_projection_is_nonexpansive_in_every_norm():
    rng = np.random.default_rng(31)
    box = fp.BoxProjection([-1.0, 0.0, 2.0], [1.0, 0.5, 3.0])
    xs = rng.uniform(-10.0, 10.0, (1000, 3))
    ys = rng.uniform(-10.0, 10.0, (1000, 3))
    for kind in (fp.NormKind.L1, fp.NormKind.L2, fp.NormKind.LINF):
        for x, y in zip(xs, ys):
            px, py = fp.evaluate(box, x), fp.evaluate(box, y)
            assert fp.norm(px - py, kind) <= fp.norm(x - y, kind) + 1e-12


def test_composition_associativity():
    f = fp.Affine([[0.5, 0.0], [0.0, 0.5]], [1.0, 0.0])
    g = fp.Rotation(0.4)
    h = fp.Affine([[0.0, 1.0], [-1.0, 0.0]], [0.0, 2.0])
    flat = fp.Composition((f, g, h))
    rng = np.random.default_rng(37)
    for _ in range(100):
        x = rng.uniform(-5.0, 5.0, 2)
        nested = fp.evaluate(h, fp.evaluate(g, fp.evaluate(f, x)))
        np.testing.assert_allclose(fp.evaluate(flat, x), nested, atol=1e-12)


def test_constructor_validation():
    with pytest.raises(InvariantViolation):
        fp.BoxProjection([1.0], [0.0])
    with pytest.raises(InvariantViolation):
        fp.Affine([[1.0, 0.0]], [0.0])
    with pytest.raises(InvariantViolation):
        fp.Composition((fp.Identity(1), fp.Identity(2)))
    with pytest.raises(InvariantViolation):
        fp.LinearCombinationWithIdentity(float("nan"), 1.0, fp.Identity(1))
    for call, match in (
        (lambda: fp.Affine(np.eye(2), [1.0]), "^offset: length 1 does not match matrix dimension 2$"),
        (lambda: fp.BoxProjection([0.0], [1.0, 2.0]), "^lo/hi: bounds must have equal length$"),
        (lambda: fp.LinearCombinationWithIdentity(0.5, 0.5, "x"), "^base: expected a Mapping$"),
        (lambda: fp.Composition(()), "^stages: must not be empty$"),
        (lambda: fp.Composition((fp.Identity(1), 3)), r"^stages\[1\]: expected a Mapping$"),
        (lambda: fp.Identity(fp.DIM_CAP + 1), rf"^dim: must be in \[1, {fp.DIM_CAP}\]$"),
    ):
        with pytest.raises(InvariantViolation, match=match):
            call()
    # A mapping equals only a mapping.
    assert (fp.Identity(1) == 1) is False


# --- parsing and serialization ---


class TestParseMapping:
    def test_affine_example(self):
        m = fp.parse_mapping({"kind": "affine", "matrix": [[-2.0]], "offset": [100.0]})
        assert m == T_LINE

    def test_identity_example(self):
        m = fp.parse_mapping({"kind": "identity", "dim": 3})
        assert m == fp.Identity(3)

    def test_lincomb_example_agrees_with_averaged_form(self):
        doc = {
            "kind": "lincomb",
            "alpha": 0.75,
            "beta": 0.25,
            "base": {"kind": "affine", "matrix": [[-2.0]], "offset": [100.0]},
        }
        parsed = fp.parse_mapping(doc)
        direct = fp.averaged(T_LINE, 0.25)
        rng = np.random.default_rng(43)
        for _ in range(5):
            x = rng.uniform(-100.0, 100.0, 1)
            np.testing.assert_array_equal(fp.evaluate(parsed, x), fp.evaluate(direct, x))

    def test_unknown_kind_reports_path(self):
        with pytest.raises(SchemaError, match=r"\$\.kind"):
            fp.parse_mapping({"kind": "spiral"})

    def test_missing_field_reports_path(self):
        with pytest.raises(SchemaError, match=r"\$\.offset"):
            fp.parse_mapping({"kind": "affine", "matrix": [[1.0]]})

    def test_unexpected_field_inside_composition_reports_nested_path(self):
        doc = {
            "kind": "composition",
            "stages": [
                {"kind": "identity", "dim": 1},
                {"kind": "affine", "matrix": [[1.0]], "offset": [0.0], "extra": 1},
            ],
        }
        with pytest.raises(SchemaError, match=r"\$\.stages\[1\]\.extra"):
            fp.parse_mapping(doc)

    def test_invariant_violation_reports_path(self):
        with pytest.raises(InvariantViolation, match=r"\$\.lo"):
            fp.parse_mapping({"kind": "box_projection", "lo": [1.0], "hi": [0.0]})

    def test_layout_and_value_errors_name_their_path(self):
        affine = {"kind": "affine", "offset": [0.0]}
        for doc, error, message in (
            ({"kind": "composition", "stages": [5]}, SchemaError, "$.stages[0]: expected an object, got int"),
            ({}, SchemaError, "$.kind: missing field"),
            ({"kind": "identity", "dim": 1.5}, SchemaError, "$.dim: expected an integer"),
            ({"kind": "box_projection", "lo": [], "hi": [1.0]}, SchemaError,
             "$.lo: expected a non-empty array of numbers"),
            ({**affine, "matrix": []}, SchemaError, "$.matrix: expected a non-empty array of rows"),
            ({**affine, "matrix": [[1.0, 0.0]]}, InvariantViolation, "$.matrix: matrix must be square"),
            ({"kind": "composition", "stages": {}}, SchemaError, "$.stages: expected an array"),
        ):
            with pytest.raises(error) as caught:
                fp.parse_mapping(doc)
            assert type(caught.value) is error and str(caught.value) == message

    def test_booleans_are_not_numbers(self):
        with pytest.raises(SchemaError):
            fp.parse_mapping({"kind": "rotation", "theta": True})


def test_round_trip_fixed_docs():
    docs = [
        {"kind": "affine", "matrix": [[-2.0]], "offset": [100.0]},
        {"kind": "rotation", "theta": math.pi / 2},
        {"kind": "box_projection", "lo": [0.0, -1.0], "hi": [1.0, 1.0]},
        {
            "kind": "composition",
            "stages": [
                {"kind": "identity", "dim": 1},
                {
                    "kind": "lincomb",
                    "alpha": 0.5,
                    "beta": 0.5,
                    "base": {"kind": "affine", "matrix": [[2.0]], "offset": [-1.0]},
                },
            ],
        },
    ]
    for doc in docs:
        m = fp.parse_mapping(doc)
        again = fp.parse_mapping(fp.serialize_mapping(m))
        assert m == again


_leaf_docs = st.one_of(
    st.builds(
        lambda a, c: {"kind": "affine", "matrix": [[a]], "offset": [c]},
        st.floats(-50, 50, allow_nan=False),
        st.floats(-50, 50, allow_nan=False),
    ),
    st.just({"kind": "identity", "dim": 1}),
    st.builds(
        lambda lo, w: {"kind": "box_projection", "lo": [lo], "hi": [lo + w]},
        st.floats(-10, 10, allow_nan=False),
        st.floats(0, 5, allow_nan=False),
    ),
)

_mapping_docs = st.recursive(
    _leaf_docs,
    lambda inner: st.one_of(
        st.builds(
            lambda a, b, base: {"kind": "lincomb", "alpha": a, "beta": b, "base": base},
            st.floats(-2, 2, allow_nan=False),
            st.floats(-2, 2, allow_nan=False),
            inner,
        ),
        st.lists(inner, min_size=1, max_size=3).map(
            lambda ss: {"kind": "composition", "stages": ss}
        ),
    ),
    max_leaves=6,
)


@given(_mapping_docs)
@settings(max_examples=150, deadline=None)
def test_round_trip_hypothesis(doc):
    m = fp.parse_mapping(doc)
    assert fp.parse_mapping(fp.serialize_mapping(m)) == m
