import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpkit as fp
from fpkit.errors import (
    DimensionMismatch,
    InsufficientData,
    InvariantViolation,
    IoError,
    ParameterOutOfRange,
)
from fpkit.iteration import DIVERGENCE_WINDOW
from fpkit.mappings import collapse

from _family import (
    apriori_iterations_exact,
    reference_norm,
    reference_picard,
    reference_write_trace_csv,
)

T_LINE = fp.line_map(-2.0, 100.0)
X_STAR = 100.0 / 3.0


# --- picard ---


def test_picard_on_averaged_demo_map():
    tr = fp.picard(fp.averaged(T_LINE, 0.25), [0.0])
    assert tr.status is fp.Status.CONVERGED
    assert tr.final[0] == pytest.approx(X_STAR, abs=1e-8)


def test_picard_identity_converges_immediately():
    tr = fp.picard(fp.Identity(3), [1.0, 2.0, 3.0])
    assert tr.status is fp.Status.CONVERGED
    assert tr.iterations == 1
    assert tr.residuals == [0.0]


def test_picard_translation_never_settles():
    tr = fp.picard(fp.line_map(1.0, 1.0), [0.0], fp.StopRule(max_iter=300))
    assert tr.status in (fp.Status.MAX_ITER_REACHED, fp.Status.DIVERGED)


def test_picard_expansive_map_trips_norm_cap():
    tr = fp.picard(T_LINE, [0.0])
    assert tr.status is fp.Status.DIVERGED
    assert tr.iterations <= 200
    assert fp.norm(tr.final) > fp.StopRule().norm_cap


def test_picard_slow_growth_trips_residual_window():
    # Residuals grow by 1% per step: far below the norm cap for thousands of
    # iterations, so only the monotone-increase window can catch it.
    tr = fp.picard(fp.scaling_map(1.01), [1.0], fp.StopRule(max_iter=500))
    assert tr.status is fp.Status.DIVERGED
    assert tr.iterations <= 100


def test_picard_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        fp.picard(T_LINE, [0.0, 0.0])


def test_trace_shape_invariants():
    tr = fp.picard(fp.averaged(T_LINE, 0.25), [10.0])
    assert tr.iterations == len(tr.residuals) == len(tr.ratios)
    assert tr.ratios[0] is None
    for i in range(1, len(tr.ratios)):
        if tr.ratios[i] is not None:
            assert tr.ratios[i] == pytest.approx(tr.residuals[i] / tr.residuals[i - 1])
    stop = fp.StopRule()
    assert tr.residuals[-1] <= stop.eps_abs + stop.eps_rel * fp.norm(tr.final)


def test_stop_rule_validation():
    with pytest.raises(ParameterOutOfRange):
        fp.StopRule(eps_abs=0.0)
    with pytest.raises(ParameterOutOfRange):
        fp.StopRule(max_iter=0)
    with pytest.raises(ParameterOutOfRange):
        fp.StopRule(norm_cap=-1.0)
    with pytest.raises(ParameterOutOfRange):
        fp.StopRule(eps_abs=math.nan)


# --- the step loop against the reference loop ---


def _bits(values) -> list[str]:
    """repr of each float: equal lists mean bit-identical values, NaN included."""
    return [repr(v) for v in values]


def assert_same_trace(got: fp.IterationTrace, want: fp.IterationTrace) -> None:
    assert _bits(got.residuals) == _bits(want.residuals)
    assert _bits(got.ratios) == _bits(want.ratios)
    assert got.status is want.status
    assert got.iterations == want.iterations
    assert got.final.tobytes() == want.final.tobytes()
    if want.iterates is None:
        assert got.iterates is None
    else:
        assert [x.tobytes() for x in got.iterates] == [x.tobytes() for x in want.iterates]


def quiet_reference(*args, **kwargs) -> fp.IterationTrace:
    # The reference takes its norms outside errstate, so numpy would warn
    # about the overflows that these traces record.
    with np.errstate(over="ignore", invalid="ignore"):
        return reference_picard(*args, **kwargs)


def _loop_cases():
    """(name, mapping, x0): the line demo, affine maps at d in {1, 2, 8, 64}, box compositions."""
    rng = np.random.default_rng(404)
    cases = [("line demo", T_LINE, np.array([0.0])), ("line demo far", T_LINE, np.array([-7.5e5]))]
    for d in (1, 2, 8, 64):
        # Top singular value above 1: plain Picard may diverge, averaging converges.
        svals = np.linspace(1.4, 0.3, d)
        for i, m in enumerate(fp.generate_affine_family(500 + d, d, svals, 2)):
            cases.append((f"affine d={d} #{i}", m, rng.uniform(-10.0, 10.0, d)))
    a8 = fp.generate_affine_family(77, 8, np.linspace(1.6, 0.5, 8), 1)[0]
    cases.append(("affine then box, d=8",
                  fp.Composition((a8, fp.BoxProjection(-4.0 * np.ones(8), 4.0 * np.ones(8)))),
                  rng.uniform(-10.0, 10.0, 8)))
    cases.append(("rotation then box",
                  fp.Composition((fp.Rotation(1.5), fp.BoxProjection([-1.0, -2.0], [3.0, 0.5]))),
                  np.array([5.0, -5.0])))
    # In 1-d an affine step takes its own route (see mappings._affine).
    cases.append(("line then box, d=1",
                  fp.Composition((fp.line_map(-1.5, 2.0), fp.BoxProjection([-3.0], [4.0]))),
                  np.array([5.0])))
    return cases


@pytest.mark.parametrize("kind", [fp.NormKind.L1, fp.NormKind.L2, fp.NormKind.LINF])
def test_schemes_match_the_reference_loop_bit_for_bit(kind):
    # picard iterates collapse(mapping), so the reference loop runs over the
    # collapsed tree too.
    stop = fp.StopRule(max_iter=400)
    lam, b = 0.25, 3.0
    for name, m, x0 in _loop_cases():
        for store in (False, True):
            want = reference_picard(collapse(m), x0, stop, kind, store_iterates=store)
            assert_same_trace(fp.picard(m, x0, stop, kind, store_iterates=store), want)

            want = reference_picard(collapse(fp.averaged(m, lam)), x0, stop, kind,
                                    store_iterates=store)
            assert_same_trace(fp.krasnoselskij(m, lam, x0, stop, kind, store_iterates=store), want)

            res = fp.solve_modified(m, b, x0, stop, kind, store_iterates=store)
            want = reference_picard(collapse(fp.averaged(m, 1.0 / (b + 1.0))), x0, stop, kind,
                                    store_iterates=store)
            assert_same_trace(res.trace, want)
            assert res.fixed_point.tobytes() == want.final.tobytes()
            # residual_T evaluates the original tree, not the collapsed one.
            assert repr(res.residual_T) == repr(
                reference_norm(fp.evaluate(m, want.final) - want.final, kind)
            ), name


@pytest.mark.parametrize("kind", [fp.NormKind.L1, fp.NormKind.L2, fp.NormKind.LINF])
def test_collapsed_traces_stay_close_to_the_tree(kind):
    # Folding changes only rounding: each run against the unfolded tree
    # stops the same way after the same number of steps, and converged
    # runs land on the same point to 1e-12 relative.
    stop = fp.StopRule(max_iter=400)
    lam, b = 0.25, 3.0
    for name, m, x0 in _loop_cases():
        runs = [
            (fp.picard(m, x0, stop, kind), m),
            (fp.krasnoselskij(m, lam, x0, stop, kind), fp.averaged(m, lam)),
            (fp.solve_modified(m, b, x0, stop, kind).trace, fp.averaged(m, 1.0 / (b + 1.0))),
        ]
        for got, tree in runs:
            want = reference_picard(tree, x0, stop, kind)
            assert got.status is want.status, name
            assert got.iterations == want.iterations, name
            if want.status is fp.Status.CONVERGED:
                gap = np.linalg.norm(got.final - want.final)
                assert gap <= 1e-12 * np.linalg.norm(want.final), name


# picard's first block holds 8 steps, so it ends on step 8 and the next
# block starts on step 9. Later blocks are sized from the run so far, up to
# 64 steps: a run whose residuals neither shrink nor grow, such as a
# translation's, doubles to blocks of 16, 32 and 64, which end on steps 24,
# 56, 120 and 184; other runs move those edges. A stop on either side of any
# of these steps, or a max_iter there, must give the reference loop's trace.
BLOCK_EDGES = (1, 8, 9, 24, 25, 56, 57, 120, 121)
ALL_KINDS = (fp.NormKind.L1, fp.NormKind.L2, fp.NormKind.LINF)
TINY = 1e-300  # an eps_abs that no residual below reaches


def assert_picard_matches_reference(m, x0, stop):
    for kind in ALL_KINDS:
        for store in (False, True):
            want = quiet_reference(collapse(m), x0, stop, kind, store_iterates=store)
            assert_same_trace(fp.picard(m, x0, stop, kind, store_iterates=store), want)


@pytest.mark.parametrize("d", [1, 2])
def test_picard_hands_out_arrays_of_their_own(d):
    # Steps are written into one array per block; the final point and each
    # stored iterate are copied out of it, so a trace shares no memory with
    # x0, with another trace or within itself, and a later run leaves it be.
    box = fp.BoxProjection(np.full(d, -1.0), np.full(d, 1.0))
    spin = fp.Affine(-np.eye(d), np.full(d, 0.5))  # never settles: x, 0.5 - x, x, ...
    stop = fp.StopRule(max_iter=30)
    for m in (spin, fp.averaged(fp.Composition((spin, box)), 0.25),
              fp.Composition((spin, fp.averaged(box, 0.5)))):
        x0 = np.linspace(-2.0, 2.0, d)
        first = fp.picard(m, x0, stop, store_iterates=True)
        arrays = [first.final, *first.iterates]
        kept = [a.tobytes() for a in arrays]
        second = fp.picard(m, x0, stop, store_iterates=True)
        assert [a.tobytes() for a in arrays] == kept, m
        assert_same_trace(second, first)
        for i, a in enumerate(arrays):
            assert a.base is None and a.flags.owndata, (m, i)
            assert not np.shares_memory(a, x0), (m, i)
            assert not any(np.shares_memory(a, b) for b in arrays[i + 1:]), (m, i)


def test_picard_max_iter_at_block_edges_matches_the_reference():
    never_settle = [
        (fp.Affine(np.eye(3), [1.0, -2.0, 0.5]), np.zeros(3)),
        (fp.Rotation(1.0), np.array([3.0, -1.0])),
    ]
    for max_iter in sorted({n + k for n in (8, 16, 24, 32, 56, 64, 120) for k in (-1, 0, 1)}):
        for m, x0 in never_settle:
            stop = fp.StopRule(max_iter=max_iter)
            assert fp.picard(m, x0, stop).status is fp.Status.MAX_ITER_REACHED
            assert fp.picard(m, x0, stop).iterations == max_iter
            assert_picard_matches_reference(m, x0, stop)


@pytest.mark.parametrize("theta", [0.3, 1.0, 2.0])
def test_picard_far_from_a_rotations_fixed_point_runs_to_max_iter(theta):
    # Plain Picard does not converge on an isometry: at radius 1000 the l2
    # residual stays at 2000 sin(theta/2) up to a few ulps, so a residual
    # that shrinks by an ulp can have the same log as the one before, and the
    # block sizing has no rate to go by.
    m, x0 = fp.Rotation(theta), np.array([1000.0, 0.0])
    stop = fp.StopRule(max_iter=10_000)
    assert fp.picard(m, x0, stop).status is fp.Status.MAX_ITER_REACHED
    for kind in ALL_KINDS:
        assert_same_trace(fp.picard(m, x0, stop, kind), quiet_reference(m, x0, stop, kind))


def test_block_sizing_with_no_rate_in_the_logs_doubles():
    # The residuals shrink, by one ulp, but their logs are equal.
    residuals = [141.0] * 7 + [math.nextafter(141.0, 0.0)]
    assert math.log(residuals[0]) == math.log(residuals[-1])
    assert fp.iteration._next_block(residuals, 1e-9, 16) == 32


def _stop_at(m, x0, kind, n, field):
    """A stop rule whose ``field`` ends the reference run of ``m`` at step n."""
    trace = quiet_reference(m, x0, fp.StopRule(eps_abs=TINY, max_iter=n + 1, norm_cap=math.inf),
                            kind, store_iterates=True)
    if field == "eps_abs":
        return fp.StopRule(eps_abs=trace.residuals[n - 1], max_iter=200)
    # norm_cap halfway between the norms of x_{n-1} and x_n
    below, above = (reference_norm(x, kind) for x in trace.iterates[n - 1:n + 1])
    return fp.StopRule(eps_abs=TINY, norm_cap=(below + above) / 2.0, max_iter=200)


@pytest.mark.parametrize("n", BLOCK_EDGES)
def test_picard_convergence_and_norm_cap_on_block_edges(n):
    halve = fp.scaling_map(0.5, dim=3)  # residuals fall at every step
    shift = fp.Affine(np.eye(3), [1.0, 2.0, -1.0])  # norms grow from 0; residuals stay put
    for m, x0, field, status in ((halve, np.array([1.0, -3.0, 2.0]), "eps_abs", fp.Status.CONVERGED),
                                 (shift, np.zeros(3), "norm_cap", fp.Status.DIVERGED)):
        for kind in ALL_KINDS:
            stop = _stop_at(m, x0, kind, n, field)
            tr = fp.picard(m, x0, stop, kind)
            assert tr.status is status and tr.iterations == n, (field, kind)
        assert_picard_matches_reference(m, x0, stop)


@pytest.mark.parametrize("n", [56, 57, 120, 121])
def test_picard_growth_streak_across_block_edges(n):
    # diag(1/2, 2) from (1, 2^-2m): the step is (-2^-k, 2^(k-1-2m)) at step k,
    # exactly, so in every norm here residuals fall up to step m, step m+1
    # repeats step m's, and they grow from step m+2 on. The streak reaches
    # DIVERGENCE_WINDOW at step m+21 and crosses a block edge on the way.
    m = n - DIVERGENCE_WINDOW - 1
    T = fp.Affine(np.diag([0.5, 2.0]), np.zeros(2))
    x0 = np.array([1.0, 2.0 ** (-2 * m)])
    stop = fp.StopRule(eps_abs=TINY)
    for kind in ALL_KINDS:
        tr = fp.picard(T, x0, stop, kind)
        assert tr.status is fp.Status.DIVERGED and tr.iterations == n, kind
        assert tr.residuals[m] == tr.residuals[m - 1] < tr.residuals[m + 1], kind
    assert_picard_matches_reference(T, x0, stop)


@pytest.mark.parametrize("n", [1, 8, 9, 24, 25])
def test_picard_unrecorded_non_finite_step_on_block_edges(n):
    # Doubling from 2^(1024-n) overflows to inf at step n exactly; with no
    # norm cap that step ends the run unrecorded. (Steps from 2^512 on have
    # l2 norms past the float range and are recorded.)
    m = fp.scaling_map(2.0, dim=2)
    x0 = np.array([2.0 ** (1024 - n), -(2.0 ** (1023 - n))])
    stop = fp.StopRule(norm_cap=math.inf)
    tr = fp.picard(m, x0, stop)
    assert tr.status is fp.Status.DIVERGED and tr.iterations == n - 1
    assert_picard_matches_reference(m, x0, stop)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 8),
    top=st.floats(0.2, 1.6),
    scaled_rotation=st.booleans(),
    boxed=st.booleans(),
    scheme=st.sampled_from(["picard", "krasnoselskij", "solve_modified"]),
    field=st.sampled_from(["eps_abs", "norm_cap", "max_iter"]),
    at=st.floats(0.0, 1.0),
    kind=st.sampled_from(ALL_KINDS),
    store=st.booleans(),
)
def test_block_sizes_never_change_a_trace(seed, d, top, scaled_rotation, boxed, scheme, field,
                                         at, kind, store):
    # Block sizes follow the run (shrinking, growing or neither residuals),
    # and the stop rule is taken from the reference run of the same map, so
    # a stop can land on any step: the trace is still the one-step loop's.
    # A scaled rotation top*Q makes l2 residuals shrink or grow at every
    # step, so that runs reach the growth streak's rule too.
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((d, d))
    if scaled_rotation:
        A = np.linalg.qr(A)[0]
    m = fp.Affine(A * (top / np.linalg.norm(A, 2)), rng.uniform(-5.0, 5.0, d))
    if boxed:
        m = fp.Composition((m, fp.BoxProjection(np.full(d, -4.0), np.full(d, 4.0))))
    x0 = rng.uniform(-10.0, 10.0, d)
    lam, b = 0.25, 1.0
    iterated = {"picard": m, "krasnoselskij": fp.averaged(m, lam),
                "solve_modified": fp.averaged(m, 1.0 / (b + 1.0))}[scheme]
    loose = fp.StopRule(eps_abs=TINY, max_iter=300, norm_cap=math.inf)
    full = quiet_reference(collapse(iterated), x0, loose, kind, store_iterates=True)
    n = 1 + int(at * (full.iterations - 1))
    if field == "eps_abs":
        stop = fp.StopRule(eps_abs=max(full.residuals[n - 1], TINY), max_iter=300)
    elif field == "norm_cap":
        below, above = (reference_norm(x, kind) for x in full.iterates[n - 1:n + 1])
        stop = fp.StopRule(eps_abs=TINY, norm_cap=max((below + above) / 2.0, TINY), max_iter=300)
    else:
        stop = fp.StopRule(eps_abs=TINY, max_iter=n, norm_cap=math.inf)
    want = quiet_reference(collapse(iterated), x0, stop, kind, store_iterates=store)
    if scheme == "picard":
        got = fp.picard(m, x0, stop, kind, store_iterates=store)
    elif scheme == "krasnoselskij":
        got = fp.krasnoselskij(m, lam, x0, stop, kind, store_iterates=store)
    else:
        got = fp.solve_modified(m, b, x0, stop, kind, store_iterates=store).trace
    assert_same_trace(got, want)


def test_picard_discards_few_steps_past_its_stop(monkeypatch):
    # A run computes its steps in blocks and discards those past its stop.
    # Once residuals shrink at a steady rate, the last block is the steps
    # that rate predicts to the tolerance, r <= 64 of them, stretched to
    # ceil(1.1 r) + 2: at most ceil(6.4) + 2 = 9 steps are discarded.
    filled = []
    block_filler = fp.iteration._block_filler

    def counting(m):
        fill = block_filler(m)

        def fill_and_count(rows):
            filled.append(len(rows) - 1)
            fill(rows)

        return fill_and_count

    monkeypatch.setattr(fp.iteration, "_block_filler", counting)
    A = fp.generate_affine_family(31, 3, [0.9, 0.7, 0.4], 1)[0].matrix
    # The fixed point lies inside the box, which clamps the first steps.
    box = fp.Composition((fp.Affine(A, [0.1, -0.2, 0.3]),
                          fp.BoxProjection(np.full(3, -2.0), np.full(3, 2.0))))
    cases = [(fp.scaling_map(0.5, 3), [1.0, -3.0, 2.0], (1e-9, 1e-20, 1e-30, 1e-40, 1e-50)),
             (box, [30.0, -20.0, 10.0], (1e-9, 1e-10, 1e-11, 1e-12, 1e-13, 1e-14))]
    for m, x0, tolerances in cases:
        for eps_abs in tolerances:
            for kind in ALL_KINDS:
                filled.clear()
                tr = fp.picard(m, x0, fp.StopRule(eps_abs=eps_abs), kind)
                assert tr.status is fp.Status.CONVERGED and 30 <= tr.iterations <= 200, eps_abs
                assert sum(filled) - tr.iterations <= 9, (m, eps_abs, kind, filled)


# 1-d affine maps step in Python floats (iteration._block_filler); their
# traces must be the reference loop's, whose steps are numpy calls.
TINY_SLOPE, TINY_OFFSET = 5e-324, -2.5e-320  # subnormal


def test_picard_steps_1d_affine_maps_without_the_compiled_op(monkeypatch):
    def refuse(m):
        raise AssertionError(f"compiled {m!r}")

    monkeypatch.setattr(fp.iteration, "_compile", refuse)
    assert fp.picard(fp.line_map(0.5, 1.0), [0.0]).status is fp.Status.CONVERGED
    # The averaged map folds to one 1-d Affine too.
    assert fp.solve_modified(T_LINE, 3.0, [0.0]).trace.status is fp.Status.CONVERGED
    with pytest.raises(AssertionError, match="compiled"):
        fp.picard(fp.Identity(1), [0.0])  # not an Affine: the compiled op


@pytest.mark.parametrize("max_iter", [1, 7, 9, 100])
def test_picard_1d_affine_matches_the_reference_mid_block(max_iter):
    # max_iter 7 and 100 end inside a block, 1 and 9 on a block's first step.
    stop = fp.StopRule(eps_abs=TINY, max_iter=max_iter)
    for m, x0 in (
        (fp.line_map(-1.0, 0.5), [2.0]),  # x, 0.5 - x, x, ...: never settles
        (fp.line_map(1.0, 0.25), [-3.0]),  # a translation
        (fp.line_map(0.999, 1.0), [0.0]),  # slow contraction
        (fp.line_map(-1.0000001, 3.0), [1.0]),  # slow growth in alternating sign
        (fp.line_map(0.5, -0.0), [1.0]),
        (fp.line_map(-0.5, 0.0), [-0.0]),
        (fp.line_map(TINY_SLOPE, 1.0), [1e300]),
        (fp.line_map(0.5, TINY_OFFSET), [1.0]),
    ):
        tr = fp.picard(m, x0, stop)
        assert tr.iterations <= max_iter
        assert_picard_matches_reference(m, x0, stop)
    for kind in ALL_KINDS:
        tr = fp.picard(fp.line_map(-1.0, 0.5), [2.0], stop, kind)
        assert tr.status is fp.Status.MAX_ITER_REACHED and tr.iterations == max_iter


def test_picard_1d_affine_signed_zeros_and_subnormals_match_the_reference():
    # a*v + c rounds as numpy's dot then add: -0.0 + -0.0 stays -0.0, and
    # -0.0 + 0.0 is 0.0. Subnormal slopes and offsets round to their own
    # bits; every stored iterate is compared byte for byte. The residuals
    # here are subnormal too, where spaces._l2 rescales and the reference's
    # np.linalg.norm reads 0, so the grid runs in l1 and linf.
    cases = [(a, c, x0) for a in (0.5, -0.5, 0.0, -0.0, TINY_SLOPE, -TINY_SLOPE)
             for c in (0.0, -0.0, TINY_OFFSET, -TINY_OFFSET) for x0 in (0.0, -0.0, 3e-320)]
    for a, c, x0 in cases:
        m = fp.line_map(a, c)
        for stop in (fp.StopRule(), fp.StopRule(eps_abs=TINY, max_iter=20)):
            for kind in (fp.NormKind.L1, fp.NormKind.LINF):
                for store in (False, True):
                    want = reference_picard(m, [x0], stop, kind, store_iterates=store)
                    assert_same_trace(fp.picard(m, [x0], stop, kind, store_iterates=store), want)
    for c, sign in ((-0.0, -1.0), (0.0, 1.0)):
        tr = fp.picard(fp.line_map(-0.5, c), [0.0], store_iterates=True)
        assert tr.residuals == [0.0]
        assert [math.copysign(1.0, x[0]) for x in tr.iterates] == [1.0, sign]


def test_picard_1d_affine_overflow_ends_diverged_unrecorded():
    # Doubling from 2^1020 with no norm cap: three recorded steps, then the
    # fourth overflows to inf and ends the run unrecorded. The block goes on
    # to inf, inf, ..., whose steps inf - inf are NaN; they are discarded
    # without a warning.
    m = fp.line_map(2.0, 1.0)
    stop = fp.StopRule(norm_cap=math.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in ALL_KINDS:
            for store in (False, True):
                tr = fp.picard(m, [2.0**1020], stop, kind, store_iterates=store)
                assert tr.status is fp.Status.DIVERGED and tr.iterations == 3
                assert tr.final.tolist() == [2.0**1023]
        # From near 1e308 the first step overflows: nothing is recorded.
        tr = fp.picard(fp.line_map(-1e10, 0.0), [1.5e308], stop, store_iterates=True)
        assert tr.status is fp.Status.DIVERGED and tr.iterations == 0
        assert tr.final.tolist() == [1.5e308] and len(tr.iterates) == 1
    assert_picard_matches_reference(m, [2.0**1020], stop)
    assert_picard_matches_reference(fp.line_map(-1e10, 0.0), [1.5e308], stop)


def test_picard_discards_overflowing_steps_past_the_stop_quietly():
    # The norm cap ends the run at step 1 (1e100), but picard has already
    # computed the rest of the block: 1e200, 1e300, then inf. Those steps and
    # their norms overflow without a warning and leave no trace.
    m = fp.scaling_map(1e100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kind in ALL_KINDS:
            for store in (False, True):
                tr = fp.picard(m, [1.0], norm_kind=kind, store_iterates=store)
                assert tr.status is fp.Status.DIVERGED
                assert tr.residuals == [1e100 - 1.0] and tr.final.tolist() == [1e100]
                assert_same_trace(tr, reference_picard(m, [1.0], norm_kind=kind,
                                                       store_iterates=store))


def test_picard_evaluation_overflow_ends_diverged_unrecorded():
    # 1e300 * 1e10 overflows to inf on the first step, which is not recorded.
    for kind in fp.NormKind:
        tr = fp.picard(fp.scaling_map(1e300), [1e10], norm_kind=kind, store_iterates=True)
        assert tr.status is fp.Status.DIVERGED
        assert tr.iterations == 0 and tr.residuals == [] and tr.ratios == []
        assert tr.final.tolist() == [1e10]
        assert_same_trace(tr, reference_picard(fp.scaling_map(1e300), [1e10], norm_kind=kind,
                                               store_iterates=True))


def test_picard_nan_step_ends_diverged_unrecorded():
    # x -> 2y - y with y = 1e50 x: exact while 2y is finite, so the iterates
    # climb 1e50, 1e100, ..., 1e300 (l2 norms overflow from 1e200 on, and
    # with no norm cap those steps are recorded). Then y overflows and
    # inf - inf gives NaN: that step ends the run and is not recorded.
    # picard folds the tree to x -> 1e50 x, whose seventh step is inf
    # instead of NaN; the trace is the tree's all the same.
    double_less_one = fp.LinearCombinationWithIdentity(2.0, -1.0, fp.Identity(1))
    m = fp.Composition((fp.scaling_map(1e50), double_less_one))
    stop = fp.StopRule(norm_cap=math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(fp.mappings._compile(m)(np.array([1e300]))[0])
    for kind in fp.NormKind:
        tr = fp.picard(m, [1.0], stop, kind, store_iterates=True)
        assert tr.status is fp.Status.DIVERGED
        assert tr.iterations == 6
        assert tr.final[0] == pytest.approx(1e300, rel=1e-12)
        assert_same_trace(tr, quiet_reference(m, [1.0], stop, kind, store_iterates=True))
    l2 = fp.picard(m, [1.0], stop)
    assert l2.residuals[-3:] == [math.inf] * 3


def test_picard_nan_step_in_an_unfoldable_subtree_ends_diverged_unrecorded():
    # x -> 1e300 x - 1e300 clip(x) + 1e9 cannot fold (the box has no affine
    # form). From 0 the first step lands on 1e9. At 1e9 both products
    # overflow and inf - inf gives NaN inside picard: that step ends the run
    # and is not recorded.
    shift = fp.Affine(np.eye(1), [1e9])
    m = fp.Composition((fp.LinearCombinationWithIdentity(
        1e300, -1e300, fp.BoxProjection([-1e10], [1e10])), shift))
    assert collapse(m) == m
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(fp.mappings._compile(collapse(m))(np.array([1e9]))[0])
    for kind in fp.NormKind:
        tr = fp.picard(m, [0.0], norm_kind=kind, store_iterates=True)
        assert tr.status is fp.Status.DIVERGED
        assert tr.iterations == 1 and tr.residuals == [1e9]
        assert tr.final.tolist() == [1e9]
        assert_same_trace(tr, reference_picard(m, [0.0], norm_kind=kind, store_iterates=True))


def test_picard_keeps_a_subtree_whose_fold_overflows():
    # The fold of 1e200 * 1e200 overflows, so the composition is iterated as
    # it stands: from 1e-300 the first step is exactly 1e100, and the norm
    # cap ends the run there, as on the unfolded tree. No warning escapes.
    m = fp.Composition((fp.scaling_map(1e200), fp.scaling_map(1e200)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert collapse(m) == m
        for kind in fp.NormKind:
            tr = fp.picard(m, [1e-300], norm_kind=kind)
            assert tr.status is fp.Status.DIVERGED
            assert tr.residuals == [1e100] and tr.final.tolist() == [1e100]
            assert_same_trace(tr, reference_picard(m, [1e-300], norm_kind=kind))


def test_picard_norm_overflow_on_finite_entries_is_recorded_then_capped():
    # 1e200 is finite, but its square overflows: the l2 residual and norm are
    # inf. The step is recorded, then the norm cap ends the run.
    m = fp.scaling_map(1e200, dim=2)
    for kind in fp.NormKind:
        tr = fp.picard(m, [1.0, -1.0], norm_kind=kind)
        assert tr.status is fp.Status.DIVERGED
        assert tr.iterations == 1
        assert tr.final.tolist() == [1e200, -1e200]
        assert_same_trace(tr, quiet_reference(m, [1.0, -1.0], norm_kind=kind))
    assert fp.picard(m, [1.0, -1.0]).residuals == [math.inf]
    assert fp.picard(m, [1.0, -1.0], norm_kind=fp.NormKind.LINF).residuals == [1e200]


# --- krasnoselskij ---


def test_krasnoselskij_demo_map_quarter():
    tr = fp.krasnoselskij(T_LINE, 0.25, [0.0])
    assert tr.status is fp.Status.CONVERGED
    assert tr.iterations <= 40
    assert tr.final[0] == pytest.approx(X_STAR, abs=1e-8)


def test_krasnoselskij_half_turn_rotation_kills_in_two_steps():
    # T_1/2 x = (x + (-x))/2 = 0: the first step jumps to the origin, the
    # second observes a zero residual and stops.
    tr = fp.krasnoselskij(fp.Rotation(math.pi), 0.5, [7.0, -3.0])
    assert tr.status is fp.Status.CONVERGED
    assert tr.iterations == 2
    # sin(pi) rounds to 1.2e-16 rather than 0, so the landing point is only
    # zero up to one rounding of the start vector.
    np.testing.assert_allclose(tr.final, [0.0, 0.0], atol=1e-15)


def test_krasnoselskij_quarter_turn_contracts_at_inverse_sqrt2():
    tr = fp.krasnoselskij(fp.Rotation(math.pi / 2), 0.5, [1.0, 0.0])
    assert tr.status is fp.Status.CONVERGED
    np.testing.assert_allclose(tr.final, [0.0, 0.0], atol=1e-8)
    assert fp.empirical_ratio(tr) == pytest.approx(1.0 / math.sqrt(2.0), abs=1e-3)


def test_krasnoselskij_lambda_validation():
    for lam in (0.0, 1.0, -0.25, 1.25):
        with pytest.raises(ParameterOutOfRange):
            fp.krasnoselskij(T_LINE, lam, [0.0])


def test_krasnoselskij_is_picard_on_averaged_map_bit_for_bit():
    for x0 in ([0.0], [123.456]):
        a = fp.krasnoselskij(T_LINE, 0.25, x0)
        b = fp.picard(fp.averaged(T_LINE, 0.25), x0)
        assert a.residuals == b.residuals
        assert a.ratios == b.ratios
        assert a.status is b.status
        np.testing.assert_array_equal(a.final, b.final)


# --- solve_modified ---


def test_solve_demo_map():
    res = fp.solve_modified(T_LINE, 3.0, [0.0])
    assert res.lam == 0.25
    assert res.fixed_point[0] == pytest.approx(X_STAR, abs=1e-8)
    assert res.trace.status is fp.Status.CONVERGED
    assert res.residual_T <= 1e-7


def test_solve_residual_past_the_float_range_reads_inf():
    # One averaged step lands on 5e299, where T overflows: the run ends
    # diverged, and residual_T, which evaluates T there, reads inf.
    res = fp.solve_modified(fp.line_map(1e300, 0.0), 1.0, [1.0])
    assert res.trace.status is fp.Status.DIVERGED
    assert res.residual_T == math.inf


def test_solve_scaled_example_map():
    res = fp.solve_modified(fp.scaling_map(-1.0), 2.0, [5.0])
    assert res.fixed_point[0] == pytest.approx(0.0, abs=1e-9)


def test_solve_rotation_fails_verification_but_converges():
    # The sampled check refutes the condition, and the solve converges anyway.
    rotation = fp.Rotation(math.pi / 2)
    report = fp.verify_condition(rotation, 1.0, fp.ConditionKind.MODIFIED)
    res = fp.solve_modified(rotation, 1.0, [1.0, 0.0])
    assert not report.passed
    assert res.trace.status is fp.Status.CONVERGED
    np.testing.assert_allclose(res.fixed_point, [0.0, 0.0], atol=1e-8)
    assert fp.empirical_ratio(res.trace) == pytest.approx(0.7071, abs=1e-3)


def test_solve_verify_attaches_passing_report():
    report = fp.verify_condition(T_LINE, 3.0, fp.ConditionKind.MODIFIED)
    res = fp.solve_modified(T_LINE, 3.0, [0.0])
    assert report.passed
    assert res.trace.status is fp.Status.CONVERGED


def test_solve_rejects_nonpositive_b():
    with pytest.raises(ParameterOutOfRange, match="krasnoselskij"):
        fp.solve_modified(T_LINE, 0.0, [0.0])
    with pytest.raises(ParameterOutOfRange):
        fp.solve_modified(T_LINE, -2.0, [0.0])


def test_solve_residual_transfer_identity():
    # (I - T_lam)x = lam * (I - T)x for every x, so the T-residual is the
    # T_lam-residual divided by lam. Relative agreement away from the fixed
    # point, absolute agreement at it.
    res = fp.solve_modified(T_LINE, 3.0, [0.0])
    lam, xhat = res.lam, res.fixed_point
    t_lam = fp.averaged(T_LINE, lam)
    rng = np.random.default_rng(61)
    for _ in range(1000):
        x = rng.uniform(-100.0, 100.0, 1)
        direct = fp.norm(fp.evaluate(T_LINE, x) - x)
        via_avg = fp.norm(fp.evaluate(t_lam, x) - x) / lam
        np.testing.assert_allclose(via_avg, direct, rtol=1e-10)
    res_T = fp.norm(fp.evaluate(T_LINE, xhat) - xhat)
    res_lam = fp.norm(fp.evaluate(t_lam, xhat) - xhat)
    assert abs(lam * res_T - res_lam) <= 1e-12
    assert res_T <= (1.0 / lam) * res.trace.residuals[-1] + 1e-12
    for tol in (1e-6, 1e-9):
        if fp.check_fixed_point(t_lam, xhat, tol)[0]:
            assert fp.check_fixed_point(T_LINE, xhat, tol / lam)[0]


def test_solve_initial_guess_independence():
    rng = np.random.default_rng(20260814)
    for v in rng.uniform(-1e6, 1e6, 20):
        res = fp.solve_modified(T_LINE, 3.0, [v])
        assert res.trace.status is fp.Status.CONVERGED
        assert res.fixed_point[0] == pytest.approx(X_STAR, abs=1e-8)


def test_contraction_residual_decay_on_exact_traces():
    # Asserted on runs whose float arithmetic is exact, where the 1e-12
    # relative slack is meaningful. Each mapping passes its modified check.
    cases = [
        (T_LINE, 3.0, [0.0]),
        (fp.scaling_map(0.0), 1.0, [100.0]),
        (fp.Affine(-2.0 * np.eye(2), [100.0, 50.0]), 3.0, [0.0, 0.0]),
    ]
    for mapping, b, x0 in cases:
        assert fp.verify_condition(mapping, b, fp.ConditionKind.MODIFIED).passed
        lam = 1.0 / (b + 1.0)
        tr = fp.krasnoselskij(mapping, lam, x0)
        for prev, cur in zip(tr.residuals, tr.residuals[1:]):
            assert cur <= lam * prev * (1.0 + 1e-12)


# --- a-priori bound ---


def test_apriori_worked_examples_against_exact_oracle():
    assert fp.apriori_iterations(0.25, 25.0, 1e-9) == 18
    assert apriori_iterations_exact(
        Fraction(1, 4), Fraction(25), Fraction(1, 10**9)
    ) == 18
    assert fp.apriori_iterations(0.5, 0.0, 1e-3) == 0
    # 0.5^n * 1 / 0.5 = 2^(1-n) needs n = 3 to reach 0.25.
    assert fp.apriori_iterations(0.5, 1.0, 0.25) == 3
    assert apriori_iterations_exact(
        Fraction(1, 2), Fraction(1), Fraction(1, 4)
    ) == 3
    # Past the float range: eps*(1-lam)/d1 underflows to 0 in the closed form,
    # and 0.5**n does past n = 1075, where 0.5**1075 * 2 == 5e-324 is a tie.
    assert fp.apriori_iterations(0.5, 1e300, 1e-300) == 1995
    assert apriori_iterations_exact(Fraction(0.5), Fraction(1e300), Fraction(1e-300)) == 1995
    assert fp.apriori_iterations(0.5, 1.0, 5e-324) == 1075
    assert apriori_iterations_exact(Fraction(0.5), Fraction(1.0), Fraction(5e-324)) == 1075
    # The closed form in logs overshoots by one (132), so the fix-up walks
    # down; then undershoots by one (50), so it walks up.
    for args, want in (
        ((0.7915226654268175, 94.94460776201504, 2.27567914049222e-11), 131),
        ((0.06287821051441683, 2.0, 1.7957365768136675e-60), 51),
    ):
        assert fp.apriori_iterations(*args) == want
        assert apriori_iterations_exact(*map(Fraction, args)) == want


def test_apriori_validation():
    with pytest.raises(ParameterOutOfRange):
        fp.apriori_iterations(1.0, 1.0, 1e-3)
    with pytest.raises(ParameterOutOfRange):
        fp.apriori_iterations(0.5, -1.0, 1e-3)
    with pytest.raises(ParameterOutOfRange):
        fp.apriori_iterations(0.5, 1.0, 0.0)


@pytest.mark.parametrize("bad", ["abc", None, [0.5], True])
def test_scalar_parameters_that_are_not_numbers_are_typed_errors(bad):
    for call, match in (
        (lambda: fp.averaged(T_LINE, bad), "lambda must lie in"),
        (lambda: fp.krasnoselskij(T_LINE, bad, [0.0]), "lambda must lie in"),
        (lambda: fp.solve_modified(T_LINE, bad, [0.0]), "b must be finite and > 0"),
        (lambda: fp.apriori_iterations(bad, 1.0, 1e-3), "lambda must lie in"),
        (lambda: fp.apriori_iterations(0.5, bad, 1e-3), "d1 must be finite"),
        (lambda: fp.apriori_iterations(0.5, 1.0, bad), "eps must be positive"),
        (lambda: fp.check_fixed_point(T_LINE, [0.0], bad), "tol must be a number"),
    ):
        with pytest.raises(ParameterOutOfRange, match=match):
            call()
    with pytest.raises(ParameterOutOfRange, match="tol must be a number >= 0"):
        fp.check_fixed_point(T_LINE, [0.0], float("nan"))


def test_integers_past_the_float_range_are_typed_errors():
    # float() raises OverflowError on these; each check refuses them as it
    # refuses inf.
    big = 10**400
    for call, match in (
        (lambda: fp.solve_modified(T_LINE, big, [0.0]), "b must be finite and > 0"),
        (lambda: fp.apriori_iterations(0.5, big, 1e-3), "d1 must be finite"),
        (lambda: fp.StopRule(eps_abs=big), "eps_abs must lie within the float range"),
        (lambda: fp.StopRule(eps_rel=-big), "eps_rel must lie within the float range"),
        (lambda: fp.StopRule(norm_cap=big), "norm_cap must lie within the float range"),
        (lambda: fp.verify_condition(T_LINE, big, fp.ConditionKind.MODIFIED), "b must be finite"),
        (lambda: fp.PairSampler(box_radius=big), "box_radius must keep"),
    ):
        with pytest.raises(ParameterOutOfRange, match=match):
            call()
    # An eps past the float range reads as inf: any start meets it at once.
    assert fp.apriori_iterations(0.5, 1.0, big) == 0


@given(
    st.floats(0.05, 0.9),
    st.floats(0.0, 1e4),
    st.floats(1e-6, 10.0),
)
@settings(max_examples=300, deadline=None)
def test_apriori_is_least_qualifying_count(lam, d1, eps):
    n = fp.apriori_iterations(lam, d1, eps)
    assert lam**n * d1 / (1.0 - lam) <= eps
    if n > 0:
        assert lam ** (n - 1) * d1 / (1.0 - lam) > eps


def test_apriori_dominates_measured_error_iterations():
    # The bound promises error <= eps after its count; check against the
    # actual first iterate within eps of the known fixed point.
    rng = np.random.default_rng(20260814)
    for v in [0.0, *rng.uniform(-1e6, 1e6, 20)]:
        res = fp.solve_modified(T_LINE, 3.0, [v], store_iterates=True)
        tr = res.trace
        measured = next(
            i for i, it in enumerate(tr.iterates) if abs(it[0] - X_STAR) <= 1e-9
        )
        assert fp.apriori_iterations(0.25, tr.residuals[0], 1e-9) >= measured


# --- diagnostics ---


def test_check_fixed_point_examples():
    ok, res = fp.check_fixed_point(T_LINE, [X_STAR], 1e-9)
    assert ok and res <= 1e-9
    ok, res = fp.check_fixed_point(T_LINE, [0.0], 1e-9)
    assert not ok and res == 100.0
    ok, res = fp.check_fixed_point(fp.Identity(2), [4.0, -1.0], 1e-15)
    assert ok and res == 0.0


def test_empirical_ratio_examples():
    res = fp.solve_modified(T_LINE, 3.0, [0.0])
    assert fp.empirical_ratio(res.trace) == pytest.approx(0.25, abs=1e-6)
    tr = fp.picard(fp.scaling_map(0.5), [1.0])
    assert fp.empirical_ratio(tr) == pytest.approx(0.5, abs=1e-9)


def test_empirical_ratio_insufficient_data():
    tr = fp.picard(fp.Identity(1), [3.0])
    with pytest.raises(InsufficientData):
        fp.empirical_ratio(tr)


def test_trace_csv_format(tmp_path):
    tr = fp.krasnoselskij(T_LINE, 0.25, [0.0], fp.StopRule(max_iter=3))
    path = tmp_path / "trace.csv"
    fp.write_trace_csv(tr, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,residual,ratio"
    assert lines[1] == "1,25.0,"
    assert lines[2] == "2,6.25,0.25"
    assert len(lines) == 1 + tr.iterations


def test_trace_csv_into_a_missing_directory_is_io_error(tmp_path):
    tr = fp.picard(fp.scaling_map(0.5), [1.0])
    with pytest.raises(IoError, match="cannot write trace CSV"):
        fp.write_trace_csv(tr, tmp_path / "missing" / "trace.csv")
    assert not (tmp_path / "missing").exists()


_CSV_TRACES = {
    # Zero residuals leave the next ratio undefined: empty middle cells.
    "none-ratios": lambda: fp.IterationTrace(
        [1.0, 0.0, 0.5, 0.25, 0.0, 0.0], fp.Status.MAX_ITER_REACHED, np.zeros(1), fp.NormKind.L2
    ),
    "identity": lambda: fp.picard(fp.Identity(2), [1.0, 2.0]),
    # The l2 norm of (1e200, -1e200) overflows: the recorded residual is inf.
    "norm-overflow": lambda: fp.picard(fp.scaling_map(1e200, dim=2), [1.0, -1.0]),
    # Halving from 1e-305 runs the residuals through the subnormals to 0.
    "subnormal": lambda: fp.picard(fp.scaling_map(0.5), [1e-305], fp.StopRule(eps_abs=5e-324)),
    # The first step overflows and is not recorded: a header-only file.
    "no-steps": lambda: fp.picard(fp.scaling_map(1e300), [1e10]),
    "long": lambda: fp.krasnoselskij(T_LINE, 0.002, [0.0], fp.StopRule(eps_abs=1e-12)),
}


@pytest.mark.parametrize("name", list(_CSV_TRACES))
def test_trace_csv_matches_the_csv_writer_bytes(tmp_path, name):
    trace = _CSV_TRACES[name]()
    fp.write_trace_csv(trace, tmp_path / "new.csv")
    reference_write_trace_csv(trace, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    lines = (tmp_path / "new.csv").read_text().splitlines()
    assert len(lines) == 1 + trace.iterations
    if name == "norm-overflow":
        assert lines[1] == "1,inf,"
    if name == "subnormal":
        assert any(0.0 < r < 2.2250738585072014e-308 for r in trace.residuals)
    if name == "no-steps":
        assert lines == ["iter,residual,ratio"]
    if name == "long":
        assert trace.iterations > 3000
