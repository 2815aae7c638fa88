import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpkit as fp
from fpkit.errors import DimensionMismatch, InsufficientData, ParameterOutOfRange

from _family import apriori_iterations_exact, reference_norm, reference_picard

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
    return cases


@pytest.mark.parametrize("kind", [fp.NormKind.L1, fp.NormKind.L2, fp.NormKind.LINF])
def test_schemes_match_the_reference_loop_bit_for_bit(kind):
    stop = fp.StopRule(max_iter=400)
    lam, b = 0.25, 3.0
    for name, m, x0 in _loop_cases():
        for store in (False, True):
            want = reference_picard(m, x0, stop, kind, store_iterates=store)
            assert_same_trace(fp.picard(m, x0, stop, kind, store_iterates=store), want)

            want = reference_picard(fp.averaged(m, lam), x0, stop, kind, store_iterates=store)
            assert_same_trace(fp.krasnoselskij(m, lam, x0, stop, kind, store_iterates=store), want)

            res = fp.solve_modified(m, b, x0, stop, kind, store_iterates=store)
            want = reference_picard(fp.averaged(m, 1.0 / (b + 1.0)), x0, stop, kind,
                                    store_iterates=store)
            assert_same_trace(res.trace, want)
            assert res.fixed_point.tobytes() == want.final.tobytes()
            assert repr(res.residual_T) == repr(
                reference_norm(fp.evaluate(m, want.final) - want.final, kind)
            ), name


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
    double_less_one = fp.LinearCombinationWithIdentity(2.0, -1.0, fp.Identity(1))
    m = fp.Composition((fp.scaling_map(1e50), double_less_one))
    stop = fp.StopRule(norm_cap=math.inf)
    with np.errstate(over="ignore", invalid="ignore"):
        assert math.isnan(fp.mappings._apply(m, np.array([1e300]))[0])
    for kind in fp.NormKind:
        tr = fp.picard(m, [1.0], stop, kind, store_iterates=True)
        assert tr.status is fp.Status.DIVERGED
        assert tr.iterations == 6
        assert tr.final[0] == pytest.approx(1e300, rel=1e-12)
        assert_same_trace(tr, quiet_reference(m, [1.0], stop, kind, store_iterates=True))
    l2 = fp.picard(m, [1.0], stop)
    assert l2.residuals[-3:] == [math.inf] * 3


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


def test_solve_scaled_example_map():
    res = fp.solve_modified(fp.scaling_map(-1.0), 2.0, [5.0])
    assert res.fixed_point[0] == pytest.approx(0.0, abs=1e-9)


def test_solve_rotation_fails_verification_but_converges():
    res = fp.solve_modified(fp.Rotation(math.pi / 2), 1.0, [1.0, 0.0], verify=True)
    assert res.condition_verified is not None
    assert not res.condition_verified.passed
    assert res.trace.status is fp.Status.CONVERGED
    np.testing.assert_allclose(res.fixed_point, [0.0, 0.0], atol=1e-8)
    assert fp.empirical_ratio(res.trace) == pytest.approx(0.7071, abs=1e-3)


def test_solve_verify_attaches_passing_report():
    res = fp.solve_modified(T_LINE, 3.0, [0.0], verify=True)
    assert res.condition_verified is not None and res.condition_verified.passed


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


def test_apriori_validation():
    with pytest.raises(ParameterOutOfRange):
        fp.apriori_iterations(1.0, 1.0, 1e-3)
    with pytest.raises(ParameterOutOfRange):
        fp.apriori_iterations(0.5, -1.0, 1e-3)
    with pytest.raises(ParameterOutOfRange):
        fp.apriori_iterations(0.5, 1.0, 0.0)


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
