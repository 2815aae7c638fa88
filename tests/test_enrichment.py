import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fpkit as fp
from fpkit import enrichment, spaces
from fpkit.enrichment import B_TOL
from fpkit.errors import DimensionMismatch, InvariantViolation, NonFiniteResult, ParameterOutOfRange

from _family import (
    B_GRID,
    family50,
    reduction_identity_gap,
    reference_draw,
    reference_verify,
    separated_pairs,
)

T_LINE = fp.line_map(-2.0, 100.0)  # x -> 100 - 2x, the running demo map

# Hand-chosen matrices for the exact min-b analysis. Symmetric parts stay
# well below 1 so the enriched inequality is eventually feasible, and each
# one keeps the feasibility boundary away from the test grid's knife edges.
MATRICES_ENRICHED = [
    np.array([[-2.0]]),
    np.array([[0.2, -1.5], [1.5, 0.3]]),
    np.array([[-2.0, 0.0], [0.0, 0.5]]),
]
MATRICES_MODIFIED = [
    np.array([[-2.0]]),
    np.array([[-0.8, -0.5], [0.5, -0.8]]),
    np.array([[-1.0, -0.3], [0.3, -1.0]]),
]


# --- transforms ---


def test_averaged_identity_is_identity():
    m = fp.averaged(fp.Identity(2), 0.3)
    x = np.array([1.5, -2.0])
    np.testing.assert_allclose(fp.evaluate(m, x), x, rtol=1e-15)


def test_averaged_quarter_step_at_zero():
    m = fp.averaged(T_LINE, 0.25)
    assert fp.evaluate(m, [0.0])[0] == 25.0


def test_averaged_lambda_one_equals_base():
    m = fp.averaged(T_LINE, 1.0)
    for x in ([0.0], [7.0], [-3.5]):
        assert fp.evaluate(m, x)[0] == fp.evaluate(T_LINE, x)[0]


def test_averaged_rejects_bad_lambda():
    for lam in (0.0, -0.1, 1.0 + 1e-12, float("nan")):
        with pytest.raises(ParameterOutOfRange):
            fp.averaged(T_LINE, lam)


def test_enriched_reduction_at_b_zero_equals_base():
    m = fp.enriched_reduction(T_LINE, 0.0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(-100.0, 100.0, 1)
        assert fp.evaluate(m, x)[0] == fp.evaluate(T_LINE, x)[0]


def test_enriched_reduction_half_gives_shifted_negation():
    # ((x/2) + 100 - 2x) / (3/2) simplifies to 200/3 - x.
    m = fp.enriched_reduction(T_LINE, 0.5)
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = float(rng.uniform(-100.0, 100.0))
        np.testing.assert_allclose(fp.evaluate(m, [x])[0], 200.0 / 3.0 - x, rtol=1e-14)


def test_enriched_reduction_coincides_with_averaged():
    # Same dataclass value, not merely pointwise agreement.
    assert fp.enriched_reduction(T_LINE, 3.0) == fp.averaged(T_LINE, 0.25)
    red = fp.enriched_reduction(T_LINE, 2.0)
    avg = fp.averaged(T_LINE, 1.0 / 3.0)
    rng = np.random.default_rng(7)
    for _ in range(1000):
        x = rng.uniform(-100.0, 100.0, 1)
        np.testing.assert_allclose(fp.evaluate(red, x), fp.evaluate(avg, x), atol=1e-12)


def test_modified_shift_basics():
    assert fp.evaluate(fp.modified_shift(T_LINE, 0.0), [4.0])[0] == fp.evaluate(T_LINE, [4.0])[0]
    doubler = fp.modified_shift(fp.Identity(1), 1.0)
    assert fp.evaluate(doubler, [3.0])[0] == 6.0


def test_modified_shift_of_scaled_map_is_identity():
    # T_b x = (1-b)x with b=2: the shift bx + Tx collapses to x, so every
    # point is fixed for the shift while only 0 is fixed for T itself.
    base = fp.scaling_map(-1.0)
    shifted = fp.modified_shift(base, 2.0)
    rng = np.random.default_rng(11)
    for _ in range(100):
        x = rng.uniform(-100.0, 100.0, 1)
        np.testing.assert_array_equal(fp.evaluate(shifted, x), x)
    assert fp.evaluate(base, [0.0])[0] == 0.0
    assert fp.evaluate(base, [1.0])[0] != 1.0


def test_transform_parameter_validation():
    for bad in (-0.5, float("nan")):
        with pytest.raises(ParameterOutOfRange):
            fp.enriched_reduction(T_LINE, bad)
        with pytest.raises(ParameterOutOfRange):
            fp.modified_shift(T_LINE, bad)


# --- sampling ---


def test_sampler_is_deterministic_and_never_degenerate():
    s = fp.PairSampler(seed=77, count=5000)
    xs1, ys1 = s.draw(3)
    xs2, ys2 = s.draw(3)
    np.testing.assert_array_equal(xs1, xs2)
    np.testing.assert_array_equal(ys1, ys2)
    d = np.linalg.norm(xs1 - ys1, axis=1)
    assert np.all(d > 0.0)
    assert np.all(np.abs(xs1) <= s.box_radius) and np.all(np.abs(ys1) <= s.box_radius)


def test_sampler_near_pair_share():
    s = fp.PairSampler(seed=42, count=10_000, near_pair_fraction=0.2)
    xs, ys = s.draw(2)
    d = np.linalg.norm(xs - ys, axis=1)
    near = np.sum(d <= 1e-3 * s.box_radius)
    assert near >= 0.2 * s.count


def test_sampler_validation():
    with pytest.raises(ParameterOutOfRange):
        fp.PairSampler(count=0)
    with pytest.raises(ParameterOutOfRange):
        fp.PairSampler(near_pair_fraction=1.5)
    with pytest.raises(ParameterOutOfRange):
        fp.PairSampler(box_radius=0.0)
    # Uniform draws scale by 2 * box_radius, which must be finite, and far
    # pairs closer than MIN_SEPARATION * box_radius are redrawn, which must
    # not round to 0.
    for r in (1e308, float(np.finfo(float).max), 5e-320, 2.5e-320):
        with pytest.raises(ParameterOutOfRange, match="box_radius"):
            fp.PairSampler(box_radius=r)
    fp.PairSampler(box_radius=8e307)
    # The count is capped by the memory of the near pairs, which a check
    # draws whole; a sampler at the cap is made but not drawn here.
    assert fp.PairSampler(count=enrichment.PAIR_COUNT_CAP).count == enrichment.PAIR_COUNT_CAP
    for count in (enrichment.PAIR_COUNT_CAP + 1, 10**400):
        with pytest.raises(ParameterOutOfRange, match="^count must be an integer in"):
            fp.PairSampler(count=count)
    for dim in (2.5, 0, True, fp.DIM_CAP + 1, 10**400):
        with pytest.raises(ParameterOutOfRange, match="dim"):
            fp.PairSampler().draw(dim)


def _reference_grid():
    """Seeds 0-39 by d in {1, 2, 3, 8, 17, 64}: odd counts that end in a
    partial row block at d = 8, 17 and 64, all-far and all-near samples, and
    affine and box-projected maps. Yields (sampler, mapping, b)."""
    counts = (1, 3, 513, 1027, 2049, 4097, 777, 99)
    for seed in range(40):
        for d in (1, 2, 3, 8, 17, 64):
            count = counts[seed % 8] + 2 * (seed % 3)
            frac = (0.0, 1.0, 0.2, 0.37)[seed % 4]
            sampler = fp.PairSampler(seed=seed, count=count, near_pair_fraction=frac)
            rng = np.random.default_rng(seed)
            mapping = fp.Affine(rng.standard_normal((d, d)), rng.standard_normal(d))
            if seed % 2:
                mapping = fp.Composition([mapping, fp.BoxProjection(-np.ones(d), np.ones(d))])
            yield sampler, mapping, (0.0, 0.5, 1.0, 3.0)[(seed + d) % 4]


def _sampled(mapping, b, kind, sampler, norm_kind=fp.NormKind.L2):
    """``verify_condition``'s sampled check, run on affine maps too."""
    return enrichment._sampled_report(
        mapping, float(b), fp.ConditionKind(kind), sampler, enrichment.DEFAULT_SLACK,
        fp.NormKind(norm_kind),
    )


def _assert_same_sampled_report(got, want, where):
    assert repr(got.max_ratio) == repr(want.max_ratio), where
    np.testing.assert_array_equal(got.witness_x, want.witness_x)
    np.testing.assert_array_equal(got.witness_y, want.witness_y)
    assert got.passed == want.passed and got.pairs_tested == want.pairs_tested
    assert got.status == "sampled" and got.bound is None


def test_draw_matches_the_reference_bit_for_bit():
    for sampler, mapping, _ in _reference_grid():
        xs, ys = sampler.draw(mapping.dim)
        ref_xs, ref_ys = reference_draw(sampler, mapping.dim)
        np.testing.assert_array_equal(xs, ref_xs)
        np.testing.assert_array_equal(ys, ref_ys)


def test_verify_matches_the_whole_batch_reference_bit_for_bit():
    # The sampled check runs on every map of the grid, affine ones too; on
    # the box-projected half verify_condition takes it and gives its report.
    checks = boxed = 0
    for sampler, mapping, b in _reference_grid():
        for kind in fp.ConditionKind:
            for norm_kind in fp.NormKind:
                got = _sampled(mapping, b, kind, sampler, norm_kind)
                want = reference_verify(mapping, b, kind, sampler, norm_kind=norm_kind)
                assert repr(got.max_ratio) == repr(want.max_ratio), (sampler, b, kind, norm_kind)
                np.testing.assert_array_equal(got.witness_x, want.witness_x)
                np.testing.assert_array_equal(got.witness_y, want.witness_y)
                assert got.passed == want.passed and got.pairs_tested == want.pairs_tested
                checks += 1
                if isinstance(mapping, fp.Composition):
                    got = fp.verify_condition(mapping, b, kind, sampler, norm_kind=norm_kind)
                    _assert_same_sampled_report(got, want, (sampler, b, kind, norm_kind))
                    boxed += 1
    assert checks == 1440 and boxed == 720


def test_redraws_match_the_reference_bit_for_bit(monkeypatch):
    # A far pair within 1e-14 * box_radius is too rare to occur, so the
    # separation is raised: in the dense cases about a fifth of the far pairs
    # are too close and redraws run for three rounds or more in every block,
    # in the sparse ones a few blocks hold one too-close pair. A block budget
    # of 2**10 entries spreads each sample over 4 blocks, and the last case
    # takes one of 2**15. Blocks with too-close pairs, the redraws from the
    # stream's end and the witnesses must equal one whole draw's bits.
    checks = 0
    cases = [  # (d, count, block budget, separation, dense)
        (1, 3500, 2**10, 0.2, True),
        (1, 3500, 2**10, 0.0005, False),
        (2, 1700, 2**10, 0.5, True),
        (2, 1700, 2**10, 0.03, False),
        (8, 450, 2**10, 1.8, True),
        (8, 450, 2**10, 0.9, False),
        (8, 3 * 4096 + 5, 2**15, 1.8, True),
    ]
    for d, count, budget, separation, dense in cases:
        monkeypatch.setattr(enrichment, "_BLOCK_ENTRIES", budget)
        monkeypatch.setattr(enrichment, "MIN_SEPARATION", separation)
        step = budget // d
        assert count > 3 * step
        for seed, frac in ((3, 0.0), (4, 0.2)):
            sampler = fp.PairSampler(seed=seed, count=count, near_pair_fraction=frac)
            rounds = []
            ref_xs, ref_ys = reference_draw(sampler, d, rounds)
            n_near = int(round(count * frac))
            held = len(set((rounds[0] + n_near) // step)) if rounds else 0
            if dense:
                assert len(rounds) >= 3 and held >= 3, (d, seed, rounds)
            else:
                assert held < -(-count // step), (d, seed, rounds)
            xs, ys = sampler.draw(d)
            np.testing.assert_array_equal(xs, ref_xs)
            np.testing.assert_array_equal(ys, ref_ys)

            rng = np.random.default_rng(seed)
            mapping = fp.Affine(rng.standard_normal((d, d)), rng.standard_normal(d))
            if seed % 2:
                mapping = fp.Composition([mapping, fp.BoxProjection(-np.ones(d), np.ones(d))])
            for kind in fp.ConditionKind:
                for norm_kind in fp.NormKind:
                    got = _sampled(mapping, 0.5, kind, sampler, norm_kind)
                    want = reference_verify(mapping, 0.5, kind, sampler, norm_kind=norm_kind)
                    assert repr(got.max_ratio) == repr(want.max_ratio), (d, seed, kind)
                    np.testing.assert_array_equal(got.witness_x, want.witness_x)
                    np.testing.assert_array_equal(got.witness_y, want.witness_y)
                    assert got.passed == want.passed
                    checks += 1
                    if seed % 2:
                        got = fp.verify_condition(mapping, 0.5, kind, sampler, norm_kind=norm_kind)
                        _assert_same_sampled_report(got, want, (d, seed, kind))
    assert checks == 84


# --- sampled verification ---


def test_verify_modified_demo_map_passes_at_three():
    # An affine map is decided exactly, from one pair.
    rep = fp.verify_condition(T_LINE, 3.0, fp.ConditionKind.MODIFIED)
    assert rep.passed
    assert rep.max_ratio == pytest.approx(1.0, abs=1e-10)
    assert rep.pairs_tested == 1 and rep.status == "proved"
    assert rep.kind is fp.ConditionKind.MODIFIED


def test_verify_modified_scaled_family_passes():
    for b in (0.5, 1.0, 1.5, 2.0):
        rep = fp.verify_condition(fp.scaling_map(1.0 - b), b, fp.ConditionKind.MODIFIED)
        assert rep.passed
        assert rep.max_ratio == pytest.approx(1.0, abs=1e-10)


def test_verify_modified_demo_map_fails_at_zero_with_witness():
    rep = fp.verify_condition(T_LINE, 0.0, fp.ConditionKind.MODIFIED)
    assert not rep.passed
    assert rep.max_ratio == pytest.approx(2.0, abs=1e-10)
    again = fp.condition_ratio(
        T_LINE, 0.0, fp.ConditionKind.MODIFIED, rep.witness_x, rep.witness_y
    )
    assert again == pytest.approx(rep.max_ratio, abs=1e-12)


def test_verify_enriched_demo_map_ratio_quarter():
    rep = fp.verify_condition(T_LINE, 3.0, fp.ConditionKind.ENRICHED)
    assert rep.passed
    assert rep.max_ratio == pytest.approx(0.25, abs=1e-10)


def test_report_invariants_hold_either_way():
    for b in (0.0, 3.0):
        rep = fp.verify_condition(T_LINE, b, fp.ConditionKind.MODIFIED, slack=1e-9)
        assert rep.passed == (rep.max_ratio <= 1.0 + rep.slack)
        again = fp.condition_ratio(
            T_LINE, b, fp.ConditionKind.MODIFIED, rep.witness_x, rep.witness_y
        )
        assert again == pytest.approx(rep.max_ratio, abs=1e-12)


def test_report_passed_follows_max_ratio():
    # ``passed`` is derived, so a changed ratio changes the verdict with it.
    rep = fp.verify_condition(T_LINE, 3.0, fp.ConditionKind.MODIFIED)
    assert rep.passed
    assert dataclasses.replace(rep, max_ratio=2.0).passed is False
    assert dataclasses.replace(rep, max_ratio=1.0 + rep.slack).passed is True


def test_verify_rejects_negative_b():
    # condition_ratio checks b as verify_condition does; at b = -1 its
    # enriched right-hand side would be 0. A b that is not a number is the
    # same typed error, as are the two reductions that take a b.
    for b in (-1.0, float("nan"), math.inf, "abc", None, [1.0]):
        for kind in fp.ConditionKind:
            with pytest.raises(ParameterOutOfRange, match="b must be finite and >= 0"):
                fp.verify_condition(T_LINE, b, kind)
            with pytest.raises(ParameterOutOfRange, match="b must be finite and >= 0"):
                fp.condition_ratio(T_LINE, b, kind, [0.0], [1.0])
        for reduce in (fp.enriched_reduction, fp.modified_shift):
            with pytest.raises(ParameterOutOfRange, match="b must be finite and >= 0"):
                reduce(T_LINE, b)


def test_verify_rejects_a_bad_slack():
    # The one slack check: a config refuses what the library refuses.
    for slack in (-5.0, float("nan"), math.inf, "x", None, True):
        with pytest.raises(ParameterOutOfRange, match="slack: must be finite and >= 0"):
            fp.verify_condition(T_LINE, 1.0, "modified", fp.PairSampler(count=10), slack=slack)
    rep = fp.verify_condition(T_LINE, 3.0, "modified", fp.PairSampler(count=10), slack=0)
    assert type(rep.slack) is float and rep.slack == 0.0


def test_condition_ratio_rejects_pairs_without_a_ratio():
    # x = y leaves the ratio undefined, and a non-finite entry is an input
    # error, not an overflow of the mapping.
    for x, y, match in (
        ([1.0], [1.0], "x and y must differ"),
        ([1.0], [math.nan], "y: entries must be finite"),
        ([math.inf], [1.0], "x: entries must be finite"),
        ([], [1.0], "x: expected a non-empty 1-D array"),
    ):
        with pytest.raises(InvariantViolation, match=match):
            fp.condition_ratio(T_LINE, 1.0, fp.ConditionKind.ENRICHED, x, y)


def test_condition_ratio_names_a_point_of_the_wrong_dimension():
    # x and y are checked against the mapping as the solvers check x0.
    for x, y, name in (([0.0, 1.0], [1.0], "x"), ([0.0], [1.0, 2.0, 3.0], "y")):
        with pytest.raises(DimensionMismatch, match=f"^{name}: dimension [23] does not match"):
            fp.condition_ratio(T_LINE, 1.0, fp.ConditionKind.ENRICHED, x, y)


def test_unknown_kinds_and_norms_are_typed_errors():
    A = np.array([[-2.0]])
    for call in (
        lambda kind, nk: fp.verify_condition(T_LINE, 1.0, kind, norm_kind=nk),
        lambda kind, nk: fp.condition_ratio(T_LINE, 1.0, kind, [0.0], [1.0], nk),
        lambda kind, nk: fp.min_b_affine(A, kind, nk),
    ):
        with pytest.raises(ParameterOutOfRange, match="unknown norm 'l3'"):
            call(fp.ConditionKind.ENRICHED, "l3")
        with pytest.raises(ParameterOutOfRange, match="unknown condition kind 'weak'"):
            call("weak", fp.NormKind.L2)


def test_verify_on_a_huge_box_is_not_nan():
    # Squared l2 distances overflow at this radius; those rows are rescored
    # in scaled units, so the line x -> 1 - 2x keeps its exact enriched
    # ratio at b = 1, and so does x -> -2x in 2-d in every norm, where each
    # l2 square of a pair's difference overflows.
    # Both the exact path and the sampled one, whose rows are rescored.
    sampler = fp.PairSampler(box_radius=1e200, count=10)
    for check in (fp.verify_condition, _sampled):
        rep = check(fp.line_map(-2.0, 1.0), 1.0, fp.ConditionKind.ENRICHED, sampler)
        assert rep.max_ratio == pytest.approx(0.5, rel=1e-12)
        assert rep.passed
        for nk in fp.NormKind:
            rep = check(
                fp.scaling_map(-2.0, 2), 1.0, fp.ConditionKind.ENRICHED, sampler, norm_kind=nk
            )
            assert rep.max_ratio == pytest.approx(0.5, rel=1e-12), nk
            assert rep.passed


def test_verify_near_the_box_limit_does_not_overflow_the_condition():
    # At radius 4e307 every operand is finite, but b*(x-y) + Tx - Ty, the
    # right-hand side (b+1)*||x-y|| and l1 sums over two entries overflow.
    # Overflowing rows are rescored in exactly scaled units, so every pair
    # keeps the map's exact ratio: 1 for the modified line at b = 3, 0.25 for
    # x -> -2x enriched at b = 3, 1 for the 2-d modified shift at b = 3, up
    # to the cancellation in Tx - Ty of near pairs 1e-4 * r apart (~1e-12).
    sampler = fp.PairSampler(box_radius=4e307, count=100)
    cases = [
        (fp.line_map(-2.0, 100.0), fp.ConditionKind.MODIFIED, 1.0),
        (fp.line_map(-2.0, 0.0), fp.ConditionKind.ENRICHED, 0.25),
        (fp.scaling_map(-2.0, 2), fp.ConditionKind.MODIFIED, 1.0),
    ]
    # Both the exact path and the sampled one, whose rows are rescored.
    for check in (fp.verify_condition, _sampled):
        for mapping, kind, want in cases:
            for nk in fp.NormKind:
                rep = check(mapping, 3.0, kind, sampler, norm_kind=nk)
                assert rep.max_ratio == pytest.approx(want, rel=1e-10), (kind, nk)
                assert rep.passed
                x, y = rep.witness_x, rep.witness_y
                assert fp.condition_ratio(mapping, 3.0, kind, x, y, nk) == rep.max_ratio


def test_verify_ratio_past_the_float_range_reads_inf():
    # x -> 1.7e308 * clip(x_1) * (1, 1): each side of the condition is
    # finite once rescored, but for pairs along the first axis their l1 and
    # l2 quotients exceed the float range (up to 2.7e308 and 1.9e308). The
    # ratio reads inf and refutes the condition, with no warning on the way.
    big = fp.Affine([[1.7e308, 0.0], [1.7e308, 0.0]], [0.0, 0.0])
    m = fp.Composition((fp.BoxProjection([-1.0, -1.0], [1.0, 1.0]), big))
    sampler = fp.PairSampler(box_radius=1.0, count=2000)
    for nk in (fp.NormKind.L1, fp.NormKind.L2):
        rep = fp.verify_condition(m, 0.25, fp.ConditionKind.ENRICHED, sampler, norm_kind=nk)
        assert rep.max_ratio == math.inf and not rep.passed, nk


def test_verify_overflowing_mapping_raises_non_finite():
    # Every image overflows on the default box; on a box of radius 20 only
    # the rows with |x| > 17.97 do.
    for sampler in (None, fp.PairSampler(box_radius=20.0)):
        with pytest.raises(
            NonFiniteResult, match="^mapping evaluation overflowed to a non-finite vector$"
        ):
            fp.verify_condition(fp.scaling_map(1e307, 2), 1.0, fp.ConditionKind.ENRICHED, sampler)


def _boxed_d64():
    """A d = 64 map with a box, which the sampled check takes."""
    (affine,) = fp.generate_affine_family(0, 64, np.linspace(0.1, 1.8, 64), 1)
    return fp.Composition((affine, fp.BoxProjection(-np.ones(64), np.ones(64))))


def test_verify_memory_is_about_the_pair_arrays():
    # Two (10_000, 64) float64 pair arrays take 10.24 MB; a whole-batch pass
    # over them peaked near 29.4 MB of numpy temporaries.
    mapping = _boxed_d64()
    sampler = fp.PairSampler(count=10_000)
    fp.verify_condition(mapping, 1.0, fp.ConditionKind.ENRICHED, sampler)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fp.verify_condition(mapping, 1.0, fp.ConditionKind.ENRICHED, sampler)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 2 * 10_000 * 64 * 8, peak


def test_verify_streams_its_pairs():
    # Pairs are scored in the block buffers they are drawn into, so a check
    # at d = 64 holds the near pairs' steps (1.02 MB), one block's arrays and
    # the ratios: under half the 10.24 MB of two (10_000, 64) pair arrays.
    mapping = _boxed_d64()
    sampler = fp.PairSampler(count=10_000)
    fp.verify_condition(mapping, 1.0, fp.ConditionKind.ENRICHED, sampler)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fp.verify_condition(mapping, 1.0, fp.ConditionKind.ENRICHED, sampler)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * 2 * 10_000 * 64 * 8, peak


# --- exact verdicts for affine maps ---

_ORDS = {fp.NormKind.L1: 1, fp.NormKind.L2: 2, fp.NormKind.LINF: np.inf}


def _exact_cases():
    """Random affine maps, linear combinations over them and rotations at d
    in {1, 2, 8, 64}, each with a b drawn from the grid or at random."""
    rng = np.random.default_rng(2801)
    for d in (1, 2, 8, 64):
        for _ in range(4):
            A = rng.standard_normal((d, d)) * rng.uniform(0.1, 3.0) / math.sqrt(d)
            m = fp.Affine(A, rng.standard_normal(d))
            yield m
            yield fp.LinearCombinationWithIdentity(
                float(rng.uniform(-1.0, 1.0)), float(rng.uniform(-2.0, 2.0)), m
            )
            if d == 2:
                yield fp.Rotation(float(rng.uniform(-math.pi, math.pi)))


def test_affine_maps_are_decided_by_the_operator_norm():
    # The witness attains the bound up to rounding, within min_b_affine's
    # allowance, lies in the sampler's box and reproduces max_ratio on T
    # itself; the status is numpy's verdict on ||bI + A|| / rhs(b).
    rng = np.random.default_rng(2802)
    sampler = fp.PairSampler(box_radius=7.5)
    checks = 0
    for m in _exact_cases():
        A, _ = fp.as_affine(m)
        d = A.shape[0]
        for norm_kind, ord_ in _ORDS.items():
            for kind in fp.ConditionKind:
                b = float(rng.choice([*B_GRID, rng.uniform(0.0, 5.0)]))
                rep = fp.verify_condition(m, b, kind, sampler, norm_kind=norm_kind)
                rhs = enrichment._factor(b, kind)
                where = (d, b, kind, norm_kind)
                assert rep.pairs_tested == 1, where
                assert abs(rep.max_ratio - rep.bound) <= 1e-12 * rep.bound, where
                allowance = enrichment._ROUNDING * d * (b + np.linalg.norm(A, ord_) + 1.0)
                assert abs(rep.max_ratio - rep.bound) * rhs <= allowance, where
                again = fp.condition_ratio(
                    m, b, kind, rep.witness_x, rep.witness_y, norm_kind
                )
                assert again == rep.max_ratio, where
                for point in (rep.witness_x, rep.witness_y):
                    assert np.abs(point).max() <= sampler.box_radius, where
                exact = np.linalg.norm(b * np.eye(d) + A, ord_) / rhs
                assert rep.status == ("proved" if exact <= 1.0 + rep.slack else "refuted"), where
                assert rep.passed == (rep.status == "proved"), where
                checks += 1
    assert checks == (4 * 4 * 2 + 4) * 6


def test_exact_path_has_no_false_passes_where_the_sample_had_them():
    # ROADMAP item 1's table: the enriched l2 check at b in {0.5, 1, 3} on
    # generate_affine_family(0, d, linspace(0.1, 1.8, d), 5). The default
    # 10k-pair sample passed 0, 1 and 10 of 15 maps whose exact ratio
    # exceeds 1 at d = 2, 8 and 64; the exact path passes none, and agrees
    # with the exact ratio to a few ulps.
    for d, sampled_false_passes in ((2, 0), (8, 1), (64, 10)):
        maps = fp.generate_affine_family(0, d, np.linspace(0.1, 1.8, d), 5)
        false_passes = [0, 0]
        for m in maps:
            for b in (0.5, 1.0, 3.0):
                exact = np.linalg.norm(b * np.eye(d) + m.matrix, 2) / (b + 1.0)
                rep = fp.verify_condition(m, b, "enriched")
                assert rep.status == ("proved" if exact <= 1.0 + rep.slack else "refuted")
                assert abs(rep.max_ratio - exact) <= 1e-14 * exact, (d, b)
                sampled = _sampled(m, b, "enriched", fp.PairSampler())
                for i, r in enumerate((rep, sampled)):
                    false_passes[i] += r.passed and exact > 1.0 + r.slack
        assert false_passes == [0, sampled_false_passes], d


def test_exact_bound_follows_the_reduction_identity():
    # The paper's identity: T is b-enriched iff its averaged map
    # S = (bx + Tx)/(b+1) is nonexpansive, and the exact bounds agree.
    for m in family50():
        for b in B_GRID:
            for norm_kind in fp.NormKind:
                got = fp.verify_condition(m, b, "enriched", norm_kind=norm_kind).bound
                reduced = fp.enriched_reduction(m, b)
                want = fp.verify_condition(reduced, 0.0, "enriched", norm_kind=norm_kind).bound
                assert abs(got - want) <= 1e-12 * want, (b, norm_kind)


def test_maps_the_exact_path_cannot_back_are_sampled():
    # A fold that overflows has no finite form: (1e200)^2 is inf. The map
    # itself is finite on a box of radius 1e-100, and its ratio past the
    # float range refutes; a box projection is sampled as well.
    m = fp.Composition((fp.scaling_map(1e200), fp.scaling_map(1e200)))
    assert not np.isfinite(fp.as_affine(m)[0]).all()
    sampler = fp.PairSampler(box_radius=1e-100, count=50)
    rep = fp.verify_condition(m, 1.0, "enriched", sampler)
    assert rep.status == "sampled" and rep.bound is None and rep.pairs_tested == 50
    assert rep.max_ratio == math.inf and not rep.passed
    # An offset that swamps Tx - Ty on the box: (1.1 + 3e15) - 3e15 reads 1,
    # so the witness misses the bound 1.1 and the map is sampled, not proved.
    swamped = fp.Affine([[1.1]], [3e15])
    rep = fp.verify_condition(swamped, 0.0, "modified", fp.PairSampler(box_radius=1.0, count=50))
    assert rep.status == "sampled" and rep.bound is None and rep.pairs_tested == 50
    boxed = fp.Composition((fp.scaling_map(2.0), fp.BoxProjection([-1.0], [1.0])))
    rep = fp.verify_condition(boxed, 0.0, "modified", sampler)
    assert rep.status == "sampled" and rep.bound is None and rep.pairs_tested == 50
    assert rep.max_ratio == pytest.approx(2.0) and not rep.passed


# --- the reduction identity ---


def test_reduction_identity_on_separated_pairs():
    # (b+1)*||Sx-Sy|| equals ||b(x-y)+Tx-Ty|| up to rounding; with pairs at
    # least 10 apart the relative form is clean of cancellation noise.
    maps = [T_LINE, fp.scaling_map(-1.0, 2), *family50()[::9]]
    for i, m in enumerate(maps):
        xs, ys = separated_pairs(1300 + i, 300, m.dim)
        for b in (0.0, 0.5, 1.0, 3.0):
            assert reduction_identity_gap(m, b, xs, ys) <= 1e-12


def test_reduction_identity_on_near_pairs_absolute_form():
    # Near pairs make the relative form blow up on rounding, so the check
    # there uses the absolute tolerance floored at distance 1.
    s = fp.PairSampler(seed=99, count=2000)
    for m in (T_LINE, fp.scaling_map(-1.0, 2)):
        xs, ys = s.draw(m.dim)
        d = np.linalg.norm(xs - ys, axis=1)
        for b in (0.5, 3.0):
            S = fp.enriched_reduction(m, b)
            lhs = (b + 1.0) * np.linalg.norm(
                fp.evaluate_many(S, xs) - fp.evaluate_many(S, ys), axis=1
            )
            rhs = np.linalg.norm(
                b * (xs - ys) + fp.evaluate_many(m, xs) - fp.evaluate_many(m, ys), axis=1
            )
            assert np.max(np.abs(lhs - rhs) - 1e-10 * np.maximum(1.0, d)) <= 0.0


def test_reduction_identity_transfers_verdicts():
    # verify(T, b, enriched) and verify(reduction, 0, enriched) agree on the
    # same pair set, passing and failing alike.
    sampler = fp.PairSampler(seed=55, count=3000)
    for m, b in ((T_LINE, 3.0), (fp.scaling_map(2.0), 1.0)):
        direct = fp.verify_condition(m, b, fp.ConditionKind.ENRICHED, sampler)
        reduced = fp.verify_condition(
            fp.enriched_reduction(m, b), 0.0, fp.ConditionKind.ENRICHED, sampler
        )
        assert direct.passed == reduced.passed


def test_modified_shift_identity_transfers_verdicts():
    # ||Sx-Sy|| with S = bx+Tx is the same expression as ||b(x-y)+Tx-Ty||,
    # so the modified verdict equals plain nonexpansiveness of the shift.
    sampler = fp.PairSampler(seed=56, count=3000)
    for m, b, expect in ((T_LINE, 3.0, True), (T_LINE, 0.0, False)):
        direct = fp.verify_condition(m, b, fp.ConditionKind.MODIFIED, sampler)
        shifted = fp.verify_condition(
            fp.modified_shift(m, b), 0.0, fp.ConditionKind.MODIFIED, sampler
        )
        assert direct.passed == shifted.passed == expect
        xs, ys = sampler.draw(m.dim)
        S = fp.modified_shift(m, b)
        lhs = np.linalg.norm(fp.evaluate_many(S, xs) - fp.evaluate_many(S, ys), axis=1)
        rhs = np.linalg.norm(
            b * (xs - ys) + fp.evaluate_many(m, xs) - fp.evaluate_many(m, ys), axis=1
        )
        assert np.max(np.abs(lhs - rhs) - 1e-10 * np.maximum(1.0, lhs)) <= 0.0


# --- minimal enrichment constant ---


def grid_min_b(A, kind, b_max=10.0, step=1e-4):
    """Dense-scan oracle: least grid b with ||bI + A|| <= rhs(b), svd route."""
    bs = np.arange(0.0, b_max + step, step)
    stacked = bs[:, None, None] * np.eye(A.shape[0]) + A
    tops = np.linalg.svd(stacked, compute_uv=False)[:, 0]
    rhs = bs + 1.0 if kind is fp.ConditionKind.ENRICHED else np.ones_like(bs)
    feasible = np.flatnonzero(tops <= rhs)
    return float(bs[feasible[0]]) if feasible.size else None


def test_min_b_scalar_examples():
    A = np.array([[-2.0]])
    assert fp.min_b_affine(A, fp.ConditionKind.MODIFIED) == pytest.approx(1.0, abs=1e-6)
    assert fp.min_b_affine(A, fp.ConditionKind.ENRICHED) == pytest.approx(0.5, abs=1e-6)
    assert fp.min_b_affine(2.0 * np.eye(2), fp.ConditionKind.MODIFIED) is None


def test_min_b_matches_grid_oracle():
    for kind, mats in (
        (fp.ConditionKind.ENRICHED, MATRICES_ENRICHED),
        (fp.ConditionKind.MODIFIED, MATRICES_MODIFIED),
    ):
        for A in mats:
            got = fp.min_b_affine(A, kind)
            oracle = grid_min_b(A, kind)
            assert got is not None and oracle is not None
            assert got == pytest.approx(oracle, abs=2e-4)


def test_min_b_ignores_offset():
    A = np.array([[0.2, -1.5], [1.5, 0.3]])
    b = fp.min_b_affine(A, fp.ConditionKind.ENRICHED)
    rep = fp.verify_condition(
        fp.Affine(A, [17.0, -4.0]), b + 1e-6, fp.ConditionKind.ENRICHED,
        fp.PairSampler(seed=5, count=2000),
    )
    assert rep.passed


def test_min_b_soundness_above_and_refutation_below():
    for kind, mats in (
        (fp.ConditionKind.ENRICHED, MATRICES_ENRICHED),
        (fp.ConditionKind.MODIFIED, MATRICES_MODIFIED),
    ):
        for A in mats:
            b = fp.min_b_affine(A, kind)
            mapping = fp.Affine(A, np.zeros(A.shape[0]))
            rep = fp.verify_condition(
                mapping, b + 1e-6, kind, fp.PairSampler(seed=21, count=10_000)
            )
            assert rep.passed
            if b > 1e-3:
                b_low = b - 1e-3
                # A pair aligned with the top singular direction of b'I + A
                # exposes the violation.
                M = b_low * np.eye(A.shape[0]) + A
                v = np.linalg.svd(M)[2][0]
                ratio = fp.condition_ratio(mapping, b_low, kind, 50.0 * v, -50.0 * v)
                assert ratio > 1.0 + 1e-9


def _np_gap(A, kind, bs, ord_):
    """||bI + A|| - rhs(b) for each b in bs, through np.linalg.norm(., ord_) (the SVD for 2)."""
    bs = np.atleast_1d(np.asarray(bs, dtype=float))
    tops = np.linalg.norm(bs[:, None, None] * np.eye(A.shape[0]) + A, ord_, axis=(1, 2))
    return tops - (bs + 1.0 if kind is fp.ConditionKind.ENRICHED else 1.0)


def _kernel_gap(A, kind, norm_kind, b):
    """||bI + A|| - rhs(b) through the kernel that min_b_affine checks with."""
    rhs = b + 1.0 if kind is fp.ConditionKind.ENRICHED else 1.0
    return spaces.OPERATOR_NORMS[norm_kind](b * np.eye(A.shape[0]) + A) - rhs


def _allowance(A, norm_kind, b):
    """The rounding allowance min_b_affine states for a kernel gap at b:
    8 d eps (b + ||A|| + 1), ||A|| through the same kernel."""
    return 8.0 * A.shape[0] * np.finfo(float).eps * (b + spaces.OPERATOR_NORMS[norm_kind](A) + 1.0)


def _min_b_family():
    """ROADMAP's least-b family: one map per seed 0-9 and d in {2, 4, 8}."""
    for d in (2, 4, 8):
        for seed in range(10):
            (m,) = fp.generate_affine_family(seed, d, np.linspace(0.1, 1.8, d), 1)
            yield d, seed, m.matrix


def _check_least_on_random_family(norm_kind, ord_):
    # Every returned b is feasible and b - 1e-8 is not; every None has no
    # feasible b: the enriched gap is non-increasing, so B_CAP is its best
    # point, and a feasible modified b would satisfy b <= ||A|| + 1.
    for d, seed, A in _min_b_family():
        for kind in fp.ConditionKind:
            b = fp.min_b_affine(A, kind, norm_kind)
            if b is None:
                if kind is fp.ConditionKind.ENRICHED:
                    grid = [fp.B_CAP]
                else:
                    grid = np.linspace(0.0, np.linalg.norm(A, ord_) + 1.0, 2001)
                assert np.all(_np_gap(A, kind, grid, ord_) > 0.0), (d, seed, kind)
                continue
            assert _np_gap(A, kind, b, ord_)[0] <= 1e-12, (d, seed, kind, b)
            if b > 1e-8:
                assert _np_gap(A, kind, b - 1e-8, ord_)[0] > 0.0, (d, seed, kind, b)


def test_l2_min_b_is_least_on_random_family():
    # Minimizing ||bI + A||_2 over b drives the top two singular values of
    # bI + A together; the search must stay exact there.
    _check_least_on_random_family(fp.NormKind.L2, 2)


@pytest.mark.parametrize("norm_kind, ord_", [(fp.NormKind.L1, 1), (fp.NormKind.LINF, np.inf)])
def test_l1_linf_min_b_is_least_on_random_family(norm_kind, ord_):
    _check_least_on_random_family(norm_kind, ord_)


@pytest.mark.parametrize("norm_kind", list(fp.NormKind))
def test_modified_min_b_bracket_keeps_answers_near_b_cap(norm_kind):
    # For A = -aI, ||bI + A|| = |b - a| in every norm, so the modified
    # feasible set is [a - 1, a + 1]. The search bracket min(B_CAP, ||A|| + 1)
    # must still reach a least b just below B_CAP, and find none past it.
    for a, want in (
        (0.5 * fp.B_CAP, 0.5 * fp.B_CAP - 1.0),
        (fp.B_CAP + 0.5, fp.B_CAP - 0.5),
        (fp.B_CAP + 10.0, None),
    ):
        got = fp.min_b_affine(-a * np.eye(3), fp.ConditionKind.MODIFIED, norm_kind)
        if want is None:
            assert got is None, a
        else:
            assert got == pytest.approx(want, abs=B_TOL), a


def test_modified_min_b_finds_a_one_point_feasible_set():
    # Row by row (l-infinity), |b - 1.5| + 0.5 <= 1 and |b - 2| + 1 <= 1 meet
    # only at b = 2; column by column (l1), only at b = 1.5.
    A = np.array([[-1.5, -0.5], [-1.0, -2.0]])
    kind = fp.ConditionKind.MODIFIED
    for norm_kind, want in ((fp.NormKind.LINF, 2.0), (fp.NormKind.L1, 1.5)):
        assert fp.min_b_affine(A, kind, norm_kind) == want
        assert _kernel_gap(A, kind, norm_kind, want) == 0.0


def test_min_b_bisects_where_the_closed_form_has_no_answer():
    # 2I - (A + A^T) = diag(0, 8) is singular, and ||bI + A||_2 =
    # max(b + 1, |b - 3|) <= b + 1 from b = 1 on. A^T A - I = diag(0, 8)
    # vanishes on the null space, so the pencil on the range gives b = 1.
    A = np.diag([1.0, -3.0])
    kind, norm_kind = fp.ConditionKind.ENRICHED, fp.NormKind.L2
    b = fp.min_b_affine(A, kind, norm_kind)
    assert b == pytest.approx(1.0, abs=B_TOL)
    assert _kernel_gap(A, kind, norm_kind, b) <= _allowance(A, norm_kind, b)
    assert 0.0 < _kernel_gap(A, kind, norm_kind, b - B_TOL)


def test_min_b_repairs_a_closed_form_the_kernel_refuses(monkeypatch):
    # sqrt(2) times a rotation by pi/4: ||bI + A||_2 = sqrt((b + 1)^2 + 1)
    # exceeds b + 1 at every b. 2I - (A + A^T) = 0 while A^T A - I = I is not
    # 0 on its null space, so the closed form finds no b, and the kernel's gap
    # reads about +5e-7 at B_CAP.
    kind, norm_kind = fp.ConditionKind.ENRICHED, fp.NormKind.L2
    A = np.array([[1.0, 1.0], [-1.0, 1.0]])
    assert enrichment._enriched_least(A, norm_kind) == math.inf
    assert fp.min_b_affine(A, kind, norm_kind) is None
    assert _kernel_gap(A, kind, norm_kind, fp.B_CAP) > 0.0
    # A closed form that finds a b where none is feasible: it is refused, so
    # is B_CAP, the bisection's upper end, and the answer is still None.
    monkeypatch.setattr(enrichment, "_enriched_least", lambda A, norm_kind: 0.25)
    assert fp.min_b_affine(A, kind, norm_kind) is None
    monkeypatch.undo()
    # Closed forms 0.1 below the least b (0.5 for [[-2]], 1 for diag(0.5, -3))
    # are refused: the bisection up to B_CAP finds the least b to within
    # B_TOL, and the kernel accepts it within the allowance. So it does from
    # 0 when the closed form finds no b at all.
    least = enrichment._enriched_least
    for closed_form in (lambda A, norm_kind: least(A, norm_kind) - 0.1, lambda A, norm_kind: math.inf):
        monkeypatch.setattr(enrichment, "_enriched_least", closed_form)
        for A, want in ((np.array([[-2.0]]), 0.5), (np.diag([0.5, -3.0]), 1.0)):
            b = fp.min_b_affine(A, kind, norm_kind)
            assert b == pytest.approx(want, abs=B_TOL), A
            assert _kernel_gap(A, kind, norm_kind, b) <= _allowance(A, norm_kind, b)
        monkeypatch.undo()
    # So is a modified lower end 0.3 below the least b, 1 for [[-2]].
    kind, A = fp.ConditionKind.MODIFIED, np.array([[-2.0]])
    interval = enrichment._modified_interval
    monkeypatch.setattr(
        enrichment, "_modified_interval",
        lambda A, norm_kind: (interval(A, norm_kind)[0] - 0.3, interval(A, norm_kind)[1]),
    )
    b = fp.min_b_affine(A, kind, norm_kind)
    assert b == pytest.approx(1.0, abs=B_TOL)
    assert _kernel_gap(A, kind, norm_kind, b) <= _allowance(A, norm_kind, b)


@pytest.mark.parametrize("theta", [0.05, 0.3, 0.7, 1.1, 1.5, 2.0, 2.5, 3.0])
def test_min_b_of_a_map_that_fixes_a_direction(theta):
    # R diag(1, -3) R^T fixes R e1, so 2I - (A + A^T) is singular, and past
    # the least b = 1 the kernel's gap is 0 up to rounding, whichever sign
    # it reads. The pencil on the range of 2I - (A + A^T) answers, and the
    # allowance accepts it whichever sign the reading has.
    c, s = math.cos(theta), math.sin(theta)
    R = np.array([[c, -s], [s, c]])
    A = R @ np.diag([1.0, -3.0]) @ R.T
    kind, norm_kind = fp.ConditionKind.ENRICHED, fp.NormKind.L2
    b = fp.min_b_affine(A, kind, norm_kind)
    assert b == pytest.approx(1.0, abs=B_TOL)
    assert _kernel_gap(A, kind, norm_kind, b) <= _allowance(A, norm_kind, b)


def test_min_b_of_symmetric_maps_that_fix_a_direction_is_exact():
    # A = Q diag(1, lambda_2..lambda_d) Q^T is symmetric, so ||bI + A||_2 =
    # max_i |b + lambda_i|, and the least enriched b is
    # max(0, -(min lambda + 1) / 2). Past it the kernel's gap is 0 up to
    # rounding, whichever sign it reads; the closed form must still stand.
    kind, norm_kind = fp.ConditionKind.ENRICHED, fp.NormKind.L2
    misses = []
    for seed in (5, 6, 7):
        rng = np.random.default_rng(seed)
        for _ in range(400):
            d = rng.integers(2, 9)
            Q = np.linalg.qr(rng.standard_normal((d, d)))[0]
            lam = np.array([1.0, *rng.uniform(-3.0, 1.0, d - 1)])
            A = Q @ np.diag(lam) @ Q.T
            want = max(0.0, -(lam.min() + 1.0) / 2.0)
            b = fp.min_b_affine(A, kind, norm_kind)
            if b is None or abs(b - want) > B_TOL:
                misses.append((seed, d, want, b))
            else:
                assert _kernel_gap(A, kind, norm_kind, b) <= _allowance(A, norm_kind, b)
    assert not misses, misses
    # Eigenvalues 1 and 0.224: nonexpansive, so 0-enriched, although the
    # kernel reads ||A||_2 - 1 as +6.7e-16.
    A = np.array([[0.5859044897274264, 0.38707903286483], [0.38707903286483, 0.6381748317315785]])
    assert _kernel_gap(A, kind, norm_kind, 0.0) > 0.0
    assert fp.min_b_affine(A, kind, norm_kind) == 0.0


def _feasible_modified_family():
    """A = -b0*I + M with ||M|| < 1 in the norm under test, so the modified
    condition holds at b = b0: b0 in [0.5, 50], d in {2, 4, 8}."""
    for norm_kind, ord_ in ((fp.NormKind.L1, 1), (fp.NormKind.L2, 2), (fp.NormKind.LINF, np.inf)):
        for d in (2, 4, 8):
            for seed in range(10):
                rng = np.random.default_rng(7000 + seed)
                M = rng.standard_normal((d, d))
                M *= rng.uniform(0.1, 0.9) / np.linalg.norm(M, ord_)
                b0 = rng.uniform(0.5, 50.0)
                yield norm_kind, ord_, -b0 * np.eye(d) + M


def test_modified_min_b_is_least_on_feasible_family():
    # Every answer exists; it is feasible, and stepping 1e-6 relative below
    # it is not. Most answers are far from 0, so the bisection after the
    # golden-section search decides them.
    positive = 0
    for norm_kind, ord_, A in _feasible_modified_family():
        kind = fp.ConditionKind.MODIFIED
        b = fp.min_b_affine(A, kind, norm_kind)
        assert b is not None, (norm_kind, A)
        assert _np_gap(A, kind, b, ord_)[0] <= 1e-12, (norm_kind, b)
        if b > 0.0:
            positive += 1
            assert _np_gap(A, kind, b - 1e-6 * max(1.0, b), ord_)[0] > 0.0, (norm_kind, b)
    assert positive >= 80


def test_min_b_operator_norm_budget(monkeypatch):
    # Each least-b call evaluates ||bI + A|| through the kernel table: at 0,
    # then once to check the closed form's answer, or at B_CAP to confirm an
    # enriched None. Over the family in every kind and norm the mean is 2.0
    # evaluations per call.
    evals = 0
    for norm_kind, kernel in list(spaces.OPERATOR_NORMS.items()):
        def counted(M, kernel=kernel):
            nonlocal evals
            evals += 1
            return kernel(M)
        monkeypatch.setitem(spaces.OPERATOR_NORMS, norm_kind, counted)
    calls = 0
    for _, _, A in _min_b_family():
        for kind in fp.ConditionKind:
            for norm_kind in fp.NormKind:
                fp.min_b_affine(A, kind, norm_kind)
                calls += 1
    assert calls == 180
    assert evals / calls <= 3.0, evals / calls


def test_min_b_steps_just_past_a_closed_form_the_kernel_refuses(monkeypatch):
    # On these -b0*I + M maps (d = 2, b0 near 37-41, ||M||_2 < 1) the l2
    # modified closed form is off by its own rounding, about 1e-14 relative,
    # and the kernel refuses it by 1.3-2.1 times the allowance. lo + B_TOL/2
    # is accepted, so the answer takes 3 kernel calls (||A||, lo and
    # lo + B_TOL/2), where a bisection to the middle of the interval took
    # 30-31; it is within B_TOL of the least accepted b, since B_TOL below it
    # is refused.
    evals = 0
    kernel = spaces.OPERATOR_NORMS[fp.NormKind.L2]

    def counted(M):
        nonlocal evals
        evals += 1
        return kernel(M)

    monkeypatch.setitem(spaces.OPERATOR_NORMS, fp.NormKind.L2, counted)
    kind = fp.ConditionKind.MODIFIED
    for seed in (10, 19, 20, 24):
        rng = np.random.default_rng(9000 + seed)
        M = rng.standard_normal((2, 2))
        M *= rng.uniform(0.1, 0.9) / np.linalg.norm(M, 2)
        A = -rng.uniform(0.5, 50.0) * np.eye(2) + M
        lo = enrichment._modified_interval(A, fp.NormKind.L2)[0]
        assert _kernel_gap(A, kind, fp.NormKind.L2, lo) > _allowance(A, fp.NormKind.L2, lo)
        evals = 0
        b = fp.min_b_affine(A, kind, fp.NormKind.L2)
        assert evals == 3 and b == lo + 0.5 * B_TOL, (seed, evals, b - lo)
        assert _kernel_gap(A, kind, fp.NormKind.L2, b) <= _allowance(A, fp.NormKind.L2, b)
        below = b - B_TOL
        assert _kernel_gap(A, kind, fp.NormKind.L2, below) > _allowance(A, fp.NormKind.L2, below)


def test_min_b_of_huge_matrices_is_none_without_warnings():
    # ||A|| > 2 B_CAP + 1 puts every feasible b above B_CAP, so no product of
    # A is formed: A^T A would overflow for the first three.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for A in (
            [[1e300, 1e300], [1e300, 1e300]],
            -1e200 * np.eye(2),
            np.diag([1e160, -0.5]),
            [[-3e6]],
        ):
            for kind in fp.ConditionKind:
                for norm_kind in fp.NormKind:
                    assert fp.min_b_affine(A, kind, norm_kind) is None, (A, kind, norm_kind)


def test_min_b_where_the_gap_is_flat():
    # lambda_min(2I - (A + A^T)) is 3.5e-4, and the kernel's gap reads 0 or
    # 5.7e-14 over [b - 2e-7, b]: no b there is resolvable to B_TOL. The
    # answer is still one the kernel accepts within the allowance, near the
    # bracketing search's.
    A = np.array([
        [0.9934142012161769, 0.4937939471919176],
        [-0.2926569506171738, -0.5782334654068086],
    ])
    kind, norm_kind = fp.ConditionKind.ENRICHED, fp.NormKind.L2
    b = fp.min_b_affine(A, kind, norm_kind)
    assert b == pytest.approx(437.48937449231744, rel=1e-6)
    assert _kernel_gap(A, kind, norm_kind, b) <= _allowance(A, norm_kind, b)


@st.composite
def _square_matrices(draw):
    d = draw(st.integers(1, 6))
    entries = draw(st.lists(st.floats(-3.0, 3.0), min_size=d * d, max_size=d * d))
    return np.array(entries).reshape(d, d)


@given(_square_matrices(), st.sampled_from(list(fp.ConditionKind)), st.sampled_from(list(fp.NormKind)))
@settings(max_examples=200, deadline=None)
def test_min_b_is_kernel_feasible_and_least_hypothesis(A, kind, norm_kind):
    b = fp.min_b_affine(A, kind, norm_kind)
    if b is None:
        return
    assert _kernel_gap(A, kind, norm_kind, b) <= _allowance(A, norm_kind, b)
    below = b - 1e-6 * max(1.0, b)
    assert below < 0.0 or _kernel_gap(A, kind, norm_kind, below) > 0.0


def test_min_b_makes_the_enriched_reduction_nonexpansive():
    # The paper's point: T is b-enriched nonexpansive exactly when
    # S_b = (bI + T) / (b + 1) is nonexpansive. At the least b, S_b's matrix
    # has l2 norm at most 1.
    found = 0
    for _, _, A in _min_b_family():
        b = fp.min_b_affine(A, fp.ConditionKind.ENRICHED, fp.NormKind.L2)
        if b is None:
            continue
        found += 1
        S = fp.enriched_reduction(fp.Affine(A, np.zeros(A.shape[0])), b)
        assert fp.operator_norm(fp.as_affine(S)[0]) <= 1.0 + 1e-12, (A, b)
    assert found > 0


@pytest.mark.parametrize("norm_kind", list(fp.NormKind))
def test_the_classes_coincide_through_the_averaged_map_not_for_t(norm_kind):
    # T = -2I + c is b-enriched from b = 0.5 (and modified from 1) in every
    # norm, with Lipschitz constant 2 = 2b + 1; it is not nonexpansive, but
    # its enriched reduction at 0.5, x -> -x + 2c/3, is.
    T = fp.Affine(-2.0 * np.eye(2), [1.0, -1.0])
    enriched = fp.ConditionKind.ENRICHED
    assert fp.min_b_affine(T.matrix, enriched, norm_kind) == pytest.approx(0.5, abs=B_TOL)
    assert fp.min_b_affine(T.matrix, fp.ConditionKind.MODIFIED, norm_kind) == 1.0
    sampler = fp.PairSampler(seed=3, count=2000)
    raw = fp.verify_condition(T, 0.0, enriched, sampler, norm_kind=norm_kind)
    assert not raw.passed
    assert raw.max_ratio == pytest.approx(2.0, rel=1e-12)
    reduced = fp.verify_condition(fp.enriched_reduction(T, 0.5), 0.0, enriched, sampler, norm_kind=norm_kind)
    assert reduced.passed
    assert reduced.max_ratio == pytest.approx(1.0, rel=1e-9)


def test_enriched_feasibility_is_upward_closed():
    # Once the reduced inequality holds it keeps holding for larger b:
    # scan 100 grid points and reject any feasible -> infeasible transition.
    for A in MATRICES_ENRICHED:
        feas = np.array([
            fp.operator_norm(b * np.eye(A.shape[0]) + A) <= b + 1.0
            for b in np.linspace(0.0, 6.0, 100)
        ])
        assert not np.any(feas[:-1] & ~feas[1:])
        assert feas[-1]
