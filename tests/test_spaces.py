import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fpkit as fp
from fpkit.errors import InvariantViolation, ParameterOutOfRange
from fpkit.spaces import VECTOR_NORMS, as_vector

from _family import reference_norm

ALL_KINDS = (fp.NormKind.L1, fp.NormKind.L2, fp.NormKind.LINF)

ROT90 = np.array([[0.0, -1.0], [1.0, 0.0]])
HALF_AVG_ROT = np.array([[0.5, -0.5], [0.5, 0.5]])


def test_norm_worked_examples():
    assert fp.norm([3.0, 4.0], fp.NormKind.L2) == 5.0
    assert fp.norm([1.0, -2.0], fp.NormKind.L1) == 3.0
    assert fp.norm([1.0, -2.0], fp.NormKind.LINF) == 2.0


def test_norm_matches_numpy_reductions_bit_for_bit():
    rng = np.random.default_rng(8)
    vectors = [
        rng.standard_normal(d) * scale for d in (1, 2, 3, 8, 17, 64) for scale in (1e-3, 1.0, 1e150)
    ]
    # Lists, a scalar and matrices (Frobenius in l2), as callers of ``norm`` may pass.
    vectors += [[3.0, 4.0], 2.5, rng.standard_normal((3, 4)),
                np.asfortranarray(rng.standard_normal((5, 5)))]
    for v in vectors:
        for kind in ALL_KINDS:
            assert repr(fp.norm(v, kind)) == repr(reference_norm(v, kind))


def test_norm_zero_iff_zero_vector():
    for kind in ALL_KINDS:
        assert fp.norm(np.zeros(4), kind) == 0.0
        assert fp.norm([0.0, 1e-30, 0.0], kind) > 0.0


def test_tiny_nonzero_vectors_have_positive_accurate_norms():
    # Entries below ~1.5e-154 square into subnormals or zero, so the plain
    # sqrt(v . v) reads 0.0 or loses bits there; the norms must not.
    cases = [
        ([1e-170], 1e-170),
        ([1e-200, -1e-200], np.sqrt(2.0) * 1e-200),
        ([8.681273957028337e-159], 8.681273957028337e-159),
        ([5e-324, 0.0], 5e-324),
    ]
    for v, l2 in cases:
        v = np.asarray(v)
        rows = np.vstack([v, np.zeros_like(v), np.full_like(v, 3.0)])
        for kind in ALL_KINDS:
            assert fp.norm(v, kind) > 0.0, (v, kind)
            by_row = VECTOR_NORMS[kind](rows)
            assert by_row[0] > 0.0 and by_row[1] == 0.0, (v, kind)
            assert [repr(float(n)) for n in by_row] == [repr(fp.norm(r, kind)) for r in rows]
        assert fp.norm(v, fp.NormKind.L2) == pytest.approx(l2, rel=1e-15, abs=0.0)


def test_l2_rows_keep_their_bits_beside_zero_rows(monkeypatch):
    # A zero row skips the rescale that rows below _L2_RESCALE_BELOW take, in
    # a block of its own or beside others. Every row's norm is np.linalg.norm
    # of it, or of it scaled by the exact power of two for a tiny row, the
    # same in any block.
    scale = 2.0**600
    zero, tiny, subnormal = [0.0, 0.0, 0.0], [1e-170, -2e-170, 0.0], [5e-324, 0.0, 1e-320]
    ordinary = [3.0, -4.0, 0.5]
    want = {
        "zero": 0.0,
        "tiny": np.linalg.norm(np.multiply(tiny, scale)) / scale,
        "subnormal": np.linalg.norm(np.multiply(subnormal, scale)) / scale,
        "ordinary": np.linalg.norm(ordinary),
    }
    rows = {"zero": zero, "tiny": tiny, "subnormal": subnormal, "ordinary": ordinary}
    l2 = VECTOR_NORMS[fp.NormKind.L2]
    for block in (["zero"], ["ordinary"], ["tiny"], ["subnormal"], ["zero", "zero"],
                  ["zero", "ordinary"], ["ordinary", "zero", "ordinary"],
                  ["zero", "tiny", "ordinary", "subnormal", "zero"]):
        got = l2(np.array([rows[name] for name in block]))
        assert [repr(float(n)) for n in got] == [repr(float(want[n])) for n in block], block
    assert want["tiny"] > 0.0 and want["subnormal"] > 0.0
    # Zero rows alone take one dot product per row, with no rescale pass.
    calls = []
    vecdot = np.vecdot
    monkeypatch.setattr(np, "vecdot", lambda a, b: calls.append(len(a)) or vecdot(a, b))
    l2(np.zeros((3, 2)))
    l2(np.array([zero, ordinary]))
    assert calls == [3, 2]


def test_norm_rejects_empty_vectors_and_unknown_kinds():
    for kind in ALL_KINDS:
        with pytest.raises(InvariantViolation, match="non-empty"):
            fp.norm([], kind)
    for call in (
        lambda: fp.norm([1.0], "l3"),
        lambda: fp.operator_norm(np.eye(2), "l3"),
        lambda: fp.picard(fp.line_map(0.5, 1.0), [0.0], norm_kind="l3"),
    ):
        with pytest.raises(ParameterOutOfRange, match="unknown norm 'l3'"):
            call()


def test_operator_norm_identity_is_one_in_every_kind():
    eye = np.eye(3)
    for kind in ALL_KINDS:
        assert fp.operator_norm(eye, kind) == 1.0


def test_operator_norm_rotation_is_one():
    assert fp.operator_norm(ROT90, fp.NormKind.L2) == pytest.approx(1.0, abs=1e-12)


def test_operator_norm_averaged_rotation_matches_svd_oracle():
    # HALF_AVG_ROT is a rotation scaled by 1/sqrt(2), so both of its singular
    # values equal 1/sqrt(2).
    oracle = float(np.linalg.svd(HALF_AVG_ROT, compute_uv=False)[0])
    got = fp.operator_norm(HALF_AVG_ROT, fp.NormKind.L2)
    assert got == pytest.approx(0.70710678, abs=1e-8)
    assert got == pytest.approx(oracle, abs=1e-10)


def test_operator_norm_l1_linf_exact_sums():
    M = np.array([[1.0, -3.0], [2.0, 0.5]])
    assert fp.operator_norm(M, fp.NormKind.L1) == 3.5  # max column sum
    assert fp.operator_norm(M, fp.NormKind.LINF) == 4.0  # max row sum


def test_operator_norm_zero_matrix():
    assert fp.operator_norm(np.zeros((3, 3)), fp.NormKind.L2) == 0.0


def test_l2_operator_norm_agrees_with_gram_eigendecomposition():
    # Independent route: largest eigenvalue of M^T M, from 1-d up to DIM_CAP.
    rng = np.random.default_rng(11)
    for d in (*range(1, 9), 16, 32, fp.DIM_CAP):
        for _ in range(6):
            M = rng.normal(0.0, 2.0, (d, d))
            oracle = float(np.sqrt(np.max(np.linalg.eigvalsh(M.T @ M))))
            assert fp.operator_norm(M, fp.NormKind.L2) == pytest.approx(oracle, abs=1e-8)


def test_l2_operator_norm_handles_start_vector_annihilation():
    # Rank one with (1,1)/sqrt(2) in the kernel: the norm is the nonzero
    # singular value, not the zero one.
    M = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert fp.operator_norm(M, fp.NormKind.L2) == pytest.approx(2.0, abs=1e-10)


def test_triangle_inequality_seeded_pairs():
    rng = np.random.default_rng(101)
    for kind in ALL_KINDS:
        u = rng.uniform(-50.0, 50.0, (1000, 5))
        v = rng.uniform(-50.0, 50.0, (1000, 5))
        lhs = VECTOR_NORMS[kind](u + v)
        rhs = VECTOR_NORMS[kind](u) + VECTOR_NORMS[kind](v)
        assert np.all(lhs <= rhs + 1e-12 * rhs)


def test_absolute_homogeneity_seeded():
    rng = np.random.default_rng(202)
    for kind in ALL_KINDS:
        for _ in range(200):
            v = rng.uniform(-10.0, 10.0, 4)
            a = float(rng.uniform(-8.0, 8.0))
            np.testing.assert_allclose(
                fp.norm(a * v, kind), abs(a) * fp.norm(v, kind), rtol=1e-12
            )


def test_operator_norm_consistency_seeded():
    # norm(M v) <= operator_norm(M) * norm(v), same kind throughout.
    rng = np.random.default_rng(303)
    for kind in ALL_KINDS:
        for _ in range(1000):
            d = int(rng.integers(1, 6))
            M = rng.normal(0.0, 1.5, (d, d))
            v = rng.uniform(-20.0, 20.0, d)
            nv = fp.norm(v, kind)
            assert fp.norm(M @ v, kind) <= fp.operator_norm(M, kind) * nv + 1e-10 * nv


@given(
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=8),
    st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=8),
)
@example([8.681273957028337e-159], [8.681273957028337e-159])
@example([5e-324, 5e-324], [5e-324, 5e-324])
@settings(max_examples=200, deadline=None)
def test_norm_axioms_hypothesis(a, b):
    n = min(len(a), len(b))
    u, v = np.asarray(a[:n]), np.asarray(b[:n])
    for kind in ALL_KINDS:
        nu, nv = fp.norm(u, kind), fp.norm(v, kind)
        assert nu >= 0.0
        # Each norm rounds on its own, and among subnormals one rounding is a
        # whole unit of 5e-324: l2 of [1e-323, 1e-323] is 1.5e-323, while
        # twice l2 of [5e-324, 5e-324] is 1e-323. Hence the absolute slack.
        assert fp.norm(u + v, kind) <= nu + nv + 1e-12 * (nu + nv) + 4 * 5e-324
        np.testing.assert_allclose(fp.norm(-u, kind), nu, rtol=1e-15)


def test_vector_and_matrix_validation():
    # norm() itself trusts its input; the type invariants live in as_vector,
    # which everything user-facing routes through.
    with pytest.raises(InvariantViolation):
        as_vector([1.0, np.nan])
    with pytest.raises(InvariantViolation):
        as_vector([])
    with pytest.raises(InvariantViolation):
        as_vector(np.zeros(fp.DIM_CAP + 1))
    with pytest.raises(InvariantViolation):
        fp.operator_norm(np.ones((2, 3)))
    with pytest.raises(InvariantViolation):
        fp.operator_norm(np.full((2, 2), np.inf))
