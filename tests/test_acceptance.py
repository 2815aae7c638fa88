"""Acceptance gate for the package.

One test per criterion, each printing a single PASS/FAIL verdict line.
Run ``pytest tests/test_acceptance.py -v -s`` to see the lines; the whole
gate is meant to finish in well under thirty seconds.

Every oracle here is independent of the production code path: spectral
norms come from ``np.linalg.svd``, iteration bounds from exact rational
arithmetic, and grid searches from brute force.
"""

from fractions import Fraction

import numpy as np
import pytest

import fpkit as fp

from _family import (
    B_GRID,
    apriori_iterations_exact,
    family50,
    reduction_identity_gap,
    separated_pairs,
)

T_LINE = fp.line_map(-2.0, 100.0)
X_STAR = 100.0 / 3.0
STOP = fp.StopRule(eps_abs=1e-9)
START_SEED = 20260814


def _verdict(num, label, ok):
    print(f"[acceptance] criterion {num:02d} ({label}): {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module")
def family():
    return family50()


@pytest.fixture(scope="module")
def demo_solves():
    """21 modified solves of the line demo at b=3: x0=0 plus 20 seeded starts."""
    rng = np.random.default_rng(START_SEED)
    starts = [np.array([0.0])] + [np.array([v]) for v in rng.uniform(-1e6, 1e6, 20)]
    return [
        fp.solve_modified(T_LINE, 3.0, x0, stop=STOP, store_iterates=True)
        for x0 in starts
    ]


@pytest.fixture(scope="module")
def verified_combos(family):
    """(index, mapping, b) for every family member passing the sampled
    modified check at b in {0.5, 1, 3}."""
    combos = []
    for i, m in enumerate(family):
        sampler = fp.PairSampler(seed=500 + i, count=1000)
        for b in (0.5, 1.0, 3.0):
            report = fp.verify_condition(
                m, b, fp.ConditionKind.MODIFIED, sampler=sampler, slack=1e-9
            )
            if report.passed:
                combos.append((i, m, b))
    return combos


@pytest.fixture(scope="module")
def decay_solves(verified_combos):
    runs = []
    for i, m, b in verified_combos:
        dim = fp.as_affine(m)[0].shape[0]
        x0 = np.random.default_rng(700 + i).uniform(-50.0, 50.0, dim)
        runs.append((m, b, fp.solve_modified(m, b, x0, stop=STOP)))
    return runs


@pytest.fixture(scope="module")
def rotation_run():
    quarter = fp.Rotation(np.pi / 2.0)
    return quarter, fp.krasnoselskij(quarter, 0.5, np.array([1.0, 0.0]), stop=STOP)


def test_criterion_01_demo_condition_equality():
    xs, ys = fp.PairSampler().draw(1)
    lhs = np.linalg.norm(
        3.0 * (xs - ys) + fp.evaluate_many(T_LINE, xs) - fp.evaluate_many(T_LINE, ys),
        axis=1,
    )
    dist = np.linalg.norm(xs - ys, axis=1)
    dev = np.abs(lhs - dist)
    bound = 1e-10 * np.maximum(1.0, dist)
    ok = bool(np.all(dev <= bound))
    _verdict(1, "line demo meets the modified condition with equality", ok)
    assert ok, f"worst scaled deviation {np.max(dev / bound):.3e} of budget"


def test_criterion_02_scaling_family_equality():
    xs, ys = fp.PairSampler().draw(3)
    dist = np.linalg.norm(xs - ys, axis=1)
    bound = 1e-10 * np.maximum(1.0, dist)
    ok = True
    for b in (0.5, 1.0, 1.5, 2.0):
        m = fp.scaling_map(1.0 - b, 3)
        lhs = np.linalg.norm(
            b * (xs - ys) + fp.evaluate_many(m, xs) - fp.evaluate_many(m, ys), axis=1
        )
        ok = ok and bool(np.all(np.abs(lhs - dist) <= bound))
    _verdict(2, "pure scaling maps meet the condition with equality", ok)
    assert ok


def test_criterion_03_demo_solve_from_21_starts(demo_solves):
    ok = True
    for res in demo_solves:
        ok = ok and res.trace.status is fp.Status.CONVERGED
        ok = ok and res.trace.iterations <= 40
        ok = ok and abs(float(res.fixed_point[0]) - X_STAR) <= 1e-8
        ok = ok and abs(fp.empirical_ratio(res.trace) - 0.25) <= 1e-6
    _verdict(3, "modified solve reaches 100/3 from 21 starts", ok)
    assert ok


def test_criterion_04_reduction_identity_over_family(family):
    worst = 0.0
    for i, m in enumerate(family):
        dim = fp.as_affine(m)[0].shape[0]
        xs, ys = separated_pairs(900 + i, 1000, dim)
        for b in B_GRID:
            worst = max(worst, reduction_identity_gap(m, b, xs, ys))
    ok = worst <= 1e-12
    _verdict(4, "reduction identity across the affine family", ok)
    assert ok, f"worst relative gap {worst:.3e}"


def test_criterion_05_converged_solves_certify_fixed_points(
    demo_solves, decay_solves, rotation_run
):
    ok = True
    for res in demo_solves:
        ok = ok and res.residual_T <= (1.0 / res.lam) * res.trace.residuals[-1] + 1e-12
        ok = ok and fp.check_fixed_point(T_LINE, res.fixed_point, 1e-7)[0]
    for _, _, res in decay_solves:
        if res.trace.status is fp.Status.CONVERGED:
            ok = ok and res.residual_T <= (1.0 / res.lam) * res.trace.residuals[-1] + 1e-12
    quarter, trace = rotation_run
    res_t = float(np.linalg.norm(fp.evaluate(quarter, trace.final) - trace.final))
    ok = ok and res_t <= 2.0 * trace.residuals[-1] + 1e-12
    _verdict(5, "converged solves certify fixed points of the base map", ok)
    assert ok


def _grid_first_feasible(matrix, kind):
    a = np.asarray(matrix, dtype=float)
    bs = np.arange(0.0, 10.0 + 5e-5, 1e-4)
    stack = bs[:, None, None] * np.eye(a.shape[0]) + a
    smax = np.linalg.svd(stack, compute_uv=False)[:, 0]
    limit = 1.0 if kind is fp.ConditionKind.MODIFIED else bs + 1.0
    feasible = np.flatnonzero(smax <= limit + 1e-9)
    return None if feasible.size == 0 else float(bs[feasible[0]])


def test_criterion_06_minimal_b_matches_grid_oracle():
    cases = [
        ([[-2.0]], fp.ConditionKind.MODIFIED, 1.0),
        ([[-2.0]], fp.ConditionKind.ENRICHED, 0.5),
        ([[2.0, 0.0], [0.0, 2.0]], fp.ConditionKind.MODIFIED, None),
    ]
    ok = True
    for matrix, kind, expected in cases:
        got = fp.min_b_affine(matrix, kind)
        oracle = _grid_first_feasible(matrix, kind)
        if expected is None:
            ok = ok and got is None and oracle is None
        else:
            ok = ok and got is not None and abs(got - expected) <= 1e-6
            ok = ok and oracle is not None and abs(got - oracle) <= 1e-4
    _verdict(6, "minimal feasible b matches a dense grid oracle", ok)
    assert ok


def test_criterion_07_geometric_residual_decay(verified_combos, decay_solves):
    assert len(verified_combos) > 0
    worst = -np.inf
    ok = True
    for _, b, res in decay_solves:
        lam = 1.0 / (b + 1.0)
        r = res.trace.residuals
        for prev, nxt in zip(r, r[1:]):
            bound = lam * prev * (1.0 + 1e-10)
            worst = max(worst, nxt - bound)
            ok = ok and nxt <= bound
    _verdict(7, "geometric residual decay for every verified pair", ok)
    assert ok, f"worst excess over the decay bound {worst:.3e}"


def test_criterion_08_divergence_and_averaged_convergence(rotation_run):
    diverged = fp.picard(T_LINE, np.array([0.0]), stop=fp.StopRule(max_iter=200))
    ok = diverged.status is fp.Status.DIVERGED and diverged.iterations <= 200

    quarter, trace = rotation_run
    c, s = np.cos(np.pi / 2.0), np.sin(np.pi / 2.0)
    averaged_matrix = (np.eye(2) + np.array([[c, -s], [s, c]])) / 2.0
    oracle = float(np.linalg.svd(averaged_matrix, compute_uv=False)[0])
    ok = ok and abs(oracle - 2.0 ** -0.5) <= 1e-12
    ok = ok and trace.status is fp.Status.CONVERGED
    ok = ok and float(np.linalg.norm(trace.final)) <= 1e-8
    ratio = fp.empirical_ratio(trace)
    ok = ok and abs(ratio - oracle) <= 1e-3
    _verdict(8, "divergence and averaged convergence baselines", ok)
    assert ok


def test_criterion_09_apriori_bound_dominates(demo_solves):
    ok = True
    for res in demo_solves:
        errors = np.abs(np.asarray(res.trace.iterates).ravel() - X_STAR)
        hits = np.flatnonzero(errors <= 1e-9)
        ok = ok and hits.size > 0
        measured = int(hits[0])
        bound = fp.apriori_iterations(0.25, res.trace.residuals[0], 1e-9)
        ok = ok and bound >= measured
    spot = fp.apriori_iterations(0.25, 25.0, 1e-9)
    exact = apriori_iterations_exact(
        Fraction(1, 4), Fraction(25), Fraction(1, 10**9)
    )
    ok = ok and spot == 18 == exact
    _verdict(9, "a priori iteration bound dominates observed counts", ok)
    assert ok


def test_criterion_10_byte_identical_reruns(tmp_path):
    doc = {
        "mapping": {"kind": "affine", "matrix": [[-2.0]], "offset": [100.0]},
        "scheme": "solve_modified",
        "b": 3.0,
        "x0": [0.0],
        "seed": 7,
    }
    cfg = fp.parse_config(doc)
    fp.run_experiment(cfg, out_dir=tmp_path / "a")
    fp.run_experiment(cfg, out_dir=tmp_path / "b")
    first = (tmp_path / "a" / "trace.csv").read_bytes()
    second = (tmp_path / "b" / "trace.csv").read_bytes()
    ok = first == second and len(first) > 0
    _verdict(10, "identical configs produce byte-identical traces", ok)
    assert ok
