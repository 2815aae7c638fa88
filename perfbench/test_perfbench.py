"""Self-tests of the benchmark's own logic: python3 -m pytest perfbench -q"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import fpkit as fp  # noqa: E402
import fpkit.iteration  # noqa: E402

from stats import FAILED, OK, SCHEME, classify, percentile  # noqa: E402
from tracing import Tracer, install, self_times, uninstall  # noqa: E402
from workloads import min_b_error, sampled_ratio_error  # noqa: E402


def test_self_time_subtracts_union_of_children():
    # 0 root [0, 10]; 1 [1, 3] and 2 [2, 4] overlap; 3 [5, 6]; 4 [1.5, 2] under 1;
    # 5 [9, 12] runs past its parent and is clipped to [9, 10].
    starts = [0.0, 1.0, 2.0, 5.0, 1.5, 9.0]
    ends = [10.0, 3.0, 4.0, 6.0, 2.0, 12.0]
    parents = [-1, 0, 0, 0, 1, 0]
    got = self_times(starts, ends, parents)
    assert got == pytest.approx([10 - 3 - 1 - 1, 2 - 0.5, 2.0, 1.0, 0.5, 3.0])


def test_self_time_of_a_leaf_is_its_duration():
    assert self_times([2.0], [2.5], [-1]) == pytest.approx([0.5])


def test_traced_solve_nests_and_uninstall_restores():
    originals = (fp.solve_modified, fpkit.iteration.picard, fpkit.iteration.evaluate, fp.PairSampler.draw)
    tracer = Tracer()
    undo = install(tracer)
    try:
        tracer.active = True
        result = fp.solve_modified(fp.line_map(-2.0, 100.0), 3.0, np.array([0.0]))
        tracer.active = False
    finally:
        uninstall(undo)
    assert originals == (fp.solve_modified, fpkit.iteration.picard, fpkit.iteration.evaluate,
                         fp.PairSampler.draw)
    totals = tracer.layer_totals()
    steps = result.trace.iterations
    assert totals["iteration.solve_modified"]["calls"] == 1
    assert totals["iteration.picard"]["calls"] == 1
    assert tracer.counters["iteration.picard.steps"] == steps
    # one evaluation per step inside picard, one more for residual_T
    assert totals["mappings.evaluate"]["calls"] == steps + 1
    assert tracer.child_calls("iteration.picard", "mappings.evaluate") == steps
    root = totals["iteration.solve_modified"]
    assert 0.0 <= root["self_s"] <= root["total_s"]
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(root["total_s"])


def test_classify():
    assert classify(status="converged") == OK
    assert classify(status="found") == OK
    for status in ("diverged", "max_iter_reached", "refuted", "infeasible"):
        assert classify(status=status) == SCHEME
    assert classify(status="error:NoConvergence") == FAILED
    assert classify(exit_code=2, expected_exit=2) == OK
    assert classify(exit_code=0, expected_exit=2) == FAILED
    assert classify(status="refuted", exit_code=1, expected_exit=1) == SCHEME


def test_percentile_nearest_rank():
    values = list(range(1, 11))
    assert percentile(values, 50) == 5
    assert percentile(values, 90) == 9
    assert percentile(values, 100) == 10
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)


def test_oracles_accept_exact_answers_and_reject_wrong_ones():
    A = np.array([[-2.0]])
    assert min_b_error(A, "modified", "l2", 1.0) is None
    assert min_b_error(A, "modified", "l2", 1.5) is not None  # feasible, but not least
    assert min_b_error(A, "modified", "l2", 0.5) is not None  # infeasible
    assert min_b_error(A, "modified", "l2", None) is not None
    assert sampled_ratio_error(A, 3.0, "modified", 1.0, 1e-9) is None
    assert sampled_ratio_error(A, 3.0, "modified", 1.1, 1e-9) is not None
