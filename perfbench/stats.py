"""Op classification and order statistics shared by the benchmark runner.

Every timed op ends in one of three ways:

- ``ok``: fpkit returned a result and every oracle agreed with it;
- ``scheme``: fpkit returned a documented negative answer (the iteration
  diverged or hit its budget, a condition was refuted, no feasible b). These
  are correct answers, not failures;
- ``failed``: an ``FpkitError`` where a result is documented, any other
  exception, a CLI exit code other than the expected one, or an oracle
  mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

OK = "ok"
SCHEME = "scheme"
FAILED = "failed"

# Run statuses that fpkit documents as answers rather than errors.
SCHEME_RESULTS = frozenset({"diverged", "max_iter_reached", "refuted", "infeasible"})


@dataclass
class Verdict:
    """What the benchmark concluded about one op, with the work it reported."""

    outcome: str
    reason: str = ""
    wrong: bool = False  # an oracle disagreed with a returned answer
    steps: int = 0
    pairs: int = 0


def classify(
    *,
    status: str | None = None,
    exit_code: int | None = None,
    expected_exit: int | None = None,
) -> str:
    """Outcome class of an op that returned: from its run status and exit code.

    An op that raised, or whose answer an oracle rejected, is failed without
    consulting this function.
    """
    if expected_exit is not None and exit_code != expected_exit:
        return FAILED
    if status is not None and status.startswith("error:"):
        return FAILED
    if status in SCHEME_RESULTS:
        return SCHEME
    return OK


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of samples <= it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < p <= 100.0:
        raise ValueError(f"percentile rank must lie in (0, 100], got {p}")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]
