import subprocess
import sys
from pathlib import Path

import fpkit as fp


# Every name of the public API, sorted, one a line: adding or removing one is
# a deliberate edit of this list.
PUBLIC_API = [
    "Affine",
    "B_CAP",
    "BoxProjection",
    "Composition",
    "ConditionKind",
    "ConfigError",
    "DIM_CAP",
    "DimensionMismatch",
    "EnrichmentReport",
    "ExperimentConfig",
    "FpkitError",
    "Identity",
    "InsufficientData",
    "InvariantViolation",
    "IoError",
    "IterationTrace",
    "LinearCombinationWithIdentity",
    "Mapping",
    "NonFiniteResult",
    "NormKind",
    "PairSampler",
    "ParameterOutOfRange",
    "Rotation",
    "RunSummary",
    "SchemaError",
    "Scheme",
    "SolveResult",
    "Status",
    "StopRule",
    "apriori_iterations",
    "as_affine",
    "averaged",
    "bench_compare",
    "check_fixed_point",
    "condition_ratio",
    "config_digest",
    "config_to_doc",
    "empirical_ratio",
    "enriched_reduction",
    "evaluate",
    "evaluate_many",
    "generate_affine_family",
    "krasnoselskij",
    "line_map",
    "min_b_affine",
    "modified_shift",
    "norm",
    "operator_norm",
    "parse_config",
    "parse_mapping",
    "picard",
    "run_experiment",
    "scaling_map",
    "serialize_mapping",
    "solve_modified",
    "verify_condition",
    "write_bench_csv",
    "write_trace_csv",
]


def test_public_api_is_pinned():
    assert fp.__all__ == PUBLIC_API


def test_public_names_resolve():
    missing = [name for name in fp.__all__ if not hasattr(fp, name)]
    assert missing == []


def test_import_does_not_load_scipy():
    # scipy is not a runtime dependency: linear algebra goes through numpy.
    src = str(Path(fp.__file__).resolve().parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import fpkit; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_readme_quick_tour_runs_as_written():
    # README's "Library quick tour" block runs as written, and the values
    # its comments give are the ones it computes.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    tour = readme.split("## Library quick tour", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(tour, scope)
    assert scope["b"] == 1.0  # min_b_affine([[-2.0]], modified)
    assert scope["n"] == 18  # apriori_iterations(0.25, 25.0, 1e-9)
