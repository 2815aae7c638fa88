import dataclasses
import json

import numpy as np
import pytest

import fpkit as fp
from fpkit.errors import ConfigError
from fpkit.harness import _dispatch, _family_json, canonical_json, run_bench, run_gen

DEMO_DOC = {
    "mapping": {"kind": "affine", "matrix": [[-2.0]], "offset": [100.0]},
    "scheme": "solve_modified",
    "b": 3.0,
    "x0": [0.0],
}


def demo_config(**extra):
    doc = dict(DEMO_DOC)
    doc.update(extra)
    return fp.parse_config(doc)


# --- config plumbing ---


def test_parse_config_demo_solve():
    cfg = demo_config()
    assert cfg.scheme is fp.Scheme.SOLVE_MODIFIED
    assert cfg.b == 3.0
    assert cfg.mapping == fp.line_map(-2.0, 100.0)


def test_parse_config_rejects_unknown_field():
    with pytest.raises(ConfigError):
        fp.parse_config({**DEMO_DOC, "meaning_of_life": 42})


def test_config_validation_names_the_offending_field():
    with pytest.raises(ConfigError, match="b"):
        demo_config(b=-1.0)
    with pytest.raises(ConfigError, match="lambda"):
        fp.parse_config(
            {"mapping": DEMO_DOC["mapping"], "scheme": "krasnoselskij", "lambda": 1.5, "x0": [0.0]}
        )
    with pytest.raises(ConfigError, match="x0"):
        fp.parse_config({"mapping": DEMO_DOC["mapping"], "scheme": "picard"})
    # Scalar fields are type-checked rather than coerced.
    for name, value in (
        ("b", "abc"), ("b", True), ("lambda", "x"), ("seed", "x"), ("seed", 1.5),
        ("seed", -1), ("verify", "false"), ("store_iterates", 1), ("slack", -1e-3),
        ("x0", "abc"),
    ):
        with pytest.raises(ConfigError, match=f"^{name}:"):
            demo_config(**{name: value})
    with pytest.raises(ConfigError, match="^stop: max_iter"):
        demo_config(stop={"max_iter": 2.5})
    # Booleans are not numbers, and a string is named rather than compared.
    for name, value in (
        ("eps_abs", True), ("eps_abs", "x"), ("eps_rel", False),
        ("norm_cap", True), ("norm_cap", "1e12"),
    ):
        with pytest.raises(ConfigError, match=f"^stop: {name} must be a number"):
            demo_config(stop={name: value})
    with pytest.raises(ConfigError, match="^output_dir:"):
        demo_config(output_dir=5)
    # A float count is refused before any pairs are drawn.
    for sampler in ({"seed": -1}, {"seed": 1.5}, {"count": 1e9}, {"box_radius": 1e308}):
        with pytest.raises(ConfigError, match="^sampler:"):
            demo_config(sampler=sampler)
    for name, value in (("box_radius", True), ("box_radius", "x"), ("near_pair_fraction", False)):
        with pytest.raises(ConfigError, match=f"^sampler: {name} must be a number"):
            demo_config(sampler={name: value})


def test_a_config_is_checked_when_built():
    with pytest.raises(ConfigError, match="^x0: required for scheme picard"):
        fp.ExperimentConfig(fp.line_map(-2.0, 100.0), fp.Scheme.PICARD)
    cfg = demo_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.b = -1.0


def test_config_round_trip_is_a_fixpoint():
    cfg = demo_config(seed=7, store_iterates=True)
    doc = fp.config_to_doc(cfg)
    again = fp.config_to_doc(fp.parse_config(doc))
    assert doc == again
    assert canonical_json(doc) == canonical_json(again)


def test_config_digest_ignores_output_dir(tmp_path):
    a = demo_config(output_dir=str(tmp_path / "a"))
    b = demo_config(output_dir=str(tmp_path / "b"))
    assert fp.config_digest(a) == fp.config_digest(b)
    assert fp.config_digest(a) != fp.config_digest(demo_config(b=2.5))


# --- run_experiment ---


def test_run_demo_solve_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    summary = fp.run_experiment(demo_config(), out_dir=out)
    assert summary.status == "converged"
    assert summary.fixed_point[0] == pytest.approx(100.0 / 3.0, abs=1e-7)
    assert (out / "config.json").is_file()
    assert (out / "trace.csv").is_file()
    assert (out / "summary.json").is_file()
    payload = json.loads((out / "summary.json").read_text())
    assert payload["status"] == "converged"
    assert payload["digest"] == summary.digest


def test_run_verify_scheme_example_two(tmp_path):
    cfg = fp.parse_config(
        {
            "mapping": {"kind": "affine", "matrix": [[-1.0]], "offset": [0.0]},
            "scheme": "verify",
            "b": 2.0,
            "kind": "modified",
        }
    )
    summary = fp.run_experiment(cfg, out_dir=tmp_path / "v")
    assert summary.status == "passed"
    assert summary.report is not None and summary.report.passed
    payload = json.loads((tmp_path / "v" / "summary.json").read_text())
    assert payload["report"]["passed"] is True


def test_run_experiment_reproducibility_byte_identical(tmp_path):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    fp.run_experiment(demo_config(seed=11), out_dir=out1)
    fp.run_experiment(demo_config(seed=11), out_dir=out2)
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    s1 = json.loads((out1 / "summary.json").read_text())
    s2 = json.loads((out2 / "summary.json").read_text())
    del s1["wall_time"], s2["wall_time"]
    del s1["artifacts"], s2["artifacts"]
    assert s1 == s2


def test_store_iterates_is_recorded_but_stores_nothing(tmp_path):
    # No artifact holds iterates, so a run does not store them: the field
    # stays in config.json and the digest, and trace.csv keeps its bytes.
    for scheme in ({"scheme": "picard"}, {"scheme": "krasnoselskij", "lambda": 0.25}, {}):
        base = demo_config(**scheme)
        cfg = demo_config(store_iterates=True, **scheme)
        _, trace, _ = _dispatch(cfg)
        assert trace.iterates is None and trace.iterations > 1, scheme
        fp.run_experiment(base, out_dir=tmp_path / "without")
        fp.run_experiment(cfg, out_dir=tmp_path / "with")
        want = (tmp_path / "without" / "trace.csv").read_bytes()
        assert (tmp_path / "with" / "trace.csv").read_bytes() == want, scheme
        assert json.loads((tmp_path / "with" / "config.json").read_text())["store_iterates"]
        assert fp.config_digest(cfg) != fp.config_digest(base)


def test_run_experiment_propagates_scheme_failure_into_status(tmp_path):
    cfg = fp.parse_config(
        {"mapping": DEMO_DOC["mapping"], "scheme": "picard", "x0": [0.0]}
    )
    summary = fp.run_experiment(cfg, out_dir=tmp_path / "d")
    assert summary.status == "diverged"


def test_run_min_b_scheme(tmp_path):
    cfg = fp.parse_config(
        {"mapping": DEMO_DOC["mapping"], "scheme": "min_b", "kind": "modified"}
    )
    summary = fp.run_experiment(cfg, out_dir=tmp_path / "m")
    assert summary.status == "found"
    assert summary.min_b == pytest.approx(1.0, abs=1e-6)


# --- family generation ---


def test_family_prescribed_spectrum():
    (m,) = fp.generate_affine_family(42, 2, [0.5, 0.5], 1)
    assert fp.operator_norm(m.matrix) == pytest.approx(0.5, abs=1e-10)
    svals = np.linalg.svd(m.matrix, compute_uv=False)
    np.testing.assert_allclose(svals, [0.5, 0.5], atol=1e-10)


def test_family_orthogonal_matrices_are_isometries():
    maps = fp.generate_affine_family(9, 3, [1.0, 1.0, 1.0], 4)
    assert len(maps) == 4
    for m in maps:
        assert fp.operator_norm(m.matrix) == pytest.approx(1.0, abs=1e-10)
        np.testing.assert_allclose(m.matrix.T @ m.matrix, np.eye(3), atol=1e-12)


def test_family_determinism_and_offset_box():
    a = fp.generate_affine_family(123, 3, [2.0, 1.0, 0.5], 3)
    b = fp.generate_affine_family(123, 3, [2.0, 1.0, 0.5], 3)
    for ma, mb in zip(a, b):
        np.testing.assert_array_equal(ma.matrix, mb.matrix)
        np.testing.assert_array_equal(ma.offset, mb.offset)
        assert np.all(np.abs(ma.offset) <= 10.0)


def test_family_validation():
    with pytest.raises(fp.ParameterOutOfRange):
        fp.generate_affine_family(1, 2, [1.0], 1)  # length must match dim
    with pytest.raises(fp.ParameterOutOfRange):
        fp.generate_affine_family(1, 2, [1.0, -0.5], 1)
    with pytest.raises(fp.ParameterOutOfRange):
        fp.generate_affine_family(1, 2, [1.0, 1.0], -1)
    assert fp.generate_affine_family(1, 2, [1.0, 1.0], 0) == []


@pytest.mark.parametrize("count", [0, 1, 4])
@pytest.mark.parametrize("dim", [1, 2, 8, 64])
def test_family_json_is_the_indented_json_dump(tmp_path, dim, count):
    doc = {"seed": 5, "dim": dim, "singular_values": np.linspace(0.1, 1.8, dim).tolist(), "count": count}
    family, path = run_gen(doc, tmp_path)
    dumped = json.dumps([fp.serialize_mapping(m) for m in family], indent=2) + "\n"
    assert path.read_bytes() == dumped.encode()
    assert len(family) == count


def test_family_json_float_tokens_are_json_dumps_tokens():
    odd = [fp.Affine([[-0.0, 5e-324], [1e16, -1.7976931348623157e308]], [1e-7, 2.0**70]),
           fp.Affine([[0.1]], [-0.0])]
    assert _family_json(odd) == json.dumps([fp.serialize_mapping(m) for m in odd], indent=2)


# --- benchmark table ---


def test_bench_contractive_family_under_picard():
    family = fp.generate_affine_family(5, 2, [0.5, 0.5], 3)
    rows = fp.bench_compare(family, [{"scheme": "picard"}])
    assert len(rows) == 3
    for row in rows:
        assert row["status"] == "converged"
        assert row["empirical_ratio"] == pytest.approx(0.5, abs=1e-2)


def test_bench_expansive_family_under_picard_diverges():
    family = fp.generate_affine_family(6, 2, [2.0, 2.0], 3)
    rows = fp.bench_compare(family, [{"scheme": "picard"}])
    assert all(row["status"] == "diverged" for row in rows)


def test_bench_negated_double_identity_converges_under_krasnoselskij():
    # With A = -2I and lambda = 1/3 the averaged matrix is exactly zero, so
    # the iteration lands on the fixed point in one step. Oracle first.
    lam = 1.0 / 3.0
    family = [fp.Affine(-2.0 * np.eye(2), [3.0, -1.0]), fp.Affine(-2.0 * np.eye(2), [0.5, 2.0])]
    for m in family:
        averaged_norm = fp.operator_norm((1.0 - lam) * np.eye(2) + lam * m.matrix)
        assert averaged_norm < 1.0
    rows = fp.bench_compare(family, [{"scheme": "krasnoselskij", "lambda": lam}])
    assert all(row["status"] == "converged" for row in rows)


def test_bench_mixed_schemes_and_labels():
    family = fp.generate_affine_family(7, 1, [0.5], 1)
    rows = fp.bench_compare(
        family,
        [
            {"scheme": "picard"},
            {"scheme": "krasnoselskij", "lambda": 0.5},
            {"scheme": "solve_modified", "b": 1.0},
        ],
    )
    labels = {row["scheme"] for row in rows}
    assert labels == {"picard", "krasnoselskij[lambda=0.5]", "solve_modified[b=1.0]"}


def test_bench_csv_output(tmp_path):
    family = fp.generate_affine_family(8, 1, [0.5], 2)
    rows = fp.bench_compare(family, [{"scheme": "picard"}])
    path = tmp_path / "bench.csv"
    fp.write_bench_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "mapping,scheme,status,iterations,empirical_ratio"
    assert len(lines) == 3


def test_bench_family_nested_too_deeply_is_config_error(tmp_path):
    mapping = {"kind": "affine", "matrix": [[0.5]], "offset": [1.0]}
    for _ in range(5000):
        mapping = {"kind": "lincomb", "alpha": 0.5, "beta": 0.5, "base": mapping}
    doc = {"family": [mapping], "schemes": [{"scheme": "picard"}]}
    with pytest.raises(ConfigError, match=r"^family: \$: nested too deeply$"):
        run_bench(doc, tmp_path)


def test_mapping_too_deep_to_encode_is_config_error(tmp_path):
    # Built in Python, 3,000 lincombs deep: the library walks it, but the JSON
    # encoder behind the digest and config.json cannot, so the run refuses it
    # with a ConfigError. bench_compare writes no config and solves it.
    mapping = fp.line_map(0.5, 1.0)
    for _ in range(3000):
        mapping = fp.averaged(mapping, 0.5)
    cfg = fp.ExperimentConfig(mapping=mapping, scheme=fp.Scheme.PICARD, x0=np.zeros(1))
    for call in (lambda: fp.config_digest(cfg), lambda: fp.run_experiment(cfg, tmp_path)):
        with pytest.raises(ConfigError, match="^mapping: nested too deeply for a config document$"):
            call()
    rows = fp.bench_compare([mapping], [{"scheme": "picard"}])
    assert [r["status"] for r in rows] == ["converged"]


def test_refused_config_creates_no_output_directory(tmp_path):
    # The digest refuses the 3,000-level chain before the run makes out/.
    mapping = fp.line_map(0.5, 1.0)
    for _ in range(3000):
        mapping = fp.averaged(mapping, 0.5)
    out = tmp_path / "out"
    cfg = fp.ExperimentConfig(
        mapping=mapping, scheme=fp.Scheme.PICARD, x0=np.zeros(1), output_dir=str(out)
    )
    for target in (None, out / "given"):
        with pytest.raises(ConfigError, match="nested too deeply"):
            fp.run_experiment(cfg, target)
    assert list(tmp_path.iterdir()) == []


def test_bench_scheme_validation():
    family = fp.generate_affine_family(8, 1, [0.5], 2)
    with pytest.raises(ConfigError, match=r"schemes\[0\]: lambda"):
        fp.bench_compare(family, [{"scheme": "krasnoselskij"}])  # lambda required
    with pytest.raises(ConfigError, match=r"schemes\[1\]: b"):
        fp.bench_compare(family, [{"scheme": "picard"}, {"scheme": "solve_modified", "b": -1.0}])
    with pytest.raises(ConfigError, match=r"schemes\[0\]: scheme: verify cannot be benchmarked"):
        fp.bench_compare(family, [{"scheme": "verify", "b": 1.0}])
