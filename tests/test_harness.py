import dataclasses
import hashlib
import json
import re
from fractions import Fraction

import numpy as np
import pytest

import fpkit as fp
from fpkit.errors import ConfigError, InsufficientData, IoError, NonFiniteResult
from fpkit.harness import (
    FAMILY_COUNT_CAP,
    ExperimentConfig,
    Scheme,
    _dispatch,
    _family_json,
    canonical_json,
    run_bench,
    run_gen,
)

from _family import reference_write_bench_csv

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


def test_config_json_and_digest_are_those_of_the_whole_document(tmp_path):
    # run_experiment builds the document once for both the digest and
    # config.json; the bytes must be json.dumps of the whole document, and the
    # digest that of the document less output_dir.
    deep = {"kind": "affine", "matrix": [[0.5]], "offset": [1.0]}
    for _ in range(50):
        deep = {"kind": "lincomb", "alpha": 0.5, "beta": 0.5, "base": deep}
    plane = {"kind": "affine", "matrix": [[0.5, -1e-300], [2.0**70, 0.1]], "offset": [-0.0, 3.0]}
    for extra in ({}, {"output_dir": "somewhere"}, {"mapping": deep, "store_iterates": True},
                  {"mapping": plane, "x0": [1.0, 2.0], "verify": True, "slack": 0,
                   "sampler": {"count": 100, "seed": 3}, "stop": {"eps_abs": 1, "max_iter": 7}},
                  {"mapping": plane, "scheme": "min_b", "kind": "enriched", "norm": "l1"}):
        cfg = demo_config(**extra)
        doc = fp.config_to_doc(cfg)
        summary = fp.run_experiment(cfg, tmp_path / "run")
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
        assert (tmp_path / "run" / "config.json").read_text() == text + "\n"
        doc.pop("output_dir")
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)
        assert summary.digest == fp.config_digest(cfg) == hashlib.sha256(text.encode()).hexdigest()


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


def test_family_count_past_its_cap_is_refused_before_any_draw(monkeypatch):
    # A count past FAMILY_COUNT_CAP would loop in _random_orthogonal while
    # memory grows; it is refused before the first draw.
    def refuse(rng, dim):
        raise AssertionError("drew a map")

    monkeypatch.setattr(fp.harness, "_random_orthogonal", refuse)
    for count in (FAMILY_COUNT_CAP + 1, 10**400):
        with pytest.raises(fp.ParameterOutOfRange, match=rf"^count: must be in \[0, {FAMILY_COUNT_CAP}\]"):
            fp.generate_affine_family(1, 2, [1.0, 1.0], count)
    monkeypatch.undo()
    assert len(fp.generate_affine_family(1, 1, [0.5], FAMILY_COUNT_CAP)) == FAMILY_COUNT_CAP


def test_family_rejects_fields_that_are_not_integers():
    for args, match in (
        (("x", 2, [1.0, 1.0], 1), "^seed: must be an integer"),
        ((1, "abc", [1.0, 1.0], 1), "^dim: must be an integer"),
        ((1, 2.5, [1.0, 1.0], 1), "^dim: must be an integer"),
        ((1, True, [1.0], 1), "^dim: must be an integer"),
        ((1, 2, [1.0, 1.0], None), "^count: must be an integer"),
        ((1, 2, [1.0, 1.0], 1.0), "^count: must be an integer"),
        ((-1, 2, [1.0, 1.0], 1), "^seed: must be >= 0"),
    ):
        with pytest.raises(fp.ParameterOutOfRange, match=match):
            fp.generate_affine_family(*args)
    assert len(fp.generate_affine_family(np.int64(1), np.int64(2), [1.0, 1.0], np.int64(2))) == 2


def test_integer_fields_take_numpy_integers():
    # Stored as Python ints, so a config holding them encodes.
    stop = fp.StopRule(max_iter=np.int64(5))
    sampler = fp.PairSampler(seed=np.int64(3), count=np.int64(30))
    assert type(stop.max_iter) is type(sampler.seed) is type(sampler.count) is int
    assert stop == fp.StopRule(max_iter=5) and sampler == fp.PairSampler(seed=3, count=30)
    assert sampler.draw(np.int64(2))[0].shape == (30, 2)
    cfg = demo_config()
    cfg = dataclasses.replace(cfg, stop=stop, sampler=sampler, verify=True)
    doc = fp.config_to_doc(cfg)
    assert (doc["stop"]["max_iter"], doc["sampler"]["seed"], doc["sampler"]["count"]) == (5, 3, 30)
    assert canonical_json(doc) == canonical_json(fp.config_to_doc(dataclasses.replace(
        cfg, stop=fp.StopRule(max_iter=5), sampler=fp.PairSampler(seed=3, count=30))))
    for call in (
        lambda: fp.StopRule(max_iter=np.float64(5.0)),
        lambda: fp.PairSampler(seed=np.int64(-1)),
        lambda: fp.PairSampler(count=np.int64(0)),
        lambda: fp.PairSampler(count=np.bool_(True)),
        lambda: fp.PairSampler().draw(np.float64(2.0)),
    ):
        with pytest.raises(fp.ParameterOutOfRange):
            call()


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


# Family 0's lambda equals 1/(b+1), so its two averaged cells iterate one
# map; family 1's differs (1/(3+1) = 0.25, not 0.2).
SHARED_SCHEMES = [{"scheme": "picard"}, {"scheme": "krasnoselskij", "lambda": 0.25},
                  {"scheme": "solve_modified", "b": 3.0}]
APART_SCHEMES = [{"scheme": "picard"}, {"scheme": "krasnoselskij", "lambda": 0.2},
                 {"scheme": "solve_modified", "b": 3.0}]


def _bench_family():
    """Maps on which the schemes end differently: picard diverges on some."""
    return (fp.generate_affine_family(11, 2, [1.8, 0.9], 3)
            + fp.generate_affine_family(12, 1, [0.6], 2)
            + [fp.Composition((fp.Rotation(2.0), fp.BoxProjection([-1.0, -1.0], [2.0, 0.5])))])


def _cell_by_itself(mapping, i, entry) -> dict:
    """The row of one bench cell, dispatched on its own."""
    cfg = ExperimentConfig(mapping, Scheme(entry["scheme"]), b=entry.get("b"),
                           lam=entry.get("lambda"), x0=np.zeros(mapping.dim))
    status, trace, _ = _dispatch(cfg)
    try:
        ratio = fp.empirical_ratio(trace)
    except InsufficientData:
        ratio = ""
    label = {"picard": "picard", "krasnoselskij": f"krasnoselskij[lambda={entry.get('lambda')!r}]",
             "solve_modified": f"solve_modified[b={entry.get('b')!r}]"}[entry["scheme"]]
    return {"mapping": i, "scheme": label, "status": status, "iterations": trace.iterations,
            "empirical_ratio": ratio}


@pytest.mark.parametrize("schemes", [SHARED_SCHEMES, APART_SCHEMES])
def test_bench_rows_are_those_of_each_cell_run_on_its_own(schemes):
    family = _bench_family()
    rows = fp.bench_compare(family, schemes)
    want = [_cell_by_itself(m, i, s) for i, m in enumerate(family) for s in schemes]
    assert [json.dumps(r) for r in rows] == [json.dumps(r) for r in want]  # float bits too
    assert {r["status"] for r in rows} >= {"converged", "diverged"}


@pytest.mark.parametrize("schemes, runs_per_map", [(SHARED_SCHEMES, 2), (APART_SCHEMES, 3)])
def test_bench_cells_on_one_averaged_map_share_a_run(monkeypatch, schemes, runs_per_map):
    # krasnoselskij with lambda = 1/(b+1) is solve_modified with b: one run
    # serves both cells of a map.
    calls = []
    picard = fp.iteration.picard

    def counted(mapping, *args, **kwargs):
        calls.append(mapping)
        return picard(mapping, *args, **kwargs)

    monkeypatch.setattr(fp.iteration, "picard", counted)
    monkeypatch.setattr(fp.harness, "picard", counted)
    family = _bench_family()
    rows = fp.bench_compare(family, schemes)
    assert len(rows) == 3 * len(family)
    assert len(calls) == runs_per_map * len(family)
    if runs_per_map == 2:
        fields = ("status", "iterations", "empirical_ratio")
        for kras, modified in zip(rows[1::3], rows[2::3]):
            assert [kras[k] for k in fields] == [modified[k] for k in fields]


def test_bench_csv_output(tmp_path):
    family = fp.generate_affine_family(8, 1, [0.5], 2)
    rows = fp.bench_compare(family, [{"scheme": "picard"}])
    path = tmp_path / "bench.csv"
    fp.write_bench_csv(rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "mapping,scheme,status,iterations,empirical_ratio"
    assert len(lines) == 3


def test_bench_csv_matches_the_dict_writer_bytes(tmp_path, monkeypatch):
    # Rows with blank iterations and empirical_ratio cells, error statuses,
    # and labels from an int, floats and a Fraction: write_bench_csv writes
    # the bytes csv.DictWriter does, and no cell needs quoting.
    picard = fp.iteration.picard

    def failing_in_3d(mapping, *args, **kwargs):
        if mapping.dim == 3:
            raise NonFiniteResult("mapping evaluation overflowed to a non-finite vector")
        return picard(mapping, *args, **kwargs)

    monkeypatch.setattr(fp.iteration, "picard", failing_in_3d)
    monkeypatch.setattr(fp.harness, "picard", failing_in_3d)
    family = _bench_family() + [fp.Affine(-2.0 * np.eye(2), [3.0, -1.0]), fp.scaling_map(0.5, 3)]
    schemes = SHARED_SCHEMES + [{"scheme": "krasnoselskij", "lambda": Fraction(1, 3)},
                                {"scheme": "solve_modified", "b": 2}]
    rows = fp.bench_compare(family, schemes)
    assert {"converged", "diverged", "error:NonFiniteResult"} <= {r["status"] for r in rows}
    assert any(r["iterations"] == "" for r in rows)
    assert any(r["empirical_ratio"] == "" and r["iterations"] != "" for r in rows)
    fp.write_bench_csv(rows, tmp_path / "new.csv")
    reference_write_bench_csv(rows, tmp_path / "ref.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    text = (tmp_path / "new.csv").read_text()
    assert '"' not in text and "krasnoselskij[lambda=1/3]" in text and "[b=2]," in text


def test_unwritable_artifacts_are_io_errors_naming_them(tmp_path):
    # An output path under a regular file, and each artifact's name taken by
    # a directory: IoError naming the artifact and its path.
    bench = {"family": [DEMO_DOC["mapping"]], "schemes": [{"scheme": "picard"}]}
    gen = {"dim": 1, "singular_values": [0.5], "count": 1}
    runs = {
        "config.json": ("config JSON", lambda out: fp.run_experiment(demo_config(), out)),
        "trace.csv": ("trace CSV", lambda out: fp.run_experiment(demo_config(), out)),
        "summary.json": ("summary JSON", lambda out: fp.run_experiment(demo_config(), out)),
        "bench.csv": ("benchmark CSV", lambda out: run_bench(bench, out)),
        "family.json": ("family JSON", lambda out: run_gen(gen, out)),
    }
    blocker = tmp_path / "file"
    blocker.write_text("")
    for artifact, (what, call) in runs.items():
        with pytest.raises(IoError, match=re.escape(f"cannot create output directory {blocker}")):
            call(blocker / "out")
        taken = tmp_path / artifact.replace(".", "-")
        (taken / artifact).mkdir(parents=True)
        with pytest.raises(IoError, match=re.escape(f"cannot write {what} {taken / artifact}: ")):
            call(taken)
    rows = fp.bench_compare([fp.line_map(0.5, 1.0)], [{"scheme": "picard"}])
    with pytest.raises(IoError, match=re.escape(f"cannot write benchmark CSV {tmp_path}: ")):
        fp.write_bench_csv(rows, tmp_path)


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
