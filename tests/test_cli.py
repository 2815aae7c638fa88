import json
import re
import subprocess
import sys

import pytest

from fpkit import harness
from fpkit.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_SCHEME_FAILURE, main
from fpkit.enrichment import PAIR_COUNT_CAP

DEMO_MAPPING = {"kind": "affine", "matrix": [[-2.0]], "offset": [100.0]}


def lincomb_chain(depth: int) -> str:
    """A solve config whose mapping nests ``depth`` lincombs over a line map,
    as JSON text (``json.dumps`` itself refuses such depths)."""
    head = '{"kind": "lincomb", "alpha": 0.5, "beta": 0.5, "base": '
    line = json.dumps({"kind": "affine", "matrix": [[0.5]], "offset": [1.0]})
    return '{"b": 3.0, "x0": [0.0], "mapping": ' + head * depth + line + "}" * depth + "}"


def strict_loads(text: str):
    """``json.loads`` refusing the non-standard NaN and Infinity tokens."""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


@pytest.fixture
def write_config(tmp_path):
    def _write(doc, name="config.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return _write


def test_solve_success(tmp_path, write_config, capsys):
    cfg = write_config({"mapping": DEMO_MAPPING, "b": 3.0, "x0": [0.0]})
    code = main(["solve", "--config", cfg, "--out", str(tmp_path / "run")])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "status=converged" in out
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["fixed_point"][0] == pytest.approx(100.0 / 3.0, abs=1e-7)


def test_solve_flag_overrides(tmp_path, write_config):
    cfg = write_config({"mapping": DEMO_MAPPING})
    code = main(
        ["solve", "--config", cfg, "--out", str(tmp_path / "run"),
         "--b", "3.0", "--x0", "5.0", "--verify"]
    )
    assert code == EXIT_OK
    summary = json.loads((tmp_path / "run" / "summary.json").read_text())
    assert summary["report"]["passed"] is True


def test_solve_rejects_bad_b(tmp_path, write_config):
    cfg = write_config({"mapping": DEMO_MAPPING, "x0": [0.0]})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "o"), "--b", "-1"]) == EXIT_CONFIG


def test_verify_refuted_is_scheme_failure(tmp_path, write_config):
    cfg = write_config(
        {"mapping": {"kind": "rotation", "theta": 1.5707963267948966}, "b": 1.0, "kind": "modified"}
    )
    code = main(["verify", "--config", cfg, "--out", str(tmp_path / "v")])
    assert code == EXIT_SCHEME_FAILURE
    summary = json.loads((tmp_path / "v" / "summary.json").read_text())
    assert summary["status"] == "refuted"


def test_verify_pass(tmp_path, write_config, capsys):
    cfg = write_config({"mapping": DEMO_MAPPING, "b": 3.0, "kind": "modified"})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == EXIT_OK
    out = capsys.readouterr().out
    assert "passed=True" in out
    assert "  max_ratio=1.0 status=proved passed=True\n" in out


def test_verify_summary_is_strict_json_with_null_for_inf(tmp_path, write_config):
    # x -> 1.7e308 * clip(x_1) * (1, 1): the sampled ratio overflows to inf.
    big = {"kind": "affine", "matrix": [[1.7e308, 0.0], [1.7e308, 0.0]], "offset": [0.0, 0.0]}
    box = {"kind": "box_projection", "lo": [-1.0, -1.0], "hi": [1.0, 1.0]}
    cfg = write_config({"mapping": {"kind": "composition", "stages": [box, big]}, "b": 0.25,
                        "kind": "enriched", "sampler": {"box_radius": 1, "count": 2000}})
    assert main(["verify", "--config", cfg, "--out", str(tmp_path / "v")]) == EXIT_SCHEME_FAILURE
    summary = strict_loads((tmp_path / "v" / "summary.json").read_text())
    assert summary["status"] == "refuted"
    assert summary["report"]["max_ratio"] is None
    assert summary["report"]["passed"] is False


def test_solve_summary_writes_null_for_an_infinite_residual(tmp_path, write_config):
    # The averaged step lands on 5e299, where T overflows: residual_T is inf.
    cfg = write_config({"mapping": {"kind": "affine", "matrix": [[1e300]], "offset": [0.0]},
                        "b": 1.0, "x0": [1.0]})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "s")]) == EXIT_SCHEME_FAILURE
    summary = strict_loads((tmp_path / "s" / "summary.json").read_text())
    assert summary["status"] == "diverged"
    assert summary["residual_T"] is None


def test_iterate_picard_divergence(tmp_path, write_config):
    cfg = write_config({"mapping": DEMO_MAPPING, "scheme": "picard", "x0": [0.0]})
    assert main(["iterate", "--config", cfg, "--out", str(tmp_path / "i")]) == EXIT_SCHEME_FAILURE


def test_iterate_krasnoselskij(tmp_path, write_config):
    cfg = write_config(
        {"mapping": DEMO_MAPPING, "scheme": "krasnoselskij", "lambda": 0.25, "x0": [0.0]}
    )
    assert main(["iterate", "--config", cfg, "--out", str(tmp_path / "i")]) == EXIT_OK
    trace = (tmp_path / "i" / "trace.csv").read_text().splitlines()
    assert trace[0] == "iter,residual,ratio"
    assert trace[1] == "1,25.0,"


def test_iterate_rejects_foreign_scheme(tmp_path, write_config):
    cfg = write_config({"mapping": DEMO_MAPPING, "scheme": "verify", "x0": [0.0]})
    assert main(["iterate", "--config", cfg, "--out", str(tmp_path / "i")]) == EXIT_CONFIG


def test_tol_and_max_iter_flags_change_the_run(tmp_path, write_config):
    cfg = write_config(
        {"mapping": DEMO_MAPPING, "scheme": "krasnoselskij", "lambda": 0.25, "x0": [0.0]}
    )
    runs = {}
    for name, flags, code in (
        ("default", [], EXIT_OK),
        ("tol", ["--tol", "1e-3"], EXIT_OK),
        ("max-iter", ["--max-iter", "3"], EXIT_SCHEME_FAILURE),
    ):
        out = tmp_path / name
        assert main(["iterate", "--config", cfg, "--out", str(out), *flags]) == code, name
        runs[name] = (json.loads((out / "summary.json").read_text()),
                      json.loads((out / "config.json").read_text())["stop"])
    default, _ = runs["default"]
    summary, stop = runs["tol"]
    assert stop["eps_abs"] == 1e-3
    assert summary["status"] == "converged" and summary["iterations"] < default["iterations"]
    summary, stop = runs["max-iter"]
    assert stop["max_iter"] == 3
    assert (summary["status"], summary["iterations"]) == ("max_iter_reached", 3)


def test_missing_or_foreign_fields_are_config_errors(tmp_path, write_config, capsys, monkeypatch):
    # Each exits 2 with one message and leaves no output directory. The solve
    # has neither --out nor output_dir, so the run starts in tmp_path, where
    # any directory it made would show.
    monkeypatch.chdir(tmp_path)
    out = ["--out", str(tmp_path / "o")]
    half = {"kind": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]], "offset": [1.0, 1.0]}
    for command, doc, args, message in (
        ("iterate", {"mapping": DEMO_MAPPING, "scheme": "verify", "b": 3.0, "kind": "modified"},
         out, "scheme: iterate expects picard or krasnoselskij, got 'verify'"),
        ("verify", {"mapping": DEMO_MAPPING, "b": 3.0}, out, "kind: required for scheme verify"),
        ("min-b", {"mapping": DEMO_MAPPING}, out, "kind: required for scheme min_b"),
        ("solve", {"mapping": DEMO_MAPPING, "b": 3.0, "x0": [0.0]}, [],
         "output_dir: required (set it in the config or pass out_dir)"),
        # JSON booleans in x0 are not numbers, alone or mixed with numbers.
        ("solve", {"mapping": DEMO_MAPPING, "b": 3.0, "x0": [True]}, out,
         "x0: expected an array of numbers"),
        ("iterate", {"mapping": half, "scheme": "picard", "x0": [True, 0.5]}, out,
         "x0: expected an array of numbers"),
        ("bench", {"family": [half], "schemes": [{"scheme": "picard"}], "x0": [0.5, False]}, out,
         "x0: expected an array of numbers"),
        ("solve", {"mapping": DEMO_MAPPING, "b": 3.0}, [*out, "--x0", "1,abc"],
         "x0: cannot parse '1,abc' as a comma-separated vector"),
        ("min-b", {"mapping": {"kind": "box_projection", "lo": [0.0], "hi": [1.0]}, "kind": "modified"}, out,
         "mapping: scheme min_b needs an affine-representable mapping"),
    ):
        cfg = write_config(doc)
        assert main([command, "--config", cfg, *args]) == EXIT_CONFIG, command
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"], command


def test_seed_reaches_a_sampler_that_names_none(tmp_path, write_config):
    # A sampler object without a seed draws with the document's seed, as a
    # bench generator family does, so --seed changes the sample; one that
    # names its seed keeps it. The box, which never clamps a point of the
    # sampler's box, leaves the map the rotation but takes it off the exact
    # path, whose witness does not depend on the seed.
    rotation = {"kind": "rotation", "theta": 1.0}
    box = {"kind": "box_projection", "lo": [-1000.0, -1000.0], "hi": [1000.0, 1000.0]}
    doc = {"mapping": {"kind": "composition", "stages": [rotation, box]}, "b": 0.3,
           "kind": "modified", "sampler": {"count": 100}}
    witnesses = []
    for sampler, seed, drawn in (({"count": 100}, 1, 1), ({"count": 100}, 2, 2),
                                 ({"count": 100, "seed": 7}, 1, 7)):
        cfg = write_config({**doc, "sampler": sampler})
        out = tmp_path / f"{seed}-{drawn}"
        argv = ["verify", "--config", cfg, "--out", str(out), "--seed", str(seed)]
        assert main(argv) == EXIT_SCHEME_FAILURE
        assert json.loads((out / "config.json").read_text())["sampler"]["seed"] == drawn
        witnesses.append(json.loads((out / "summary.json").read_text())["report"]["witness"])
    assert witnesses[0] != witnesses[1]


def test_min_b_prints_value(tmp_path, write_config, capsys):
    cfg = write_config({"mapping": DEMO_MAPPING, "kind": "modified"})
    assert main(["min-b", "--config", cfg, "--out", str(tmp_path / "m")]) == EXIT_OK
    assert "min_b=" in capsys.readouterr().out
    summary = json.loads((tmp_path / "m" / "summary.json").read_text())
    assert summary["status"] == "found"
    assert summary["min_b"] == pytest.approx(1.0, abs=1e-6)


def test_min_b_folds_the_mapping_once_to_check_and_once_to_run(
    tmp_path, write_config, monkeypatch
):
    calls = []
    fold = harness.as_affine
    monkeypatch.setattr(harness, "as_affine", lambda m: calls.append(m) or fold(m))
    cfg = write_config({"mapping": DEMO_MAPPING, "kind": "modified"})
    assert main(["min-b", "--config", cfg, "--out", str(tmp_path / "m")]) == EXIT_OK
    assert len(calls) == 2


def test_min_b_infeasible(tmp_path, write_config):
    doubling = {"kind": "affine", "matrix": [[2.0, 0.0], [0.0, 2.0]], "offset": [0.0, 0.0]}
    cfg = write_config({"mapping": doubling, "kind": "modified"})
    assert main(["min-b", "--config", cfg, "--out", str(tmp_path / "m")]) == EXIT_SCHEME_FAILURE


def test_bench_writes_csv(tmp_path, write_config):
    cfg = write_config(
        {
            "family": {"dim": 1, "singular_values": [0.5], "count": 3, "seed": 5},
            "schemes": [{"scheme": "picard"}, {"scheme": "krasnoselskij", "lambda": 0.5}],
        }
    )
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "b")]) == EXIT_OK
    lines = (tmp_path / "b" / "bench.csv").read_text().splitlines()
    assert lines[0] == "mapping,scheme,status,iterations,empirical_ratio"
    assert len(lines) == 1 + 3 * 2


def test_bench_explicit_family_list(tmp_path, write_config):
    cfg = write_config(
        {
            "family": [DEMO_MAPPING],
            "schemes": [{"scheme": "solve_modified", "b": 3.0}],
            "x0": [0.0],
        }
    )
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "b")]) == EXIT_OK
    body = (tmp_path / "b" / "bench.csv").read_text()
    assert "solve_modified[b=3.0],converged" in body


def test_gen_roundtrips_through_solve(tmp_path, write_config):
    cfg = write_config({"dim": 2, "singular_values": [0.5, 0.25], "count": 2, "seed": 3})
    assert main(["gen", "--config", cfg, "--out", str(tmp_path / "g")]) == EXIT_OK
    family = json.loads((tmp_path / "g" / "family.json").read_text())
    assert len(family) == 2 and all(m["kind"] == "affine" for m in family)


def test_bench_rejects_bad_fields(tmp_path, write_config, capsys):
    family = {"dim": 1, "singular_values": [0.5], "count": 2, "seed": 5}
    schemes = [{"scheme": "picard"}]
    for name, bad in (
        ("norm", {"norm": "l3"}),
        ("seed", {"seed": "x"}),
        ("family.seed", {"family": {**family, "seed": "5"}}),
        ("family.dim", {"family": {**family, "dim": 1.5}}),
        ("family.count", {"family": {**family, "count": "2"}}),
        ("family.singular_values: must be a list of numbers",
         {"family": {**family, "singular_values": "abc"}}),
        # JSON booleans and strings are not numbers, as everywhere in a config.
        ("family.singular_values: must be a list of numbers",
         {"family": {**family, "singular_values": ["0.5"]}}),
        ("family.singular_values: must be a list of numbers",
         {"family": {**family, "singular_values": [True]}}),
        ("family: expected a list of mappings or a generator object", {"family": 5}),
        ("schemes: expected a non-empty list", {"schemes": []}),
        # The generator's own range checks name the field too.
        ("family.dim: must be in [1, 64]", {"family": {**family, "dim": 0}}),
        ("family.dim: must be in [1, 64]", {"family": {**family, "dim": 65}}),
        ("family.singular_values: must be a list of length dim=1",
         {"family": {**family, "singular_values": [0.5, 0.25]}}),
        ("family.singular_values: must be finite and >= 0",
         {"family": {**family, "singular_values": [-0.5]}}),
        ("schemes[0]: lambda", {"schemes": [{"scheme": "krasnoselskij", "lambda": "x"}]}),
        ("schemes[0]: lambda", {"schemes": [{"scheme": "krasnoselskij", "lambda": True}]}),
        ("schemes[0]: b", {"schemes": [{"scheme": "solve_modified", "b": True}]}),
        ("schemes[0]: b", {"schemes": [{"scheme": "solve_modified", "b": "3"}]}),
        ("stop: eps_abs", {"stop": {"eps_abs": True}}),
        ("x0", {"x0": "abc"}),
        # Unknown fields at every level: the document, the family generator
        # and each scheme entry.
        ("stopp", {"stopp": {"eps_abs": 1e-9}}),
        ("verify", {"verify": "nonsense"}),
        ("slack", {"slack": -5}),
        ("sampler", {"sampler": {"count": -1}}),
        ("family.seeed", {"family": {**family, "seeed": 5}}),
        ("schemes[0]: lamda", {"schemes": [{"scheme": "krasnoselskij", "lamda": 0.5}]}),
        ("schemes[0]: scheme: missing field", {"schemes": [{"lambda": 0.5}]}),
        ("schemes[0]: scheme: verify cannot be benchmarked", {"schemes": [{"scheme": "verify"}]}),
        ("stop: norm_cap must be finite", {"stop": {"norm_cap": float("inf")}}),
        # An empty family still checks each entry's parameters.
        ("schemes[0]: lambda", {"family": {**family, "count": 0}, "schemes": [{"scheme": "krasnoselskij"}]}),
        ("schemes[0]: lambda", {"schemes": [{"scheme": "krasnoselskij", "lambda": 1.5}]}),
    ):
        cfg = write_config({"family": family, "schemes": schemes, **bad})
        assert main(["bench", "--config", cfg, "--out", str(tmp_path / "b")]) == EXIT_CONFIG
        assert f"config error: {name}" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()  # refused before the directory is made


def test_gen_rejects_bad_fields(tmp_path, write_config, capsys):
    doc = {"dim": 2, "singular_values": [0.5, 0.25], "count": 2, "seed": 3}
    for name, value in (
        ("dim", "2"), ("count", 2.5), ("seed", None), ("singular_values", "abc"), ("seeed", 3),
        ("norm", "l1"), ("stop", {"max_iter": 5}),
    ):
        cfg = write_config({**doc, name: value})
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "g")]) == EXIT_CONFIG
        assert f"config error: {name}" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()  # refused before the directory is made
    # The generator's own range checks name the field too.
    for name, value, message in (
        ("dim", 0, "dim: must be in [1, 64]"),
        ("dim", 65, "dim: must be in [1, 64]"),
        ("singular_values", [0.5], "singular_values: must be a list of length dim=2"),
        ("singular_values", [0.5, -0.25], "singular_values: must be finite and >= 0"),
        ("singular_values", [1.0, "x"], "singular_values: must be a list of numbers"),
        ("singular_values", ["0.5", 0.25], "singular_values: must be a list of numbers"),
        ("singular_values", [True, 0.5], "singular_values: must be a list of numbers"),
    ):
        cfg = write_config({**doc, name: value})
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "g")]) == EXIT_CONFIG
        assert f"config error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "g").exists()
    # gen takes no norm or stop rule, so it offers no flag that would set one.
    cfg = write_config(doc)
    for flag in (["--norm", "l1"], ["--tol", "1e-3"], ["--max-iter", "5"]):
        with pytest.raises(SystemExit):
            main(["gen", "--config", cfg, "--out", str(tmp_path / "g"), *flag])
    capsys.readouterr()


def test_integers_past_the_float_range_are_config_errors(tmp_path, write_config, capsys):
    # JSON integers have no size limit, and float() refuses a 400-digit one
    # with OverflowError. Each field names itself and exits 2, with no
    # traceback and no output directory.
    big = 10**400
    plane = {"kind": "rotation", "theta": big}
    for command, doc, message in (
        ("solve", {"mapping": DEMO_MAPPING, "b": big, "x0": [0.0]}, "b: must be finite"),
        ("solve", {"mapping": plane, "b": 3.0, "x0": [0.0, 0.0]},
         "mapping: $.theta: must be finite"),
        ("solve", {"mapping": DEMO_MAPPING, "b": 3.0, "x0": [0.0], "stop": {"eps_abs": big}},
         "stop: eps_abs must lie within the float range"),
        ("solve", {"mapping": DEMO_MAPPING, "b": 3.0, "x0": [big]}, "x0: entries must be finite"),
        ("verify", {"mapping": DEMO_MAPPING, "b": -big, "kind": "modified"}, "b: must be finite"),
        ("gen", {"dim": 1, "singular_values": [big], "count": 1},
         "singular_values: must be finite and >= 0"),
    ):
        cfg = write_config(doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "o").exists()


def test_counts_past_their_caps_are_config_errors(tmp_path, write_config, capsys):
    # A sampler count or a family count past its cap exits 2 before any
    # pair or map is drawn, with no traceback and no output directory.
    big = 10**400
    family = {"dim": 1, "singular_values": [0.5], "seed": 5}
    over_pairs = PAIR_COUNT_CAP + 1
    over_maps = harness.FAMILY_COUNT_CAP + 1
    for command, doc, message in (
        ("verify", {"mapping": DEMO_MAPPING, "b": 3.0, "kind": "enriched",
                    "sampler": {"count": big}}, "sampler: count must be an integer in [1, "),
        ("verify", {"mapping": DEMO_MAPPING, "b": 3.0, "kind": "enriched",
                    "sampler": {"count": over_pairs}}, f"got {over_pairs}"),
        ("solve", {"mapping": DEMO_MAPPING, "b": 3.0, "x0": [0.0], "verify": True,
                   "sampler": {"count": big}}, "sampler: count must be an integer in [1, "),
        ("gen", {**family, "count": big}, f"count: must be in [0, {harness.FAMILY_COUNT_CAP}]"),
        ("gen", {**family, "count": over_maps}, f"count: must be in [0, {harness.FAMILY_COUNT_CAP}]"),
        ("bench", {"family": {**family, "count": big}, "schemes": [{"scheme": "picard"}]},
         f"family.count: must be in [0, {harness.FAMILY_COUNT_CAP}]"),
    ):
        cfg = write_config(doc)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and message in err, err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()


def test_bench_x0_mismatch_names_the_map(tmp_path, write_config, capsys):
    plane = {"kind": "affine", "matrix": [[0.5, 0.0], [0.0, 0.5]], "offset": [1.0, 1.0]}
    cfg = write_config({"family": [DEMO_MAPPING, plane], "schemes": [{"scheme": "picard"}], "x0": [0.0]})
    assert main(["bench", "--config", cfg, "--out", str(tmp_path / "b")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error: family[1], schemes[0]: x0: dimension 1 does not match" in err
    assert not (tmp_path / "b" / "bench.csv").exists()


def test_min_b_overflowing_affine_form_is_config_error(tmp_path, write_config, capsys):
    # The folded matrix is 1e200 * 1e200 = inf: a config error, with no
    # numpy overflow warning on the way (pytest turns one into an error).
    huge = {"kind": "affine", "matrix": [[1e200]], "offset": [0.0]}
    cfg = write_config({"mapping": {"kind": "composition", "stages": [huge, huge]}, "kind": "enriched"})
    assert main(["min-b", "--config", cfg, "--out", str(tmp_path / "m")]) == EXIT_CONFIG
    assert "config error: mapping:" in capsys.readouterr().err


def test_missing_config_file_is_io_error(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == EXIT_IO


# command -> (config, the artifact whose name a directory takes, its name in
# the error message)
UNWRITABLE = {
    "solve": ({"mapping": DEMO_MAPPING, "b": 3.0, "x0": [0.0]}, "config.json", "config JSON"),
    "verify": ({"mapping": DEMO_MAPPING, "b": 3.0, "kind": "modified"}, "trace.csv", "trace CSV"),
    "iterate": (
        {"mapping": DEMO_MAPPING, "scheme": "krasnoselskij", "lambda": 0.25, "x0": [0.0]},
        "summary.json", "summary JSON",
    ),
    "min-b": ({"mapping": DEMO_MAPPING, "kind": "modified"}, "trace.csv", "trace CSV"),
    "bench": ({"family": [DEMO_MAPPING], "schemes": [{"scheme": "picard"}]}, "bench.csv",
              "benchmark CSV"),
    "gen": ({"dim": 1, "singular_values": [0.5], "count": 1}, "family.json", "family JSON"),
}


@pytest.mark.parametrize("command", UNWRITABLE)
def test_unwritable_output_is_io_error(tmp_path, write_config, capsys, command):
    # --out under a regular file, or an artifact's name taken by a directory:
    # exit 3 with one line naming the path, and no traceback.
    doc, artifact, what = UNWRITABLE[command]
    cfg = write_config(doc)
    blocker = tmp_path / "file"
    blocker.write_text("")
    taken = tmp_path / "taken"
    (taken / artifact).mkdir(parents=True)
    for out, message in (
        (blocker / "out", f"cannot create output directory {blocker / 'out'}: "),
        (taken, f"cannot write {what} {taken / artifact}: "),
    ):
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith(f"i/o error: {message}") and err.count("\n") == 1, err
        assert "Traceback" not in err


def test_malformed_json_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG
    bad.write_text("[1, 2]")
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG
    # Nested past the recursion limit, in the JSON decoder or in the mapping
    # parser: a config error, not a RecursionError traceback.
    for text in ("[" * 100_000 + "]" * 100_000, lincomb_chain(990)):
        bad.write_text(text)
        for command in ("solve", "bench", "gen"):
            assert main([command, "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG


def test_module_entry_point_smoke(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"mapping": DEMO_MAPPING, "b": 3.0, "x0": [0.0]}))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "fpkit", "solve",
         "--config", str(cfg), "--out", str(tmp_path / "run")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "status=converged" in proc.stdout


def test_deep_mapping_chain_still_solves(tmp_path):
    # A fresh process, as from a shell: 960 nested lincombs parse and solve.
    cfg = tmp_path / "config.json"
    cfg.write_text(lincomb_chain(960))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "fpkit", "solve",
         "--config", str(cfg), "--out", str(tmp_path / "run")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "status=converged" in proc.stdout


def test_in_process_calls_share_no_state(tmp_path, write_config):
    cfg = write_config({"mapping": DEMO_MAPPING, "b": 3.0, "x0": [0.0]})
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "a"), "--b", "5"]) == EXIT_OK
    assert main(["solve", "--config", cfg, "--out", str(tmp_path / "b")]) == EXIT_OK
    first = json.loads((tmp_path / "a" / "config.json").read_text())
    second = json.loads((tmp_path / "b" / "config.json").read_text())
    assert first["b"] == 5.0 and second["b"] == 3.0
    assert json.loads((tmp_path / "b" / "summary.json").read_text())["lambda"] == 0.25


def test_gen_and_bench_reruns_are_byte_identical(tmp_path, write_config):
    gen = write_config({"dim": 8, "singular_values": [0.5] * 8, "count": 3, "seed": 4}, "gen.json")
    bench = write_config(
        {"family": {"dim": 2, "singular_values": [1.8, 0.9], "count": 3, "seed": 2},
         "schemes": [{"scheme": "picard"}, {"scheme": "krasnoselskij", "lambda": 0.25}]},
        "bench.json",
    )
    for command, cfg, artifact in (("gen", gen, "family.json"), ("bench", bench, "bench.csv")):
        runs = [tmp_path / f"{command}-{k}" for k in range(2)]
        for out in runs:
            assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
        assert (runs[0] / artifact).read_bytes() == (runs[1] / artifact).read_bytes()


def run_bytes(out):
    """Every file of the run directory ``out`` by name, as bytes, with
    summary.json's ``wall_time`` value masked: the one field a rerun moves."""
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    if "summary.json" in files:
        files["summary.json"] = re.sub(rb'"wall_time": [^,]*,', b'"wall_time": _,', files["summary.json"])
    return files


def test_a_shorter_rerun_into_the_same_directory_leaves_no_stale_tail(tmp_path, write_config):
    # Each artifact is overwritten in place and cut to its new length, so a
    # run that writes fewer bytes than the one before holds exactly its own.
    slow = write_config(
        {"mapping": DEMO_MAPPING, "scheme": "krasnoselskij", "lambda": 0.01, "x0": [0.0]}, "slow.json"
    )
    gen8 = write_config({"dim": 8, "singular_values": [0.5] * 8, "count": 3, "seed": 4}, "gen8.json")
    gen2 = write_config({"dim": 2, "singular_values": [0.5, 0.25], "count": 3, "seed": 4}, "gen2.json")
    for (long_argv, long_code), (short_argv, short_code) in (
        ((["iterate", "--config", slow], EXIT_OK),
         (["iterate", "--config", slow, "--max-iter", "3"], EXIT_SCHEME_FAILURE)),
        ((["gen", "--config", gen8], EXIT_OK), (["gen", "--config", gen2], EXIT_OK)),
    ):
        same, fresh = tmp_path / f"{long_argv[0]}-same", tmp_path / f"{long_argv[0]}-fresh"
        assert main([*long_argv, "--out", str(same)]) == long_code
        before = run_bytes(same)
        assert main([*short_argv, "--out", str(same)]) == short_code
        assert main([*short_argv, "--out", str(fresh)]) == short_code
        after = run_bytes(same)
        assert after == run_bytes(fresh)
        assert any(len(after[name]) < len(before[name]) for name in after)


@pytest.mark.parametrize("command", UNWRITABLE)
def test_a_rerun_into_the_same_directory_leaves_the_fresh_bytes(tmp_path, write_config, command):
    doc, _, _ = UNWRITABLE[command]
    cfg = write_config(doc)
    same, fresh = tmp_path / "same", tmp_path / "fresh"
    for out in (same, same, fresh):
        assert main([command, "--config", cfg, "--out", str(out)]) == EXIT_OK
    assert run_bytes(same) == run_bytes(fresh)


def test_sampler_boxes_whose_redraw_floor_rounds_to_zero_are_config_errors(
    tmp_path, write_config, capsys
):
    # Far pairs closer than MIN_SEPARATION * box_radius are redrawn; below
    # about 2.48e-310 that floor is 0 and x = y pairs would be scored. Each
    # such box exits 2 with one message and no output directory.
    for box_radius in (0.0, 5e-320, 2.5e-320):
        for command, doc in (
            ("verify", {"mapping": DEMO_MAPPING, "b": 3.0, "kind": "enriched"}),
            ("solve", {"mapping": DEMO_MAPPING, "b": 3.0, "x0": [0.0], "verify": True}),
        ):
            cfg = write_config({**doc, "sampler": {"box_radius": box_radius}})
            assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err == (
                "config error: sampler: box_radius must keep 1e-14*box_radius > 0 and "
                f"2*box_radius finite, got {box_radius!r}\n"
            ), err
            assert not (tmp_path / "o").exists()
