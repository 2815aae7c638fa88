import json
import subprocess
import sys

import pytest

from fpkit.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, EXIT_SCHEME_FAILURE, main

DEMO_MAPPING = {"kind": "affine", "matrix": [[-2.0]], "offset": [100.0]}


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
    assert "passed=True" in capsys.readouterr().out


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


def test_min_b_prints_value(tmp_path, write_config, capsys):
    cfg = write_config({"mapping": DEMO_MAPPING, "kind": "modified"})
    assert main(["min-b", "--config", cfg, "--out", str(tmp_path / "m")]) == EXIT_OK
    assert "min_b=" in capsys.readouterr().out
    summary = json.loads((tmp_path / "m" / "summary.json").read_text())
    assert summary["status"] == "found"
    assert summary["min_b"] == pytest.approx(1.0, abs=1e-6)


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
        ("singular_values", {"family": {**family, "singular_values": "abc"}}),
        ("schemes[0]: lambda", {"schemes": [{"scheme": "krasnoselskij", "lambda": "x"}]}),
        ("schemes[0]: lambda", {"schemes": [{"scheme": "krasnoselskij", "lambda": True}]}),
        ("schemes[0]: b", {"schemes": [{"scheme": "solve_modified", "b": True}]}),
        ("schemes[0]: b", {"schemes": [{"scheme": "solve_modified", "b": "3"}]}),
        ("stop: eps_abs", {"stop": {"eps_abs": True}}),
        ("x0", {"x0": "abc"}),
    ):
        cfg = write_config({"family": family, "schemes": schemes, **bad})
        assert main(["bench", "--config", cfg, "--out", str(tmp_path / "b")]) == EXIT_CONFIG
        assert f"config error: {name}" in capsys.readouterr().err


def test_gen_rejects_bad_fields(tmp_path, write_config, capsys):
    doc = {"dim": 2, "singular_values": [0.5, 0.25], "count": 2, "seed": 3}
    for name, value in (("dim", "2"), ("count", 2.5), ("seed", None), ("singular_values", "abc")):
        cfg = write_config({**doc, name: value})
        assert main(["gen", "--config", cfg, "--out", str(tmp_path / "g")]) == EXIT_CONFIG
        assert f"config error: {name}" in capsys.readouterr().err


def test_missing_config_file_is_io_error(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]) == EXIT_IO


def test_malformed_json_is_config_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG
    bad.write_text("[1, 2]")
    assert main(["solve", "--config", str(bad), "--out", str(tmp_path)]) == EXIT_CONFIG


def test_module_entry_point_smoke(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"mapping": DEMO_MAPPING, "b": 3.0, "x0": [0.0]}))
    proc = subprocess.run(
        [sys.executable, "-m", "fpkit", "solve", "--config", str(cfg), "--out", str(tmp_path / "run")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "status=converged" in proc.stdout
