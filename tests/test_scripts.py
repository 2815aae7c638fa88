import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "script, args, artifact, lines",
    [
        ("run_family_bench.py", ["--count", "3"], "bench.csv", 1 + 3 * 3),
        ("run_demo_solves.py", ["--starts", "2"], "trace.csv", None),
    ],
)
def test_script_runs_and_writes_its_csv(tmp_path, script, args, artifact, lines):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", str(ROOT / "scripts" / script),
         "--out", str(tmp_path), *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    csv = tmp_path / artifact
    assert csv.is_file()
    if lines is not None:
        assert len(csv.read_text().splitlines()) == lines
