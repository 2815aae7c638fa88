import subprocess
import sys
from pathlib import Path

import fpkit as fp


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
