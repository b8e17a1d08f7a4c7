"""Package-level guards: the runtime's imports and the public names."""

import os
import subprocess
import sys
from pathlib import Path

import fbsec


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; the runtime path must not pull it in
    src = str(Path(fbsec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, fbsec.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_every_exported_name_resolves():
    missing = [name for name in fbsec.__all__ if not hasattr(fbsec, name)]
    assert missing == []
