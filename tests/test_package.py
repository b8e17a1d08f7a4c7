"""Package-level guards: the runtime's imports and the public names."""

import os
import subprocess
import sys
from pathlib import Path

import fbsec


def fresh_interpreter(code: str) -> str:
    """stdout of ``code`` run in a new interpreter that imports this checkout's fbsec."""
    src = str(Path(fbsec.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    return out.stdout.strip()


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; the runtime path must not pull it in
    code = "import sys, fbsec.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert fresh_interpreter(code) == "[]"


def test_cli_import_starts_no_thread():
    # Monte Carlo workers are started per estimate, never at import, and
    # without the executor machinery of concurrent.futures
    code = "import sys, threading, fbsec.cli; print(threading.active_count(), 'concurrent.futures' in sys.modules)"
    assert fresh_interpreter(code) == "1 False"


def test_cli_import_builds_no_parser():
    # the shared parser is built by the first main call, not at import
    code = "import fbsec.cli; print(fbsec.cli._default_parser.cache_info().currsize)"
    assert fresh_interpreter(code) == "0"


def test_every_exported_name_resolves():
    missing = [name for name in fbsec.__all__ if not hasattr(fbsec, name)]
    assert missing == []
