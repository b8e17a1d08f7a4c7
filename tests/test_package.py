"""Package-level guards: the runtime's imports and the public names."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import fbsec
from fbsec import errors


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


def test_cli_import_loads_only_numpy_and_the_standard_library():
    # set-up time is a fresh interpreter's import: a third-party package pulled in at import
    # would add to every one (what the interpreter loads before the import does not count)
    code = ("import sys; before = set(sys.modules); import fbsec.cli; "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before} "
            "- set(sys.stdlib_module_names) - {'fbsec', 'numpy'}))")
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


def test_every_error_class_is_exported():
    # callers catch (and filter) the package's errors and warnings by these names
    classes = [name for name, obj in vars(errors).items()
               if isinstance(obj, type) and obj.__module__ == errors.__name__]
    assert "AccuracyWarning" in classes
    assert [name for name in classes if name not in fbsec.__all__] == []


# Public names that need no runtime caller: the route entry points, the CLI's
# console-script hook, and the API that README.md documents for users.
UNCALLED_API = {"closed_metrics", "numeric_metrics", "estimate", "entry"}


def test_no_library_code_that_only_tests_call():
    # every public top-level function or class of the package is referenced
    # by runtime code besides its own definition (re-exports in __init__ do
    # not count), or is documented API
    src = Path(fbsec.__file__).resolve().parent
    readme = (src.parents[1] / "README.md").read_text()
    assert all(name in readme for name in UNCALLED_API - {"entry"}), "allow-listed names must be documented"
    modules = {p.stem: ast.parse(p.read_text()) for p in src.glob("*.py") if p.stem != "__init__"}

    def references(nodes):
        refs = set()
        for node in nodes:
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    refs.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    refs.add(sub.attr)
        return refs

    unused = []
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            elsewhere = [n for n in tree.body if n is not node]
            refs = references(elsewhere).union(*(references(t.body) for m, t in modules.items() if m != module))
            if node.name not in refs and node.name not in UNCALLED_API:
                unused.append(f"{module}.{node.name}")
    assert unused == []
