"""The package has no runtime dependencies: importing the harness and
the per-node worker loads nothing but the standard library and
``repro`` itself. And the protocol layer is backend-neutral: nothing
under ``repro.core`` imports the simulator."""

import ast
import os
import pathlib
import subprocess
import sys

import repro


def test_harness_and_worker_import_only_the_standard_library():
    """A fresh interpreter started with ``-S`` (so no ``.pth`` file
    imports anything first) but with site-packages on its path, so a
    third-party import would succeed and show up as loaded."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    out = subprocess.run(
        [sys.executable, "-S", "-c",
         "import site, sys; sys.path.extend(site.getsitepackages()); "
         "import repro.harness, repro.runtime.worker; "
         "print(sorted({m.partition('.')[0] for m in sys.modules} "
         "- set(sys.stdlib_module_names) - {'__main__', 'repro'}))"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, check=True, timeout=60).stdout.strip()
    assert out == "[]"


def test_core_never_imports_the_simulator():
    """Protocol code reaches clock, timers and randomness through the
    runtime, so it runs unchanged on every backend."""
    core = pathlib.Path(repro.__file__).parent / "core"
    offenders = []
    for path in sorted(core.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            offenders.extend(f"{path.relative_to(core)}: {name}"
                             for name in names
                             if name == "repro.sim"
                             or name.startswith("repro.sim."))
    assert offenders == []
