"""The package has no runtime dependencies: importing the harness and
the per-node worker loads nothing but the standard library and
``repro`` itself."""

import os
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
