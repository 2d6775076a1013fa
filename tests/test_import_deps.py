"""``import repro`` needs nothing beyond numpy and the standard library."""

import os
import subprocess
import sys

import repro

#: Packages the environment may have that ``repro`` must never need.
UNDECLARED = ("networkx",)


def test_import_without_undeclared_deps():
    blocked = "".join(f"sys.modules[{name!r}] = None\n" for name in UNDECLARED)
    script = f"import sys\n{blocked}import repro\nimport repro.tiling.dag\n"
    src = os.path.dirname(os.path.dirname(repro.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
