"""``repro`` needs nothing beyond its declared dependencies (numpy) and the
standard library: statically, every import under ``src/`` is declared in
``setup.py``, and ``import repro`` succeeds with every installed but
undeclared package blocked."""

import ast
import os
import re
import subprocess
import sys
from importlib.metadata import packages_distributions
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent.parent
SETUP = SRC.parent / "setup.py"

#: Packages the environment may have that ``repro`` must never need; the
#: subprocess check blocks these even when they are not installed.
UNDECLARED = ("networkx",)


def declared_requirements() -> set[str]:
    """Top-level names in ``setup.py``'s ``install_requires`` literal."""
    tree = ast.parse(SETUP.read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setup":
            for kw in node.keywords:
                if kw.arg == "install_requires":
                    reqs = ast.literal_eval(kw.value)
                    return {re.split(r"[\s<>=!~;\[]", r, maxsplit=1)[0] for r in reqs}
    raise AssertionError("setup.py declares no install_requires")


def third_party_imports() -> dict[str, set[str]]:
    """Top-level package of every absolute import under ``src/`` (module
    level or deferred inside a function) that is neither stdlib nor
    ``repro`` -> the files importing it."""
    found: dict[str, set[str]] = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top != "repro" and top not in sys.stdlib_module_names:
                    found.setdefault(top, set()).add(str(path.relative_to(SRC)))
    return found


def test_numpy_is_the_only_declared_dependency():
    assert declared_requirements() == {"numpy"}


def test_every_import_is_declared():
    declared = declared_requirements()
    imports = third_party_imports()
    assert "numpy" in imports  # the scan sees real imports
    undeclared = {name: files for name, files in imports.items() if name not in declared}
    assert not undeclared, f"undeclared imports under src/: {undeclared}"


def test_import_without_undeclared_deps():
    declared = declared_requirements()
    installed = {
        name for name in packages_distributions()
        if name.isidentifier() and name not in declared and name not in sys.stdlib_module_names
    }
    blocked = "".join(
        f"sys.modules[{name!r}] = None\n" for name in sorted(installed | set(UNDECLARED))
    )
    script = f"import sys\n{blocked}import repro\nimport repro.tiling.dag\n"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
