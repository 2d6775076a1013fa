"""Package metadata: the ``repro`` package under ``src/``, with numpy as
its only runtime dependency.

Install for development with ``python setup.py develop`` (or ``pip install
-e .``). The legacy develop path works offline: it needs setuptools and an
installed numpy, not the ``wheel`` package a PEP-517 editable install
does. ``tests/test_import_deps.py`` checks ``install_requires`` against
every import under ``src/``.
"""

import re
from pathlib import Path

from setuptools import find_packages, setup

_INIT = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', _INIT.read_text(), re.M).group(1)

setup(
    name="mcfuser-repro",
    version=VERSION,
    description="Reproduction of MCFuser: fusion of memory-bound compute-intensive operators",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
)
