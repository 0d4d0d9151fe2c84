"""Package metadata for the SAFELOC reproduction.

``pyproject.toml`` here carries tool configuration only (ruff, mypy) —
it has no build-system table because the offline environment lacks
``bdist_wheel``/PEP 517 support.  This file is the single source of
install metadata: ``pip install .`` must produce a working ``repro``
package with its one runtime dependency declared.
"""

import os
import re

from setuptools import find_packages, setup


def _version() -> str:
    init = os.path.join(
        os.path.dirname(os.path.abspath(__file__)),
        "src", "repro", "__init__.py",
    )
    with open(init) as handle:
        return re.search(
            r'^__version__ = "([^"]+)"', handle.read(), re.MULTILINE
        ).group(1)


setup(
    name="repro",
    version=_version(),
    description=(
        "SAFELOC reproduction (DATE 2025): poisoning-robust federated "
        "indoor localization, from-scratch numpy stack"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    package_data={"repro": ["py.typed"]},
    python_requires=">=3.11",
    install_requires=["numpy>=1.24"],
    # the tier-1 suite's property tests import hypothesis at module level
    extras_require={"test": ["pytest", "hypothesis"]},
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
