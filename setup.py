"""Setuptools shim; the package metadata lives in the ``setup()`` call below.

The offline environment this reproduction targets ships setuptools without the
``wheel`` package, so PEP-517 editable installs (``pip install -e .``) cannot
build the editable wheel.  This shim lets ``python setup.py develop`` (or
``pip install -e . --no-build-isolation`` on newer toolchains) install the
package.  No ``pyproject.toml`` is tracked.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    description="Bismarck reproduction: a unified architecture for in-RDBMS analytics",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    install_requires=["numpy"],
)
