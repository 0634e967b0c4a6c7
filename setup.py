"""Setup script.

The execution environment has setuptools but no ``wheel`` package and no
network, so PEP-517 editable installs (``pip install -e .``) cannot build a
wheel.  ``python setup.py develop`` (which pip falls back to) installs the
package in editable mode from the ``src/`` layout declared here, along
with the ``laab`` command.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Linear-Algebra-Awareness Benchmarks (IPDPSW'22 reproduction)",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy"],
    entry_points={"console_scripts": ["laab = repro.experiments.cli:main"]},
)
