"""Package metadata for ``python setup.py develop`` (an editable install).

The package lives under ``src/``; running with ``PYTHONPATH=src`` needs
no install at all.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.1.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy", "scipy", "orjson"],
)
