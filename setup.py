"""Setuptools entry point.

Kept as a plain ``setup.py`` so that ``pip install -e .`` works in
offline environments whose pip/setuptools combination cannot build
PEP 660 editable wheels (no ``wheel`` package available).  Installing
exposes the ``repro`` console script, equivalent to ``python -m repro``.
"""

from setuptools import find_packages, setup

setup(
    name="repro-ssr",
    version="3.0.0",
    description=(
        "Reproduction of 'Silent Self-Stabilizing Ranking: Time Optimal "
        "and Space Efficient' (ICDCS 2025)"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["numpy"],
    entry_points={
        "console_scripts": ["repro=repro.experiments.cli:main"],
    },
)
