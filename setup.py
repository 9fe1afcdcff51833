"""Package metadata and console entry point.

``pip install -e .`` makes the library importable without PYTHONPATH tricks
and installs the ``repro`` command, so CLI workflows read
``repro serve-bench ...`` instead of ``python -m repro.cli serve-bench ...``.
Kept as a plain ``setup.py`` so editable installs work in offline
environments whose setuptools lacks the PEP 660 wheel-based editable path;
the ``pyproject.toml`` next to this file carries only tool configuration
(ruff), not build metadata.
"""

from setuptools import find_packages, setup

setup(
    name="repro-spanner-lca",
    version="1.0.0",
    description=(
        "Local computation algorithms for graph spanners "
        "(Parter-Rubinfeld-Vakilian-Yodpinyanee reproduction) with an "
        "online query-serving layer"
    ),
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.11",
    # The core library is dependency-free; numpy only unlocks the vectorized
    # probe kernels (see docs/kernels.md).  Without it, kernel="numpy" fails
    # with a one-line error pointing at this extra and everything else runs
    # on the scalar paths.
    # The lint extra pins the one external linter CI runs alongside
    # `repro lint` (scoped to pyflakes F-codes in pyproject.toml); the
    # in-repo AST checker itself is stdlib-only and needs no install.
    extras_require={
        "fast": ["numpy"],
        "lint": ["ruff==0.8.4"],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "License :: OSI Approved :: MIT License",
        "Operating System :: POSIX :: Linux",
        "Programming Language :: Python :: 3",
        "Programming Language :: Python :: 3.11",
        "Programming Language :: Python :: 3.12",
        "Topic :: Scientific/Engineering :: Mathematics",
        "Topic :: System :: Distributed Computing",
    ],
    entry_points={
        "console_scripts": [
            "repro=repro.cli:main",
        ]
    },
)
