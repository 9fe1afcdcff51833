"""Optional vectorized probe kernels over the CSR adjacency arrays.

The scalar query engines walk adjacency one vertex at a time in pure Python.
This package reimplements one hot probe loop — spanner3's neighbor-prefix
scans (H_high and H_super, which spanner5 reuses through its spanner3
components) — as numpy array operations directly over flat
``indptr``/``indices`` arrays, while charging the probe ledger *exactly* like
the scalar code: spanner edges, per-query probe totals, and per-kind probe
counts are bit-identical (pinned by the kernel-equivalence tests).  Every
other loop, spannerk's explorations and spanner5's bucket scans included,
runs its scalar code under every selection.

Selection is by name:

``"python"``
    The scalar reference path (no kernel object; always available).
``"numpy"``
    The vectorized path; requires numpy and raises
    :class:`KernelUnavailableError` with a one-line message otherwise.
``"auto"`` (default)
    ``"numpy"`` when numpy imports, ``"python"`` otherwise.

The ``REPRO_KERNEL`` environment variable overrides the ``"auto"`` choice
process-wide (the CI equivalence job runs the full suite under both values).
"""

from __future__ import annotations

import os
from typing import Optional

#: Valid kernel selections, in the order the CLI advertises them.
KERNELS = ("auto", "python", "numpy")

#: Environment variable consulted when the selection is ``None``/``"auto"``.
ENV_KERNEL = "REPRO_KERNEL"


class KernelUnavailableError(RuntimeError):
    """An explicitly requested kernel cannot be loaded (numpy missing)."""


def _numpy_or_none():
    """Import numpy if present; tests monkeypatch this to simulate absence."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def check_kernel(name: str) -> str:
    """Validate a kernel name, returning it (raises ``ValueError`` otherwise)."""
    if name not in KERNELS:
        raise ValueError(f"unknown kernel {name!r}; choices: {KERNELS}")
    return name


def resolve_kernel(name: Optional[str] = None):
    """Resolve a kernel selection to an engine instance.

    Returns ``None`` for the scalar path ("python") or a fresh
    :class:`~repro.kernels.engine.NumpyKernel` for the vectorized path.
    ``None``/``"auto"`` consult ``REPRO_KERNEL`` and fall back to
    auto-detection; an explicit (or environment-forced) ``"numpy"`` without
    numpy installed raises :class:`KernelUnavailableError` so mis-provisioned
    runs fail loudly instead of silently measuring the wrong engine.
    """
    if name in (None, "auto"):
        env = os.environ.get(ENV_KERNEL)
        if env:
            if env not in KERNELS:
                raise KernelUnavailableError(
                    f"{ENV_KERNEL}={env!r} is not a valid kernel; choices: {KERNELS}"
                )
            name = env
        else:
            name = "auto"
        if name == "auto":
            np_module = _numpy_or_none()
            if np_module is None:
                return None
            from .engine import NumpyKernel

            return NumpyKernel(np_module)
    check_kernel(name)
    if name == "python":
        return None
    np_module = _numpy_or_none()
    if np_module is None:
        raise KernelUnavailableError(
            "kernel='numpy' requires numpy, which is not installed; "
            "install the optional extra: pip install repro-spanner-lca[fast]"
        )
    from .engine import NumpyKernel

    return NumpyKernel(np_module)
