"""Optional vectorized probe kernels over the CSR adjacency arrays.

The scalar query engines walk adjacency one vertex at a time in pure Python.
This package reimplements one hot probe loop — spanner3's neighbor-prefix
scans (H_high and H_super, which spanner5 reuses through its spanner3
components) — as numpy array operations directly over flat
``indptr``/``indices`` arrays, while charging the probe ledger *exactly* like
the scalar code: spanner edges, per-query probe totals, and per-kind probe
counts are bit-identical (pinned by the kernel-equivalence tests).  The same
array evaluator decides a spanner3 ``materialize`` and the answer-memo
misses of a large ``query_batch`` call.  Every other loop, spannerk's
explorations and spanner5's bucket scans included, runs its scalar code
under every kernel.

Since the kernel changes no answer, probe, report or trace, which one runs
is a fact about the host, not a choice each caller makes.  The one switch
is the ``REPRO_KERNEL`` environment variable, read when an LCA builds its
cached engine:

``python``
    The scalar reference path (no kernel object; always available).
``numpy``
    The vectorized path; requires numpy.
unset (or empty)
    ``numpy`` when numpy imports, ``python`` otherwise.

Any other value, or ``numpy`` on a host without numpy, raises
:class:`KernelUnavailableError`, a :class:`~repro.core.errors.ReproError`
that the CLI prints as one line.  Every CLI command that builds an LCA
checks the variable first (:func:`check_environment`), so a run that never
builds a cached engine fails the same way.
"""

from __future__ import annotations

import os

from ..core.errors import ReproError

#: The values ``REPRO_KERNEL`` may hold.
KERNELS = ("python", "numpy")

#: The environment variable that selects the kernel.
ENV_KERNEL = "REPRO_KERNEL"


class KernelUnavailableError(ReproError):
    """``REPRO_KERNEL`` names no kernel, or forces numpy without numpy."""


def _numpy_or_none():
    """Import numpy if present; tests monkeypatch this to simulate absence."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy


def check_environment() -> str:
    """Validate ``REPRO_KERNEL`` and return its value (``""`` when unset).

    Raises :class:`KernelUnavailableError` for a value outside
    :data:`KERNELS`, and for ``numpy`` on a host without numpy.  numpy is
    imported only when the variable forces it.
    """
    name = os.environ.get(ENV_KERNEL) or ""
    if name and name not in KERNELS:
        raise KernelUnavailableError(
            f"{ENV_KERNEL}={name!r} is not a valid kernel; choices: {KERNELS}"
        )
    if name == "numpy" and _numpy_or_none() is None:
        raise KernelUnavailableError(
            f"{ENV_KERNEL}='numpy' requires numpy, which is not installed; "
            "install the optional extra: pip install repro-spanner-lca[fast]"
        )
    return name


def resolve_kernel():
    """The kernel ``REPRO_KERNEL`` selects, as an engine instance.

    Returns ``None`` for the scalar path or a fresh
    :class:`~repro.kernels.engine.NumpyKernel` for the vectorized path.
    A value :func:`check_environment` refuses raises
    :class:`KernelUnavailableError`, so mis-provisioned runs fail loudly
    instead of silently measuring the wrong engine.
    """
    name = check_environment()
    np_module = None if name == "python" else _numpy_or_none()
    if np_module is None:
        return None
    from .engine import NumpyKernel

    return NumpyKernel(np_module)
