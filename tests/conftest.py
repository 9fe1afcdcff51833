"""Shared fixtures for the test suite.

Graphs are kept deliberately small: LCA queries are pure Python and the
verification harness materializes full spanners by querying every edge, so
the fixtures trade statistical strength for runtime.  Every fixture is
deterministic (fixed seeds).
"""

from __future__ import annotations

import pytest

from repro import graphs
from repro.kernels import ENV_KERNEL


@pytest.fixture
def pin_kernel(monkeypatch):
    """Select the probe kernel the one way the library offers: ``REPRO_KERNEL``.

    ``pin_kernel("numpy")`` sets the variable for the rest of the test; a
    later call replaces it.  The variable is read when an LCA builds its
    cached engine, so pin it before the LCA's first batched query.
    Hypothesis tests, which cannot take function-scoped fixtures, set it
    inside ``pytest.MonkeyPatch.context()`` instead.
    """

    def pin(kernel: str) -> None:
        monkeypatch.setenv(ENV_KERNEL, kernel)

    return pin


@pytest.fixture
def small_dense_graph():
    """A dense-ish random graph (exercises E_high / E_super paths)."""
    return graphs.gnp_graph(90, 0.25, seed=11)


@pytest.fixture
def clustered_graph():
    """Dense clusters joined sparsely (medium-degree band is populated)."""
    return graphs.dense_cluster_graph(100, 10, inter_probability=0.05, seed=5)


@pytest.fixture
def bounded_degree_graph():
    """A connected bounded-degree graph (habitat of the O(k²) LCA)."""
    return graphs.bounded_degree_expanderish(150, d=4, seed=3)


@pytest.fixture
def hub_graph():
    """Sparse backbone plus a few high-degree hubs (degree-skewed input)."""
    return graphs.planted_hub_graph(120, num_hubs=4, hub_degree=60, seed=9)


@pytest.fixture
def tiny_graph():
    """A hand-sized graph for exhaustive checks."""
    return graphs.gnp_graph(24, 0.3, seed=2)


@pytest.fixture
def path_like_graph():
    return graphs.path_graph(30, seed=1)


@pytest.fixture
def seed():
    return 12345
