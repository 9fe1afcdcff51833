"""The CSR graph name, kept as an alias of :class:`~repro.graphs.graph.Graph`.

:class:`~repro.graphs.graph.Graph` is the one graph storage and already
holds its rows as flat compressed-sparse-row arrays.  ``CSRGraph`` stays
importable under this module path because external instrumentation
addresses the compaction hook as ``repro.graphs.csr.CSRGraph.compact``.
"""

from .graph import Graph

CSRGraph = Graph
