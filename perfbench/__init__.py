"""End-to-end and per-layer benchmark of the spanner3 LCA stack.

``python3 perfbench/run.py --workload <name>`` runs one workload in its own
process; see ``perfbench/README.md`` for the workloads, the metrics and the
steadiness mode.
"""
